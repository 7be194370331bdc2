"""Dense complex linear algebra primitives shared by all higher layers.

Everything here operates on plain numpy complex arrays.  All functions are
pure; inputs are never mutated.

Norm tests on stacks (``first_exceeding``) are screened by Frobenius norms
before any SVD: for an m x n matrix x of rank at most k = min(m, n),
‖x‖₂ ≤ ‖x‖_F and ‖x‖_F / √k ≤ ‖x‖₂, so ‖r‖_F ≤ tol · max(‖a‖_F / √k, 1)
already proves ‖r‖₂ ≤ tol · max(‖a‖₂, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-8


class DimensionMismatchError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a complex matrix or stack of matrices (..., m, n), rejecting
    NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValidationError(f"expected a matrix or a stack, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def hermitian_adjoint(m) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return as_complex_matrix(m).conj().swapaxes(-1, -2)


def operator_norm(m):
    """Largest singular value: a float for a matrix, an array of one per
    matrix for a stack (..., m, n).

    A matrix with no nonzero entry, an empty one included, reads 0.0, the
    value its SVD returns, without an SVD: only the other matrices go to one
    stacked SVD, which takes the stack itself, uncopied, when none is zero."""
    a = as_complex_matrix(m)
    nonzero = a.any(axis=(-2, -1))
    if nonzero.size and nonzero.all():
        top = np.linalg.svd(a, compute_uv=False)[..., 0]
    else:
        top = np.zeros(a.shape[:-2])
        if nonzero.any():
            top[nonzero] = np.linalg.svd(a[nonzero], compute_uv=False)[:, 0]
    return top if a.ndim > 2 else float(top)


def involution_defect(x):
    """‖x² − 1‖₂, of a matrix or of each matrix of a stack."""
    return operator_norm(x @ x - np.eye(x.shape[-1]))


def hermitian_defect(x):
    """‖x − x†‖₂, of a matrix or of each matrix of a stack."""
    return operator_norm(x - x.conj().swapaxes(-1, -2))


def first_exceeding(residuals, references, tol: float) -> int:
    """Index of the first k with ‖residuals[k]‖₂ > tol · max(‖references[k]‖₂, 1),
    or -1 if there is none.

    Both arguments are stacks of matrices of the same length.  A pair that
    passes the Frobenius screen (module docstring) is inside; only the other
    pairs go to a stacked SVD, so the answer is the all-SVD answer.
    """
    r_fro, a_fro = frobenius_norms(residuals), frobenius_norms(references)
    rank_bound = min(references.shape[1:])
    # written as "not inside" so that a NaN residual goes on to the SVD
    suspects = np.flatnonzero(
        ~(r_fro <= tol * np.maximum(a_fro / np.sqrt(rank_bound), 1.0))
    )
    if suspects.size == 0:
        return -1
    r_norm = np.linalg.svd(residuals[suspects], compute_uv=False)[:, 0]
    a_norm = np.linalg.svd(references[suspects], compute_uv=False)[:, 0]
    outside = r_norm > tol * np.maximum(a_norm, 1.0)
    return int(suspects[np.argmax(outside)]) if outside.any() else -1


def frobenius_norms(stack) -> np.ndarray:
    """‖x‖_F of each matrix of a stack, summed over views of the real and
    imaginary parts so that the stack is never copied."""
    re, im = stack.real, stack.imag
    return np.sqrt(np.einsum("kij,kij->k", re, re) + np.einsum("kij,kij->k", im, im))


def matvec(m, x) -> np.ndarray:
    """m x for a matrix (..., m, n) and a vector (..., n), stacks broadcast."""
    return (m @ x[..., None])[..., 0]


def numerical_rank(m, tol: float = RANK_TOL):
    """Count of singular values above tol times the largest one: an int for a
    matrix, an array of one count per matrix for a stack (..., m, n).

    A matrix with at most one nonzero per row has columns with disjoint
    supports, which are exactly orthogonal, so its singular values are its
    column norms; with at most one nonzero per column they are its row norms.
    When every matrix of the input has at most one nonzero per row, or every
    one at most one per column, the sorted norms take the cut; any other
    input takes the SVD."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    a = as_complex_matrix(m)
    if a.size == 0:
        return np.zeros(a.shape[:-2], dtype=int) if a.ndim > 2 else 0
    nonzero = a != 0
    if (nonzero.sum(axis=-1) <= 1).all():
        s = np.sort(np.linalg.norm(a, axis=-2))[..., ::-1]
    elif (nonzero.sum(axis=-2) <= 1).all():
        s = np.sort(np.linalg.norm(a, axis=-1))[..., ::-1]
    else:
        s = np.linalg.svd(a, compute_uv=False)
    rank = _rank(s, tol)
    return rank if a.ndim > 2 else int(rank)


def _rank(s, tol: float = RANK_TOL):
    """Count of the descending singular values s (..., k) above tol times the
    first one; an empty or all-zero spectrum has rank 0."""
    return np.sum(s > tol * s[..., :1], axis=-1)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim given by an orthonormal column basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = as_complex_matrix(self.basis)
        if b.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis rows {b.shape[0]} != ambient_dim {self.ambient_dim}"
            )
        if operator_norm(b.conj().T @ b - np.eye(b.shape[1])) > 1e-10:
            raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an ambient vector onto the subspace."""
        return self.basis @ (self.basis.conj().T @ v)

    def contains(self, v: np.ndarray) -> bool:
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        return np.linalg.norm(self.project(v) - v) <= DEFAULT_TOL * nv


def column_space(m) -> Subspace:
    """Orthonormal basis of the column space, via SVD."""
    a = as_complex_matrix(m)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace(a.shape[0], u[:, : _rank(s)])


def quotient_space(ambient_dim: int, relations) -> tuple[np.ndarray, np.ndarray]:
    """Quotient of C^ambient_dim by the span of the relation vectors, the rows
    of an (n_relations, ambient_dim) array.

    Returns (section, span): orthonormal column bases of the complement of the
    relation span and of the span itself, together a unitary of C^ambient.
    The section (ambient x dim) embeds the quotient, and section† maps onto it.
    With no relation, or only zero ones, the section is exactly I.
    """
    rel = np.asarray(relations, dtype=complex)
    if rel.size and (rel.ndim != 2 or rel.shape[1] != ambient_dim):
        raise DimensionMismatchError(
            f"relations of shape {rel.shape}, expected (n, {ambient_dim})"
        )
    if not rel.any():
        eye = np.eye(ambient_dim, dtype=complex)
        return eye, eye[:, :0]
    # the thin U already spans C^ambient when ambient <= n_relations
    u, s, _ = np.linalg.svd(rel.T, full_matrices=ambient_dim > rel.shape[0])
    rank = _rank(s)
    return u[:, rank:], u[:, :rank]


def spectral_projector(j, sign: int) -> np.ndarray:
    """(1 + sign·j) / 2: the projector onto the sign eigenspace of an involution
    j, or of each involution of a stack."""
    return (np.eye(j.shape[-1]) + sign * j) / 2


def eig_signature(h) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a hermitian matrix."""
    a = as_complex_matrix(h)
    if hermitian_defect(a) > 1e-10 * max(1.0, operator_norm(a)):
        raise ValidationError("matrix is not hermitian")
    w = np.linalg.eigvalsh(a)
    scale = max(np.max(np.abs(w)), 1.0) if w.size else 1.0
    pos = int(np.sum(w > DEFAULT_TOL * scale))
    neg = int(np.sum(w < -DEFAULT_TOL * scale))
    return pos, neg


def min_hermitian_eig(h):
    """Least eigenvalue of the hermitian part, of each matrix of a stack."""
    a = as_complex_matrix(h)
    least = np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2)[..., 0]
    return least if a.ndim > 2 else float(least)


def is_psd(h):
    """Positive semidefinite up to a relative spectral slack; an array of one
    answer per matrix for a stack."""
    a = as_complex_matrix(h)
    scale = np.maximum(operator_norm(a), 1.0)
    return min_hermitian_eig(a) >= -DEFAULT_TOL * scale


class _Monomials:
    """A stack of K d x d matrices with at most one nonzero per row, held by
    its nonzeros: element k holds vals[k, j] at (rows[k, j], cols[k, j]).  A
    slot of value 0 holds nothing, so elements with fewer nonzeros pad.
    Without ``rows``, slot j is row j (full rows, the right factors of
    ``product``).  The d² matrix units of B(C^{p,q}) take d² slots, the N
    Clifford blades N² and the s² gamma blades s³."""

    def __init__(self, dim: int, cols, vals, rows=None):
        self.dim, self.cols, self.vals = dim, np.asarray(cols), np.asarray(vals)
        rows = np.arange(self.cols.shape[-1]) if rows is None else rows
        self.rows = np.broadcast_to(rows, self.cols.shape)
        self._at = self.rows * dim + self.cols  # the flat index of each slot

    @classmethod
    def read(cls, m):
        """The stack m (K, d, d) as full rows, an empty row a slot of value 0,
        or None if a row holds two nonzeros: a test with no threshold."""
        m = np.asarray(m, dtype=complex)
        if ((m != 0).sum(axis=-1) > 1).any():
            return None
        cols = (m != 0).argmax(axis=-1)
        return cls(m.shape[-1], cols, np.take_along_axis(m, cols[..., None], -1)[..., 0])

    def __len__(self) -> int:
        return len(self.vals)

    def __getitem__(self, k) -> "_Monomials":
        return _Monomials(self.dim, self.cols[k], self.vals[k], self.rows[k])

    @cached_property
    def norms_sq(self) -> np.ndarray:
        return (self.vals.real**2 + self.vals.imag**2).sum(axis=-1)

    def coefficients(self, a) -> np.ndarray:
        """⟨b_k, a⟩ / ‖b_k‖² of a matrix or a stack (..., d, d): a's entries at
        the slots, 2^14 or one matrix's at a time, in a copy conjugated in
        place, as Σ conj(v) a = conj(Σ v conj(a))."""
        a = np.asarray(a, dtype=complex)
        out = np.empty((*a.shape[:-2], len(self)), dtype=complex)
        items, sums = a.reshape(-1, self.dim**2), out.reshape(-1, len(self))
        step = max(1, 2**14 // self.vals.size)
        for start in range(0, len(items), step):
            c = np.take(items[start : start + step], self._at, axis=-1)
            np.conjugate(c, out=c)
            np.einsum("nkm,km->nk", c, self.vals, out=sums[start : start + step])
            del c  # before the next chunk is gathered
        np.conjugate(out, out=out)
        out /= self.norms_sq
        return out

    def synthesis(self, c) -> np.ndarray:
        """Σ_k c_k b_k of coordinates c (..., K): each entry gathers the
        coordinates of the elements holding it, times their values."""
        c = np.asarray(c, dtype=complex)
        (owner, value), *more = self._holders
        out = np.take(c, owner, axis=-1)
        _scale_rows(out, value)
        for owner, value in more:
            term = np.take(c, owner, axis=-1)
            _scale_rows(term, value)
            out += term
        return out.reshape(*c.shape[:-1], self.dim, self.dim)

    @cached_property
    def _holders(self) -> list:
        """h pairs (owner, value) of arrays (d²,): entry p is held by the
        elements owner[p] with the values value[p], h the most elements that
        hold one entry, and a missing holder has value 0."""
        live = np.flatnonzero(self.vals)
        at = self._at.ravel()[live]
        count = np.bincount(at, minlength=self.dim**2)
        rank = np.zeros(len(at), dtype=int)
        if count.max() > 1:  # the holders of an entry in element order
            order = np.argsort(at, kind="stable")
            rank[order] = np.arange(len(at)) - (np.cumsum(count) - count)[at[order]]
        shape = (max(count.max(), 1), self.dim**2)
        owners, values = np.zeros(shape, dtype=int), np.zeros(shape, dtype=complex)
        owners[rank, at] = live // self.vals.shape[-1]
        values[rank, at] = self.vals.ravel()[live]
        return list(zip(owners, values))

    def product(self, other: "_Monomials") -> "_Monomials":
        """b_k o_k for full rows ``other``, the stacks broadcast, by a gather:
        row r holds b's entry there times the one entry of row c of o, c the
        column of b's entry."""
        cols = np.take_along_axis(other.cols, self.cols, axis=-1)
        vals = self.vals * np.take_along_axis(other.vals, self.cols, axis=-1)
        return _Monomials(self.dim, cols, vals, self.rows)

    def adjoint(self) -> "_Monomials":
        """b_k†: the slot (r, t, v) becomes (t, r, conj v), in row order again;
        a column of b holding two nonzeros shows as a repeated row."""
        order = np.argsort(self.cols, axis=-1, kind="stable")
        return _Monomials(
            self.dim,
            np.take_along_axis(self.rows, order, axis=-1),
            np.take_along_axis(self.vals, order, axis=-1).conj(),
            np.take_along_axis(self.cols, order, axis=-1),
        )

    def diagonal(self) -> np.ndarray:
        """Each slot's value on the diagonal, else 0: of full rows, the
        diagonals."""
        return np.where(self.rows == self.cols, self.vals, 0)


def _scale_rows(x, v):
    """x *= v in place, for a C-contiguous stack x (..., k) and a vector v (k,).

    numpy 2.4 buffers a broadcast product in up to 8192 entries, which at
    Clifford (3,3) is a quarter of an (8, N²) stack on top of the stack that
    ``project`` holds; a product of one row needs no buffer and, for rows of
    1024 entries or more, is as fast, so long rows are scaled one at a time.
    The threshold and the buffer were measured with numpy 2.4.6 only."""
    if x.shape[-1] < 1024:
        x *= v
    else:
        for row in x.reshape(-1, x.shape[-1]):
            row *= v


def gaussians(rng: np.random.Generator, k: int, *shapes) -> list[np.ndarray]:
    """One stack (k, *shape) of i.i.d. complex standard normal entries per
    shape, from a single ``standard_normal`` call.

    The numbers are laid out sample by sample, then shape by shape, real part
    before imaginary part, so that k calls with k = 1 read the same samples as
    one call: a batch of any size draws what single samples would.
    """
    sizes = [math.prod(shape) for shape in shapes]
    raw = rng.standard_normal((k, 2 * sum(sizes)))
    stacks, start = [], 0
    for shape, size in zip(shapes, sizes):
        # (k, 2, size) real and imaginary blocks -> (k, size) complex pairs
        parts = raw[:, start : start + 2 * size].reshape(k, 2, size)
        pairs = np.ascontiguousarray(parts.swapaxes(1, 2))
        stacks.append(pairs.view(complex).reshape(k, *shape))
        start += 2 * size
    return stacks


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    """I.i.d. complex standard normal entries: one sample of ``gaussians``."""
    return gaussians(rng, 1, shape)[0][0]
