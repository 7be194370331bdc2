"""In-memory span tracing of kreinmod's layers, installed from outside.

``install()`` wraps every public function and every public method (plus
``__init__``) of the traced modules and rebinds the wrapper at every name
that refers to the original, so ``from .linalg import operator_norm`` copies
in other modules are traced too.  Spans are kept in memory; ``summary()``
reduces them to per-function calls, total and self time, and to the
shape-derived counters below.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "kreinmod"
LAYERS = (
    "linalg",
    "algebra",
    "krein_module",
    "krein_over_krein",
    "clifford",
    "correspondence",
    "checker",
    "report",
)

COMPLEX_BYTES = 16
LARGE_NORM_DIM = 64  # linalg._SVD_DIM_LIMIT at the commit that defined this benchmark


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _operator_norm_counters(args, kwargs):
    shape = np.shape(_arg(args, kwargs, 0, "m"))
    return {"large_calls": int(bool(shape) and max(shape) >= LARGE_NORM_DIM)}


def _adjoint_residual_counters(args, kwargs):
    module = _arg(args, kwargs, 0, "module")
    n, d = module.dim, module.algebra.dim
    # design matrix of the Kronecker-sized least squares: (n²d² × n²)
    return {"computed_bytes": n * n * d * d * n * n * COMPLEX_BYTES}


def _quotient_space_counters(args, kwargs):
    ambient = _arg(args, kwargs, 0, "ambient_dim")
    relations = len(_arg(args, kwargs, 1, "relations"))
    # stacked relation matrix (ambient × relations) plus the full U (ambient²)
    return {"computed_bytes": (ambient * relations + ambient * ambient) * COMPLEX_BYTES}


def _internal_tensor_counters(args, kwargs):
    m, n = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "n")
    plain, dc = m.dim * n.dim, n.algebra.dim
    # plain inner product ip_plain: (plain × plain × dc × dc)
    return {"computed_bytes": plain * plain * dc * dc * COMPLEX_BYTES}


def _clifford_action_counters(args, kwargs):
    space = _arg(args, kwargs, 0, "space")
    return {"signatures": {(space.p, space.q)}}


# counters computed from argument shapes only, before the call runs
COUNTERS = {
    "linalg.operator_norm": _operator_norm_counters,
    "krein_over_krein.adjoint_residual": _adjoint_residual_counters,
    "linalg.quotient_space": _quotient_space_counters,
    "correspondence.internal_tensor": _internal_tensor_counters,
    "clifford.clifford_action": _clifford_action_counters,
}


class Tracer:
    """Span recorder: one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        # (name index, start ns, end ns, parent span index or -1)
        self.spans: list[tuple[int, int, int, int]] = []
        self.counters: dict[str, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self._count(name, counter(args, kwargs))
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()

        return traced

    def _count(self, name: str, increments: dict):
        totals = self.counters.setdefault(name, {})
        for key, value in increments.items():
            if isinstance(value, set):
                totals.setdefault(key, set()).update(value)
            else:
                totals[key] = totals.get(key, 0) + value

    def summary(self) -> dict:
        """Per function: calls, self_s (each span's duration minus the time its
        direct child spans cover), total_s (inclusive time of its outermost
        spans, so recursion is not counted twice), plus its counters."""
        n = len(self.names)
        calls = [0] * n
        total = [0] * n
        own = [0] * n
        spans = self.spans
        for index, start, end, parent in spans:
            calls[index] += 1
            own[index] += end - start
            if parent >= 0:
                own[spans[parent][0]] -= end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != index:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total[index] += end - start
        out = {}
        for i, name in enumerate(self.names):
            entry = {"calls": calls[i], "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for key, value in self.counters.get(name, {}).items():
                entry[key] = len(value) if isinstance(value, set) else value
            out[name] = entry
        return out


def _public_callables(module):
    """(qualified name, owner, attribute, function) for every public function
    and public method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{layer}.{attr}", module, attr, value
        elif inspect.isclass(value):
            for meth, fn in vars(value).items():
                if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                    label = "init" if meth == "__init__" else meth
                    yield f"{layer}.{attr}.{label}", value, meth, fn


def install() -> Tracer:
    """Wrap the public layer functions of kreinmod and rebind every
    module-level name in the package that refers to one of them."""
    tracer = Tracer()
    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, owner, attr, fn in list(_public_callables(module)):
            replaced[fn] = tracer.wrap(name, fn)
            setattr(owner, attr, replaced[fn])
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
    return tracer
