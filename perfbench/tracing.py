"""Layer spans for the traced benchmark run.

A :class:`Tracer` replaces the layer-boundary functions of ``commexp`` with
wrappers that record one span per call: name, start, end, the span that
caused it, and a size (matrix dimension for ``expm``/``two_norm``, grid
length for ``gates_for_tolerance``).  Every binding of a wrapped function is
patched, not only the one in its defining module, because the package calls
most of them through names imported into other modules
(``conditions.scheme_log``, ``cli.order_residuals``, ``matform.basis_build``).
Spans stay in memory in flat arrays and are written out once, at exit.

Tracing is installed only for the traced run; the untraced run executes the
package unmodified.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "commexp"
# The layers are the package modules; these are the public functions whose
# calls mark a crossing into each of them.
WRAPPED: dict[str, tuple[str, ...]] = {
    "liealg": ("basis_build", "series_mul", "series_log", "scheme_log", "lie_project"),
    "conditions": ("order_residuals", "effective_error", "refine",
                   "optimize_free_parameter"),
    "schemes": ("catalog_get", "save_scheme", "load_scheme"),
    "matform": ("make_pair", "expm", "two_norm", "evaluate_scheme", "target_matrix"),
    "bench": ("error_curve", "gates_for_tolerance", "single_step_errors", "export_figure"),
    "cli": ("main",),
}


def _matrix_dim(args, kwargs) -> int:
    return int(np.shape(args[0] if args else kwargs["M"])[0])


def _grid_len(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["x_grid"])


# Span sizes: the dimension the matrix kernels run at, and the number of
# x-points a cost-table search resolves.
SIZE_OF = {
    "matform.expm": _matrix_dim,
    "matform.two_norm": _matrix_dim,
    "bench.gates_for_tolerance": _grid_len,
}


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class BindingMissed(RuntimeError):
    """A reference to a wrapped function survived patching."""


class Tracer:
    """Patch-on-enter, restore-on-exit span recorder for commexp."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._recording = [True]
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: list[str] = []

    # -- patching ---------------------------------------------------------

    def _wrapper(self, qualname: str, fn):
        name_id = self._name_id.setdefault(qualname, len(self._name_id))
        self.names = list(self._name_id)
        size_of = SIZE_OF.get(qualname)
        names, parents, sizes = self.name, self.parent, self.size
        starts, ends, stack = self.start, self.end, self._stack
        recording = self._recording
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            sizes.append(size_of(args, kwargs) if size_of else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in WRAPPED}
        modules = _package_modules()
        originals: dict[int, tuple[object, object]] = {}
        for layer, funcs in WRAPPED.items():
            module = layers[layer]
            for func in funcs:
                fn = getattr(module, func)
                originals[id(fn)] = (fn, self._wrapper(f"{layer}.{func}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._check_no_binding_missed(modules, {id(fn) for fn, _ in originals.values()})
        self.bindings = [f"{m.__name__}.{attr}" for m, attr, _ in self._patched]
        return self

    def _check_no_binding_missed(self, modules, original_ids: set[int]) -> None:
        """Fail if an unwrapped original is still reachable from package state.

        Module attributes were patched above; this also looks two levels into
        module-level containers and function defaults, which patching cannot
        reach.
        """
        def reachable(where: str, value, depth: int):
            yield where, value
            if depth == 0:
                return
            if isinstance(value, dict):
                items = [(f"{where}[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, (list, tuple)):
                items = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
            elif isinstance(value, types.FunctionType):
                items = [(f"{where} default", v) for v in (value.__defaults__ or ())]
                items += [(f"{where} default", v)
                          for v in (value.__kwdefaults__ or {}).values()]
            else:
                items = []
            for w, v in items:
                yield from reachable(w, v, depth - 1)

        for module in modules:
            for attr, value in vars(module).items():
                for where, v in reachable(attr, value, 2):
                    if id(v) in original_ids:
                        self.uninstall()
                        raise BindingMissed(f"{module.__name__}.{where} still holds "
                                            f"the unwrapped {getattr(v, '__name__', v)}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Run package code without recording spans (for output checks)."""
        self._recording[0] = False
        try:
            yield
        finally:
            self._recording[0] = True

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        # copies: a buffer view would stop the arrays from growing
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.size, dtype=np.int32), np.array(self.start),
                np.array(self.end))

    def summarize(self, lo: int = 0, hi: int | None = None) -> "SpanSummary":
        """Calls, inclusive and self time per (name, size) for spans lo..hi.

        A span's self time is its duration minus the durations of its direct
        children; children run inside their parent on the same thread, so
        their intervals never overlap each other.
        """
        hi = len(self) if hi is None else hi
        name, parent, size, start, end = (a[lo:hi] for a in self.arrays())
        dur = end - start
        rel = parent - lo
        has_parent = (parent >= lo)
        child_time = np.bincount(rel[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        return SpanSummary(list(self.names), name, rel, size, dur, self_time)

    def dump(self, path) -> None:
        name, parent, size, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            size=size, start=start, end=end)


class SpanSummary:
    """Span arrays of one traced interval, with per-name reductions."""

    def __init__(self, names, name, parent, size, dur, self_time):
        self.names = names
        self.name, self.parent, self.size = name, parent, size
        self.dur, self.self_time = dur, self_time

    def _mask(self, qualname: str, size: int | None = None):
        if qualname not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(qualname)
        if size is not None:
            mask &= self.size == size
        return mask

    def calls(self, qualname: str, size: int | None = None) -> int:
        return int(np.count_nonzero(self._mask(qualname, size)))

    def self_s(self, qualname: str, size: int | None = None) -> float:
        return float(self.self_time[self._mask(qualname, size)].sum())

    def total_s(self, qualname: str) -> float:
        return float(self.dur[self._mask(qualname)].sum())

    def size_sum(self, qualname: str) -> int:
        return int(self.size[self._mask(qualname)].sum())

    def calls_under(self, qualname: str, ancestor: str) -> int:
        """Calls of ``qualname`` made (at any depth) inside an ``ancestor`` span."""
        target = self._mask(qualname)
        if ancestor not in self.names or not target.any():
            return 0
        anc_id = self.names.index(ancestor)
        inside = np.zeros(len(self.name), dtype=bool)
        p = self.parent.copy()
        live = p >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            inside[idx] |= self.name[p[idx]] == anc_id
            p[idx] = self.parent[p[idx]]
            live = p >= 0
        return int(np.count_nonzero(target & inside))

    def self_total(self) -> float:
        return float(self.self_time.sum())
