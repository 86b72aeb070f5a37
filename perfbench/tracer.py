"""Span tracer that wraps helmdual's public functions from outside the package.

Every public function of every helmdual module, a few methods the per-layer
metrics need, and the transform functions of ``numpy.fft`` are replaced by a
wrapper while a :class:`Tracer` is active.  Each call records one span --
name, layer, parent span, start, end -- in memory; :meth:`Tracer.summary`
aggregates them after the pass, so the wrappers stay cheap.

A function is keyed ``<layer>.<name>``, where the layer is the defining
module (``resolvent.apply_R``, ``kernels.KernelSpec.evaluate``); FFTs are keyed
``fft.<name>`` in layer ``fft``.  Modules bind names with ``from .x import y``,
so each wrapper is installed at every place the original object is reachable
by name: the defining module, every helmdual module that imported it, and the
package namespace.  Leaving the ``with`` block restores every original.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy.fft

#: helmdual modules, one layer each, in dependency order
LAYERS = ("grid", "kernels", "resolvent", "functional", "solver", "experiments",
          "fieldio", "runio", "cli")

#: methods wrapped on top of the module-level functions: (layer, class, names)
METHODS = (
    ("kernels", "KernelSpec", ("center_weight", "evaluate")),
    ("functional", "ProblemSpec", ("q_root",)),
    ("functional", "DualState", ("from_field",)),
)

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

#: spans whose minor page faults are counted (getrusage of this process)
FAULT_COUNTED = ("resolvent.apply_R",)

#: functions or layers whose nested calls and busy time are split by inner layer
NESTED = ("resolvent.apply_R", "experiments")

APPLY = "resolvent.apply_R"

_clock = time.perf_counter


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Summary:
    """Aggregates of one traced pass; keys are functions and layers.

    ``time`` counts only outermost spans of a key (busy time); ``self_time``
    is span time minus the time of direct child spans; ``nested_*[a][l]`` is
    the calls and busy time of layer ``l`` while ``a`` in ``NESTED`` was open.
    """

    calls: Counter
    time: Counter
    self_time: Counter
    nested_calls: defaultdict
    nested_time: defaultdict
    minflt: Counter
    fft_flops: float
    fft_bytes: int
    bytes_written: int
    points_failed: int
    seeds: list


class Tracer:
    """Context manager: install the wrappers on entry, restore on exit."""

    def __init__(self):
        self._modules = {layer: importlib.import_module(f"helmdual.{layer}")
                         for layer in LAYERS}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop all spans; call between passes."""
        #: (key, layer, parent index or -1, start, end, extra) per call; extra is
        #: the minor faults of a FAULT_COUNTED span, (size, bytes) of an FFT, else None
        self.spans: list = []
        self._stack: list[int] = []
        self.seeds: list[dict] = []
        self.bytes_written = 0
        self.points_failed = 0

    # -------------------------------------------------------------- wrappers

    def _plain(self, key: str, layer: str, fn, faults: bool = False):
        """Record one span per call; with ``faults``, its minor page faults as extra."""
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = _minflt() if faults else 0
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                extra = _minflt() - before if faults else None
                spans[idx] = (key, layer, parent, start, end, extra)

        return wrapper

    def _fft(self, name: str, fn):
        tracer, key = self, f"fft.{name}"

        def wrapper(a, *args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            out = None
            start = _clock()
            try:
                out = fn(a, *args, **kwargs)
                return out
            finally:
                end = _clock()
                # sizes for the computed (not measured) flops and bytes
                sizes = (0, 0) if out is None else (out.size, getattr(a, "nbytes", 0) + out.nbytes)
                spans[idx] = (key, "fft", parent, start, end, sizes)

        return wrapper

    def _seed(self, key: str, layer: str, fn):
        """solve_from_seed: classify the outcome by exception type and message."""
        from helmdual.functional import NotInPositiveCone
        from helmdual.solver import NoConvergence

        inner = self._plain(key, layer, fn)

        def wrapper(*args, **kwargs):
            first = len(self.spans)
            outcome = {"status": "error", "iterations": None}
            try:
                state, iterations = inner(*args, **kwargs)
                outcome = {"status": "converged", "iterations": iterations}
                return state, iterations
            except NotInPositiveCone as err:
                status = "line_search" if "step collapsed" in str(err) else "left_cone"
                outcome = {"status": status, "iterations": _iterations_at_raise(err)}
                raise
            except NoConvergence as err:
                outcome = {"status": "budget", "iterations": err.iterations}
                raise
            finally:
                outcome["spans"] = (first, len(self.spans))
                self.seeds.append(outcome)

        return wrapper

    def _write_field(self, key: str, layer: str, fn):
        inner = self._plain(key, layer, fn)

        def wrapper(path, *args, **kwargs):
            inner(path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)

        return wrapper

    def _sweep_point(self, key: str, layer: str, fn):
        inner = self._plain(key, layer, fn)

        def wrapper(*args, **kwargs):
            record = inner(*args, **kwargs)
            self.points_failed += not record.converged
            return record

        return wrapper

    def _wrapper_for(self, key: str, layer: str, fn):
        special = {
            "solver.solve_from_seed": self._seed,
            "fieldio.write_field": self._write_field,
            "experiments.sweep_point": self._sweep_point,
        }
        if key in special:
            wrapper = special[key](key, layer, fn)
        else:
            wrapper = self._plain(key, layer, fn, faults=key in FAULT_COUNTED)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------ aggregation

    def summary(self) -> Summary:
        """Aggregate the recorded spans (call after the pass)."""
        calls, busy, own, minflt = Counter(), Counter(), Counter(), Counter()
        nested_calls, nested_time = defaultdict(Counter), defaultdict(Counter)
        fft_flops, fft_bytes = 0.0, 0
        spans = self.spans
        # keys and layers open above each span; parents precede children
        above: list[frozenset] = []
        shared: dict = {}
        for key, layer, parent, start, end, extra in spans:
            if parent < 0:
                anc = frozenset()
            else:
                pkey, player = spans[parent][:2]
                base = above[parent]
                anc = shared.get((base, pkey))
                if anc is None:
                    anc = shared[(base, pkey)] = base | {pkey, player}
                own[pkey] -= end - start
                own[player] -= end - start
            above.append(anc)
            dur = end - start
            calls[key] += 1
            calls[layer] += 1
            own[key] += dur
            own[layer] += dur
            layer_outer = layer not in anc
            if key not in anc:
                busy[key] += dur
            if layer_outer:
                busy[layer] += dur
            for outer in NESTED:
                if outer in anc:
                    nested_calls[outer][layer] += 1
                    if layer_outer:
                        nested_time[outer][layer] += dur
            if extra is not None:
                if layer == "fft":
                    size, nbytes = extra
                    fft_flops += 5.0 * size * math.log2(size) if size > 1 else 0.0
                    fft_bytes += nbytes
                else:
                    minflt[key] += extra
        seeds = []
        for outcome in self.seeds:
            first, stop = outcome["spans"]
            seeds.append({
                "status": outcome["status"],
                "iterations": outcome["iterations"],
                "applications": sum(1 for s in spans[first:stop] if s[0] == APPLY),
                "wall_s": spans[first][4] - spans[first][3],
            })
        return Summary(calls, busy, own, nested_calls, nested_time, minflt,
                       fft_flops, fft_bytes, self.bytes_written, self.points_failed, seeds)

    # ---------------------------------------------------------- install/undo

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already active")
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        import helmdual

        sites = [helmdual, *self._modules.values()]
        for layer, module in self._modules.items():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrapper_for(f"{layer}.{name}", layer, obj)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is obj:
                            self._set(site, attr, wrapper)
        for layer, cls_name, names in METHODS:
            cls = getattr(self._modules[layer], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapper = self._wrapper_for(f"{layer}.{cls_name}.{name}", layer, fn)
                self._set(cls, name, classmethod(wrapper) if is_classmethod else wrapper)
        for name in FFT_NAMES:
            self._set(numpy.fft, name, self._fft(name, getattr(numpy.fft, name)))

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _iterations_at_raise(err: BaseException) -> int | None:
    """Accepted steps before a seed raised, read from the raising solver frame.

    The solver reports no count with NotInPositiveCone, so the loop index
    ``it`` is read from the innermost helmdual.solver frame of the traceback
    that has one: ``it`` accepted steps precede the iteration that raised.  A
    raise before the loop (the seed itself is outside the cone) counts as 0.
    Returns None if the traceback holds no solver frame.
    """
    tb, in_solver, iterations = err.__traceback__, False, 0
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_globals.get("__name__") == "helmdual.solver":
            in_solver = True
            iterations = frame.f_locals.get("it", iterations)
        tb = tb.tb_next
    return int(iterations) if in_solver else None


def layer_metrics(sm: Summary) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    def ratio(num, den):
        return num / den if den else 0.0

    applies = sm.calls[APPLY]
    seeds = sm.seeds
    status = Counter(s["status"] for s in seeds)
    seed_apps = sum(s["applications"] for s in seeds)
    wasted = sum(s["applications"] for s in seeds if s["status"] != "converged")
    counted = [s for s in seeds if s["iterations"] is not None]
    iterations = sum(s["iterations"] for s in counted)
    counted_apps = sum(s["applications"] for s in counted)

    return {
        "grid.fft_calls": sm.calls["fft"],
        "grid.fft_s": sm.time["fft"],
        "grid.fft_per_apply": ratio(sm.nested_calls[APPLY]["fft"], applies),
        "grid.fft_flops_computed": sm.fft_flops,
        "grid.fft_bytes_computed": sm.fft_bytes,
        "resolvent.apply_calls": applies,
        "resolvent.apply_ms": 1e3 * ratio(sm.time[APPLY], applies),
        "resolvent.apply_self_ms": 1e3 * ratio(sm.time[APPLY] - sm.nested_time[APPLY]["fft"],
                                               applies),
        "resolvent.minflt_per_apply": ratio(sm.minflt[APPLY], applies),
        "resolvent.direct_calls": sm.calls["resolvent.apply_R_direct"],
        "resolvent.direct_s": sm.time["resolvent.apply_R_direct"],
        "kernels.center_weight_calls": sm.calls["kernels.KernelSpec.center_weight"],
        "kernels.center_weight_s": sm.time["kernels.KernelSpec.center_weight"],
        "kernels.evaluate_s": sm.time["kernels.KernelSpec.evaluate"],
        "functional.q_root_calls": sm.calls["functional.ProblemSpec.q_root"],
        "functional.q_root_s": sm.time["functional.ProblemSpec.q_root"],
        "functional.from_field_s": sm.time["functional.DualState.from_field"],
        "solver.seeds_tried": len(seeds),
        "solver.seeds_converged": status["converged"],
        "solver.seed_success_frac": ratio(status["converged"], len(seeds)),
        "solver.seeds_left_cone": status["left_cone"],
        "solver.seeds_line_search": status["line_search"],
        "solver.seeds_budget": status["budget"],
        "solver.iterations": iterations,
        "solver.applications": seed_apps,
        "solver.applications_per_iteration": ratio(counted_apps, iterations),
        "solver.wasted_applications_frac": ratio(wasted, seed_apps),
        "solver.self_s": sm.self_time["solver"],
        "experiments.post_s": sm.time["experiments"] - sm.nested_time["experiments"]["solver"],
        "experiments.points_failed": sm.points_failed,
        "fieldio.bytes_written": sm.bytes_written,
        "fieldio.write_s": sm.time["fieldio.write_field"],
        "runio.write_s": sm.time["runio.write_record"],
    }
