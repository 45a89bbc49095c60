"""Span tracing of vfsim's layers from outside the package.

``install`` replaces every public function of the traced modules, at every
name a vfsim module binds it under, with a wrapper that records one span
per call: (name, start, end, parent).  ``energies``, for example, is bound
in both ``vfsim.filaments`` and ``vfsim.runner``, and both names lead to
the same wrapper.  ``numpy.fft`` and ``scipy.fft`` fft/ifft are wrapped
too, and record a ``grid.fft`` span only when a vfsim frame calls them.
Spans stay in memory until the run ends; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("filaments", "grid", "reduced", "point_vortex", "traveling_wave", "runner")
_FFT_MODULES = ("numpy.fft", "scipy.fft")
_FFT_NAMES = ("fft", "ifft")
WRITERS = (
    "runner.write_status",
    "grid.write_fields_csv",
    "filaments.write_reports_csv",
    "point_vortex.write_trajectory_csv",
    "reduced.write_energy_csv",
)


class Tracer:
    """Records nested spans in call order; index into ``spans`` is the id."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, vfsim_callers_only: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if vfsim_callers_only and not sys._getframe(1).f_globals.get(
                "__name__", ""
            ).startswith("vfsim."):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap the layer functions and the FFTs in every loaded vfsim module."""
        targets = {f"vfsim.{name}" for name in LAYERS}
        vfsim_modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name.startswith("vfsim.") and mod is not None
        ]
        replace = {}
        for mod in vfsim_modules:
            for obj in vars(mod).values():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ in targets
                    and not obj.__name__.startswith("_")
                    and id(obj) not in replace
                ):
                    layer = obj.__module__.removeprefix("vfsim.")
                    replace[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
        for modname in _FFT_MODULES:
            fft_mod = sys.modules.get(modname)
            if fft_mod is None:
                continue
            for attr in _FFT_NAMES:
                orig = getattr(fft_mod, attr)
                wrapper = self.wrap("grid.fft", orig, vfsim_callers_only=True)
                replace[id(orig)] = wrapper
                self._patch(fft_mod, attr, wrapper)
        for mod in vfsim_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and not attr.startswith("__"):
                    self._patch(mod, attr, replace[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the traced code runs in one
    thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[i]
    return out


def layer_metrics(spans: list, steps: int) -> dict[str, float]:
    """The per-layer metrics of one traced round.

    ``steps`` is the number of completed filament split steps, used for
    ``filaments.evolve.step_us``; it is 0 on workloads without ``evolve``.
    """
    agg = summarize(spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    evolve_self = get("filaments.evolve", "self_s")
    metrics = {
        "filaments.evolve.self_s": evolve_self,
        "filaments.evolve.step_us": 1e6 * evolve_self / steps if steps else 0.0,
        "filaments.energies.calls": get("filaments.energies", "calls"),
        "filaments.energies.s": get("filaments.energies", "s"),
        "filaments.growth_monitors.s": get("filaments.growth_monitors", "s"),
        "grid.fft.calls": get("grid.fft", "calls"),
        "grid.fft.s": get("grid.fft", "s"),
        "grid.linear_propagate.calls": get("grid.linear_propagate", "calls"),
        "grid.linear_propagate.self_s": get("grid.linear_propagate", "self_s"),
        "grid.derivative.calls": get("grid.derivative", "calls"),
        "grid.derivative.s": get("grid.derivative", "s"),
        "reduced.step_bm.calls": get("reduced.step_bm", "calls"),
        "reduced.step_bm.self_s": get("reduced.step_bm", "self_s"),
        "reduced.energy_sample.s": get("reduced.energy_sample", "s"),
        "point_vortex.integrate.s": get("point_vortex.integrate", "s"),
        "traveling_wave.build_wave.calls": get("traveling_wave.build_wave", "calls"),
    }
    for name in ("find_sigma1", "solve_eta", "solve_theta", "assemble_wave",
                 "residual_tw"):
        metrics[f"traveling_wave.{name}.s"] = get(f"traveling_wave.{name}", "s")
    metrics["runner.write.s"] = sum(get(name, "s") for name in WRITERS)
    metrics["runner.run.self_s"] = get("runner.run", "self_s")
    metrics["trace.spans"] = len(spans)
    metrics["trace.self_sum_s"] = sum(entry["self_s"] for entry in agg.values())
    return metrics
