"""Span tracer for one `sonolens` CLI call, installed from outside the package.

`install(tracer)` replaces public functions of the sonolens modules with
wrappers that record a span (name, start, end, parent, run id) around each
call. A function is patched where its caller looks it up: `optim`,
`baselines` and `cli` bind solver and medium functions by name at import,
so those bindings are patched in the calling module; `lensmap`, `io` and
`analysis` are called through module attributes.

Spans stay in memory and are written once, by the caller, at the end of the
run. Counters computed from returned objects (solver caches, adjoint
results, media, segment masks) are recorded inside a `bench.probe` span so
that their cost is charged to the tracer, not to the layer that was called.

`layer_metrics` turns the spans and counters into the per-layer metrics.
This module imports nothing from sonolens at import time; the benchmark
runner (`run.py`) uses `layer_metrics` without loading the package.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc

MB = 1024.0 * 1024.0
# tracemalloc is switched on only for the first call of a solver span: it
# slows every allocation, and calls of one span work on the same shapes
MEMORY_SAMPLES = 1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []        # [name, start, end, parent index]
        self.stack: list = []
        self.counters: dict = {}     # name -> list of per-call values
        self.calls: dict = {}        # name -> number of calls so far
        self.adam_returns: list = []

    def count(self, name: str, value) -> None:
        self.counters.setdefault(name, []).append(value)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, args, kwargs, probe=None, memory=False):
        n = self.calls.get(name, 0)
        self.calls[name] = n + 1
        sample = memory and n < MEMORY_SAMPLES and not tracemalloc.is_tracing()
        idx = self._open(name)
        try:
            if sample:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if sample:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
        finally:
            self._close(idx)
        if sample:
            self.count(name + ".peak_bytes", peak)
        if probe is not None:
            pidx = self._open("bench.probe")
            try:
                probe(self, result, idx)
            finally:
                self._close(pidx)
        return result

    def wrap(self, name: str, fn, probe=None, memory=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, probe, memory)

        return wrapper

    def record(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": self.counters,
            "adam_returns": self.adam_returns,
        }


# ------------------------------------------------------------------ probes
# Each probe reads what the wrapped call returned and records counts; none
# of them mutates the returned objects.

def _unique_nbytes(arrays) -> int:
    seen, total = set(), 0
    for a in arrays:
        if a is not None and id(a) not in seen:
            seen.add(id(a))
            total += a.nbytes
    return total


def _probe_forward(tracer: Tracer, result, idx) -> None:
    import numpy as np

    cache = result[1]
    sweeps = cache.sweeps
    tracer.count("solver.sweeps", len(sweeps))
    # each visited slice after the first costs one fft2/ifft2 pair (_diffract)
    tracer.count("solver.fft_pairs",
                 sum(v is not None for sw in sweeps for v in sw.v))
    arrays = [cache.H, cache.c, cache.rho, cache.att_np,
              cache.lens_dc, cache.lens_drho, cache.lens_datt]
    for sw in sweeps:
        arrays += sw.u + sw.v + list(sw.inject.values())
    tracer.count("solver.cache_bytes", _unique_nbytes(arrays))
    grid = cache.grid
    tracer.count("solver.plane", [grid.nx, grid.ny])
    if len(sweeps) > 1:
        def energy(sw):
            return sum(float(np.vdot(u, u).real) for u in sw.u if u is not None)
        tracer.count("solver.refl_energy_frac",
                     energy(sweeps[-1]) / energy(sweeps[0]))
    else:
        tracer.count("solver.refl_energy_frac", 0.0)


def _probe_adjoint(tracer: Tracer, result, idx) -> None:
    computed = result.c.size + result.rho.size + result.att_np.size
    useful = 0 if result.occupancy is None else result.occupancy.size
    tracer.count("solver.grad_useful_frac", useful / computed)


def _probe_medium(tracer: Tracer, result, idx) -> None:
    import numpy as np

    Z = result.rho * result.c
    changes = np.any(Z[:, :, 1:] != Z[:, :, :-1], axis=(0, 1))
    tracer.count("medium.interface_frac", float(changes.mean()))


def _probe_segment(tracer: Tracer, result, idx) -> None:
    tracer.count("analysis.foci_found_frac",
                 sum(bool(m.any()) for m in result) / len(result))


def _probe_adam(tracer: Tracer, result, idx) -> None:
    tracer.adam_returns.append(tracer.spans[idx][2])


# ----------------------------------------------------------------- install

def install(tracer: Tracer) -> None:
    """Patch the sonolens call sites the CLI goes through."""
    from sonolens import analysis, baselines, cli, io, lensmap, medium, optim

    def patch(owner, attr, name, probe=None, memory=False):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), probe, memory))

    # solver: bound by name in optim, baselines and cli
    patch(optim, "propagate_with_lens", "solver.forward", _probe_forward, True)
    patch(optim, "propagate_adjoint", "solver.adjoint", _probe_adjoint, True)
    patch(baselines, "propagate", "solver.forward", _probe_forward, True)
    patch(cli, "propagate", "solver.forward", _probe_forward, True)
    # medium: cli binds the medium constructors by name; cli._sweep_case imports
    # embed_lens from sonolens.medium at call time
    patch(cli, "make_skull_phantom", "medium.build", _probe_medium)
    patch(cli, "make_homogeneous", "medium.build", _probe_medium)
    patch(baselines, "embed_lens", "medium.embed")
    patch(medium, "embed_lens", "medium.embed")
    # lensmap, optim, baselines, analysis, io: module attributes
    for attr in ("forward", "backward", "binarize", "fabrication_filter"):
        patch(lensmap, attr, "lensmap." + attr)
    patch(optim, "optimize_lens_geometry", "optim.design")
    patch(optim, "loss_and_gradient", "optim.loss")
    patch(optim.Adam, "step", "optim.adam", _probe_adam)
    patch(baselines, "fabricate_and_simulate", "baselines.fabricate")
    patch(analysis, "segment_foci", "analysis.segment", _probe_segment)
    patch(analysis, "focal_metrics", "analysis.metrics")
    patch(analysis, "cross_domain_psnr", "analysis.psnr")
    patch(analysis, "perturb_lens", "analysis.perturb")
    patch(io, "thickness_to_stl", "io.stl")
    patch(io, "save_field", "io.field")
    patch(io, "thickness_to_csv", "io.table")
    patch(io, "thickness_to_pgm", "io.table")
    patch(optim.LossReport, "to_csv", "io.table")
    patch(analysis.FocalReport, "to_json", "io.table")


# ----------------------------------------------------------------- metrics

def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _p50(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced CLI call.

    A layer that did not run in this workload reports 0 (its call count is
    0 as well), since every workload prints every metric.
    """
    spans = record["spans"]
    counters = record["counters"]
    own = self_times(spans)
    by_name: dict = {}
    for (name, *_), t in zip(spans, own):
        by_name.setdefault(name, []).append(t)

    def p50(name):
        return _p50(by_name.get(name, []))

    def counter(name):
        return _p50(counters.get(name, []))

    def peak_mb(name):
        return max(counters.get(name + ".peak_bytes", [0])) / MB

    returns = record["adam_returns"]
    intervals = [b - a for a, b in zip(returns, returns[1:])]
    forward_s, adjoint_s = p50("solver.forward"), p50("solver.adjoint")
    return {
        "solver.forward_s": forward_s,
        "solver.forward_calls": len(by_name.get("solver.forward", [])),
        "solver.adjoint_s": adjoint_s,
        "solver.adjoint_calls": len(by_name.get("solver.adjoint", [])),
        "solver.adjoint_over_forward": adjoint_s / forward_s if forward_s else 0.0,
        "solver.grad_useful_frac": counter("solver.grad_useful_frac"),
        "solver.fft_pairs": counter("solver.fft_pairs"),
        "solver.sweeps": counter("solver.sweeps"),
        "solver.cache_mb": counter("solver.cache_bytes") / MB,
        "solver.forward_peak_mb": peak_mb("solver.forward"),
        "solver.adjoint_peak_mb": peak_mb("solver.adjoint"),
        "solver.refl_energy_frac": counter("solver.refl_energy_frac"),
        "medium.interface_frac": counter("medium.interface_frac"),
        "medium.build_s": p50("medium.build"),
        "medium.embed_s": p50("medium.embed"),
        "optim.iter_s_p50": _p50(intervals),
        "optim.iter_s_p90": _p90(intervals),
        "optim.iter_samples": len(intervals),
        "optim.loss_s": p50("optim.loss"),
        "optim.adam_s": p50("optim.adam"),
        "optim.iterations": len(by_name.get("optim.adam", [])),
        "lensmap.forward_s": p50("lensmap.forward"),
        "lensmap.backward_s": p50("lensmap.backward"),
        "baselines.fabricate_s": p50("baselines.fabricate"),
        "analysis.segment_s": p50("analysis.segment"),
        "analysis.metrics_s": p50("analysis.metrics"),
        "analysis.psnr_s": p50("analysis.psnr"),
        "analysis.perturb_s": p50("analysis.perturb"),
        "analysis.foci_found_frac": _mean(
            counters.get("analysis.foci_found_frac", [])),
        "io.stl_s": p50("io.stl"),
        "io.field_s": p50("io.field"),
        "io.table_s": p50("io.table"),
        "cli.self_s": p50("cli.main"),
    }
