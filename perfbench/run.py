"""sonolens benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each CLI call runs in a fresh child
process (`child.py`), one at a time, with BLAS/OpenMP pinned to one thread.
The inputs are the configs under `demos/` and `perfbench/`; `--seed` is
forwarded to the CLI as `--seed`, so the same seed gives the same inputs
and, the CLI being bitwise reproducible, the same output files.

--trace 0 (end-to-end metrics, no tracing): the workload's CLI call repeats
until the next call would end more than half a call after S seconds (it runs
at least once). Design
workloads then run `sonolens gradcheck` on their config, outside `wall_s`.
Extra processes that only import `sonolens.cli` bring the set-up samples to
at least SETUP_SAMPLES. Every figure is the median over the calls of the run.

--trace 1 (per-layer metrics): one untraced and one traced call of the same
command. Their output files must be bitwise identical; the ratio of their
wall times is the tracing overhead. gradcheck runs on every workload here
to report `solver.grad_rel_err`.

Each call passes a correctness gate; calls (or sweep cases) that fail it
count into `failed`. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md for
why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

# every child of one benchmark run must finish inside this many seconds
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Workload:
    cli: list           # CLI arguments without --seed/--out
    config: str         # gradcheck config, relative to the checkout root
    gradcheck: bool     # run gradcheck in every run (design workloads)
    # foci that report.json must list; 0 on the order-4 skull, where the
    # global peak sits in a reflection hot spot at the far inner bone
    # surface and no target reaches -6 dB of it (see README.md)
    min_foci: int = 0


WATER_CFG = "demos/single_focus_water.cfg"
WATER_GRADCHECK_CFG = "perfbench/water_gradcheck.cfg"
SKULL_CFG = "perfbench/skull_r4.cfg"
WORKLOADS = {
    "design-water": Workload(
        ["design", "--config", WATER_CFG], WATER_GRADCHECK_CFG, True,
        min_foci=1),
    "design-skull-r4": Workload(
        ["design", "--config", SKULL_CFG], SKULL_CFG, True),
    "sweep-skull-r4": Workload(
        ["sweep", "--config", SKULL_CFG, "--axis", "perturbation",
         "--jobs", "1", "--lens", "perfbench/base_lens.csv"], SKULL_CFG, False),
}
REQUIRED = ["src/sonolens/cli.py", WATER_CFG, WATER_GRADCHECK_CFG, SKULL_CFG,
            "perfbench/base_lens.csv"]


@dataclass
class Call:
    """One finished child process."""

    code: int
    seconds: float                  # process lifetime seen by run.py
    stdout: str
    stderr: str
    result: dict = field(default_factory=dict)


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.n = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in THREAD_VARS:
            self.env[var] = "1"

    def child(self, cli_args, trace=False) -> Call:
        self.n += 1
        result_path = self.work / f"result{self.n}.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return Call(-1, 0.0, "", "benchmark time budget exhausted")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               repr(t0), "1" if trace else "0", "--", *cli_args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            return Call(-1, time.monotonic() - t0, "", f"timed out: {exc}")
        call = Call(proc.returncode, time.monotonic() - t0,
                    proc.stdout, proc.stderr)
        if proc.returncode == 0 and result_path.exists():
            call.result = json.loads(result_path.read_text())
            call.code = call.result.get("exit_code", 0)
        elif proc.returncode == 0:
            call.code = -1
        if call.code != 0:
            print(f"child {' '.join(cli_args)} exited {call.code}:\n"
                  f"{call.stderr[-2000:]}", file=sys.stderr)
        return call

    def cli(self, wl: Workload, seed: int, trace=False) -> tuple[Call, Path]:
        out = self.work / f"out{self.n + 1}"  # numbered like its result file
        args = [*wl.cli, "--seed", str(seed), "--out", str(out)]
        return self.child(args, trace), out

    def gradcheck(self, wl: Workload, seed: int):
        """(call, max relative error or None, passed within tolerance)."""
        call = self.child(["gradcheck", "--config", wl.config,
                           "--seed", str(seed)])
        m = re.search(r"max relative error (\S+) \(tolerance (\S+),",
                      call.stdout)
        if m is None:
            return call, None, False
        err, tol = float(m.group(1)), float(m.group(2))
        return call, err, call.code == 0 and math.isfinite(err) and err <= tol


def load_config(path: str) -> dict:
    """A config file as the CLI reads it (whole-line // comments only)."""
    lines = (ROOT / path).read_text().splitlines()
    return json.loads("\n".join(
        ln for ln in lines if not ln.lstrip().startswith("//")))


# ------------------------------------------------------------ output gates

def _focus_voxels(out: Path):
    snap = json.loads((out / "resolved_config.json").read_text())
    g = snap["grid"]
    centers = np.atleast_2d(snap["target"]["focus_centers_mm"]) * 1e-3
    steps = np.array([g["dx_m"], g["dy_m"], g["dz_m"]])
    return [tuple(int(round(v)) for v in c / steps) for c in centers]


def gate_design(out: Path, min_foci: int) -> tuple[list, dict]:
    """Problems with a `sonolens design` output directory, and its figures."""
    problems = []
    hist = np.loadtxt(out / "loss_history.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    total = hist[:, 1]
    if not np.all(np.isfinite(hist)):
        problems.append("loss history is not finite")
    elif not total[-1] < total[0]:
        problems.append(f"loss did not decrease: {total[0]} -> {total[-1]}")
    report = json.loads((out / "report.json").read_text())
    foci = report["foci"]
    if len(foci) < min_foci or report["n_components"] != len(foci):
        problems.append(f"report.json lists {len(foci)} foci "
                        f"({report['n_components']} components)")
    psnr = report["psnr_cross_domain"]
    if psnr is None or not math.isfinite(psnr):
        problems.append(f"cross-domain PSNR is {psnr}")
    seeds = _focus_voxels(out)
    rows = np.loadtxt(out / "foci.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] != len(seeds):
        problems.append(f"foci.csv has {rows.shape[0]} rows for "
                        f"{len(seeds)} targets")
    header = json.loads((out / "field_fabrication.json").read_text())
    raw = np.fromfile(out / "field_fabrication.raw", dtype="<f4")
    dims = tuple(header["dims"])
    if raw.size != 2 * math.prod(dims) or not np.all(np.isfinite(raw)):
        problems.append("fabrication field is malformed or not finite")
        peak = None
    else:
        amp = np.hypot(raw[0::2], raw[1::2]).reshape(dims)
        peak = max(float(amp[s]) for s in seeds)
    stl = (out / "lens.stl").read_bytes()
    n_tri = int.from_bytes(stl[80:84], "little") if len(stl) >= 84 else -1
    if n_tri <= 0 or len(stl) != 84 + 50 * n_tri:
        problems.append("lens.stl is malformed")
    return problems, {"focus_peak": peak, "final_loss": float(total[-1]),
                      "psnr_db": psnr}


def gate_sweep(out: Path, n: int) -> tuple[int, int, list]:
    """(cases attempted, cases failed, finite peak pressures) of a sweep."""
    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "sweep.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    peaks = [float(r[1]) for r in rows if len(r) == 5]
    good = [p for p in peaks if math.isfinite(p)]
    if len(rows) != n or len(manifest["cases"]) != n:
        return n, n, good
    return n, len(peaks) - len(good) + (len(rows) - len(peaks)), good


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    setup: list = field(default_factory=list)

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def checked_call(runner: Runner, wl: Workload, seed: int, tally: Tally,
                 trace=False):
    """Run the workload's CLI call once, gate it, and return its figures."""
    call, out = runner.cli(wl, seed, trace)
    if "setup_s" in call.result:
        tally.setup.append(call.result["setup_s"])
    sweep = wl.cli[0] == "sweep"
    cases = load_config(SKULL_CFG)["sweep"]["realizations"] if sweep else 1
    if call.code != 0:
        tally.add(cases, cases)
        return call, out, None
    try:
        if sweep:
            n, bad, peaks = gate_sweep(out, cases)
            tally.add(n, bad)
            figures = {"focus_peak": statistics.median(peaks) if peaks
                       else None}
        else:
            problems, figures = gate_design(out, wl.min_foci)
            tally.add(1, 1 if problems else 0)
            for p in problems:
                print(f"gate: {p}", file=sys.stderr)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"gate: unreadable output in {out}: {exc}", file=sys.stderr)
        tally.add(1, 1)
        return call, out, None
    return call, out, figures


def checked_gradcheck(runner: Runner, wl: Workload, seed: int,
                      tally: Tally) -> float | None:
    call, err, passed = runner.gradcheck(wl, seed)
    if "setup_s" in call.result:
        tally.setup.append(call.result["setup_s"])
    tally.add(1, 0 if passed else 1)
    return err


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


# ---------------------------------------------------------------- the runs

def run_untraced(runner, wl, seed, seconds, tally) -> dict:
    walls, rss, peaks = [], [], []
    start = time.monotonic()
    while True:
        call, out, figures = checked_call(runner, wl, seed, tally)
        if call.result:
            walls.append(call.result["wall_s"])
            rss.append(call.result["peak_rss_mb"])
        if figures is not None and figures["focus_peak"] is not None:
            peaks.append(figures["focus_peak"])
        shutil.rmtree(out, ignore_errors=True)
        # stop when the next call would overrun the run by more than half
        # its length
        elapsed = time.monotonic() - start
        if call.code != 0 or elapsed + call.seconds / 2 > seconds:
            break
    if wl.gradcheck:
        checked_gradcheck(runner, wl, seed, tally)
    while len(tally.setup) < SETUP_SAMPLES:
        probe = runner.child([])
        if probe.code != 0:
            break
        tally.setup.append(probe.result["setup_s"])
    return {
        "setup_s": _median(tally.setup),
        "wall_s": _median(walls),
        "peak_rss_mb": _median(rss),
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "focus_peak": _median(peaks),
    }


def run_traced(runner, wl, seed, tally) -> dict:
    err = checked_gradcheck(runner, wl, seed, tally)
    plain, plain_out, _ = checked_call(runner, wl, seed, tally)
    traced, traced_out, figures = checked_call(runner, wl, seed, tally, True)
    if not (plain.result and traced.result and figures is not None):
        return {}
    if not same_files(plain_out, traced_out):
        print("gate: traced and untraced outputs differ", file=sys.stderr)
        tally.add(1, 1)
    record = traced.result["trace"]
    m = tracer.layer_metrics(record)
    floor = traced.result["fft_floor_s"] or 0.0
    own = tracer.self_times(record["spans"])
    m.update({
        "solver.fft_floor_s": floor,
        "solver.forward_over_floor": m["solver.forward_s"] / floor if floor else 0.0,
        "solver.grad_rel_err": err if err is not None else float("nan"),
        "optim.final_loss": figures.get("final_loss", 0.0),
        "analysis.psnr_db": figures.get("psnr_db", 0.0),
        "io.bytes_written": sum(p.stat().st_size for p in traced_out.iterdir()),
        "trace.overhead_frac": traced.result["wall_s"] / plain.result["wall_s"] - 1.0,
        "trace.span_cover_frac": sum(own) / traced.result["wall_s"],
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a sonolens checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    tally = Tally()
    try:
        if args.trace:
            metrics = run_traced(runner, wl, args.seed, tally)
        else:
            metrics = run_untraced(runner, wl, args.seed, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if not metrics or bad:
        print(f"error: no measurement for {', '.join(bad) or 'any metric'}",
              file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in _declared(args.trace)}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _declared(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
