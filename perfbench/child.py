"""One measured `sonolens` CLI call in a fresh process.

    python3 perfbench/child.py RESULT_JSON SPAWN_MONOTONIC TRACE -- [CLI_ARGS...]

SPAWN_MONOTONIC is the parent's `time.monotonic()` just before it started
this process, so `setup_s` covers interpreter start-up and the import of
`sonolens.cli`. With TRACE = 1 the call runs under the span tracer of
`tracer.py`. The result (set-up and wall time, peak RSS, exit code, and the
spans when traced) is written to RESULT_JSON; the CLI's own output goes to
stdout and stderr unchanged. Without CLI_ARGS the process only imports
`sonolens.cli`, to sample the set-up time.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, spawned, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT SPAWN TRACE -- CLI_ARGS...")
    cli_args = sys.argv[5:]

    import sonolens.cli as cli

    setup_s = time.monotonic() - spawned
    out = {"setup_s": setup_s}
    if not cli_args:
        code = 0  # set-up probe: import only
    elif trace == "1":
        import tracer

        tr = tracer.Tracer(run_id=" ".join(cli_args))
        tracer.install(tr)
        t0 = time.perf_counter()
        code = tr.call("cli.main", cli.main, (cli_args,), {})
        out["wall_s"] = time.perf_counter() - t0
        out["trace"] = tr.record()
        out["fft_floor_s"] = fft_floor(tr)
    else:
        t0 = time.perf_counter()
        code = cli.main(cli_args)
        out["wall_s"] = time.perf_counter() - t0
    out["exit_code"] = code
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


def fft_floor(tr, repeats: int = 5):
    """scipy.fft complex128 time for one forward pass's FFT pairs.

    Uses the plane shape and the median pair count of the traced forward
    calls; returns None when the run made no forward call.
    """
    import statistics

    import numpy as np
    import scipy.fft

    planes = tr.counters.get("solver.plane")
    if not planes:
        return None
    pairs = int(statistics.median(tr.counters["solver.fft_pairs"]))
    rng = np.random.default_rng(0)
    shape = tuple(planes[0])
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(pairs):
            u = scipy.fft.ifft2(scipy.fft.fft2(u))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
