"""The measured process: one fresh interpreter runs a whole workload.

Usage: python3 worker.py REQUEST.json RESULT.json SPAWNED

SPAWNED is the monotonic time at which the parent started this process.
REQUEST holds the source directory, the operations (CLI argument lists), the output
directory, the run length and the trace flag.  The worker imports
``steinkit.cli`` (timed from the parent's spawn as the set-up time), then
repeats whole rounds of the operations through ``steinkit.cli.main`` for
as long as another round fits in the run length and in the operation cap,
always at least one.
Only light standard-library modules are imported before ``steinkit.cli``.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_rounds(main, ops, out_root, seconds, max_ops):
    """Returns (per-round op times, per-round wall times, exit codes)."""
    op_times, round_times, codes = [], [], []
    start = time.perf_counter()
    while True:
        r = len(round_times)
        times = []
        t_round = time.perf_counter()
        for i, argv in enumerate(ops):
            out = str(Path(out_root) / f"r{r}" / f"op{i}")
            t0 = time.perf_counter()
            try:
                code = main(argv + ["--out", out])
            except Exception:  # a crash is a failed operation, as exit 1 would be
                traceback.print_exc()
                code = 1
            times.append(time.perf_counter() - t0)
            codes.append(code)
        round_times.append(time.perf_counter() - t_round)
        op_times.append(times)
        if time.perf_counter() - start + round_times[-1] > seconds or len(codes) + len(ops) > max_ops:
            return op_times, round_times, codes


def main():
    request = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, request["src"])
    import steinkit.cli

    ready = time.monotonic()
    if not Path(steinkit.cli.__file__).resolve().is_relative_to(Path(request["src"]).resolve()):
        raise SystemExit(f"steinkit was imported from {steinkit.cli.__file__}, not from {request['src']}")
    result = {"setup_s": ready - float(sys.argv[3])}

    if request["trace"]:
        from tracing import Tracer  # this script's directory is sys.path[0]

        tracer = Tracer()
        with tracer.installed():
            rounds = run_rounds(tracer.span("cli", steinkit.cli.main), request["ops"], request["out"],
                                request["seconds"], request["max_ops"])
        result["trace"] = {"calls": tracer.calls, "time": tracer.time, "self_time": tracer.self_time,
                           "counts": tracer.counts}
    else:
        rounds = run_rounds(steinkit.cli.main, request["ops"], request["out"], request["seconds"],
                            request["max_ops"])
    result["op_times"], result["round_times"], result["codes"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
