"""Before/after benchmark of two checkouts, written as one BENCH_*.json.

    python3 scripts/bench_pairs.py --base ../steinkit-parent --change . \\
        --seeds 201-210 --out BENCH_0.json

For each clibench workload and seed, runs ``clibench/run.py --trace 0`` once
in each checkout for the ``run_seconds`` of ``BENCHMARK.json``, alternating
which side goes first, so that slow stretches of the host fall on both sides
alike.  Records every run's metrics, then per metric the median and
interquartile range of each side and the number of pairs that the change won.
Each end-to-end metric of ``BENCHMARK.json`` also records its ``bound`` and
whether the change's median is worse than the base's by more than that bound,
read as a fraction of the base's median (``breach``); every breach is printed
on stderr at the end.  Then times acceptance criteria 4 and 5 in each checkout (``pytest
--durations=0``, with single-threaded BLAS as in clibench).  The machine
(cores, Python, numpy/scipy/BLAS versions) goes into the file as well.

With ``--tier1`` it runs neither: it runs the whole Tier-1 suite once in
each checkout, base first, and records every test's duration (setup, call
and teardown summed) with the suite's closing line:

    python3 scripts/bench_pairs.py --base ../steinkit-parent --change . \\
        --tier1 --out BENCH_1.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "clibench"))
from run import THREAD_ENV, WORKLOADS  # noqa: E402

CRITERIA = ("tests/test_acceptance.py::test_criterion_4_steinis_normalization_constant",
            "tests/test_acceptance.py::test_criterion_5_steinis_mse_rate")


def clibench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, "clibench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **THREAD_ENV}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def criteria_durations(tree: Path) -> dict:
    out = _pytest(tree, *CRITERIA)
    times = {m[2]: float(m[1]) for m in re.finditer(r"([\d.]+)s call\s+\S+::(\S+)", out.stdout)}
    return {"returncode": out.returncode, "call_s": times}


def tier1_durations(tree: Path) -> dict:
    out = _pytest(tree, "--durations-min=0", "--continue-on-collection-errors")
    times = defaultdict(float)
    for m in re.finditer(r"([\d.]+)s (?:setup|call|teardown)\s+(\S+)", out.stdout):
        times[m[2]] += float(m[1])
    return {"returncode": out.returncode, "result": out.stdout.strip().splitlines()[-1],
            "total_s": round(sum(times.values()), 2), "test_s": dict(sorted(times.items()))}


def summarize(base: list, change: list) -> dict:
    b, c = np.array(base), np.array(change)

    def iqr(a):
        q1, q3 = np.percentile(a, [25, 75])
        return float(q3 - q1)

    return {"base_median": float(np.median(b)), "base_iqr": iqr(b),
            "change_median": float(np.median(c)), "change_iqr": iqr(c),
            "change_lower_in": int(np.sum(c < b)), "pairs": len(b)}


def mark_breaches(summary: dict, end_to_end: list) -> list:
    """Add ``bound`` and ``breach`` to each end-to-end metric of one workload's
    summary; return the messages of the breaches."""
    messages = []
    for spec in end_to_end:
        s = summary.get(spec["name"])
        if s is None:
            continue
        base, change = s["base_median"], s["change_median"]
        worse = change - base if spec["better"] == "lower" else base - change
        s["bound"] = spec["bound"]
        s["breach"] = bool(worse > spec["bound"] * abs(base))
        if s["breach"]:
            messages.append(f"{spec['name']}: median {base:.4g} -> {change:.4g} {spec['unit']}, "
                            f"worse by {worse / abs(base):.1%}, bound {spec['bound']:.0%}")
    return messages


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(), "blas_threads": 1}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", help="first-last, inclusive (required without --tier1)")
    ap.add_argument("--tier1", action="store_true", help="time every Tier-1 test instead")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.tier1:
        result = {"machine": machine(), "tier1": {side: tier1_durations(getattr(args, side))
                                                  for side in ("base", "change")}}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        return
    if args.seeds is None:
        ap.error("--seeds is required without --tier1")
    first, last = (int(s) for s in args.seeds.split("-"))
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    result = {"machine": machine(), "seconds": seconds, "workloads": {}}
    breaches = []
    for workload in WORKLOADS:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(range(first, last + 1)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = clibench(getattr(args, side), workload, seed, seconds)
                runs[side].append({"seed": seed, **run})
                print(workload, seed, side, json.dumps(run), file=sys.stderr)
        metrics = sorted(runs["base"][0]["metrics"])
        summary = {m: summarize([r["metrics"][m]["value"] for r in runs["base"]],
                                [r["metrics"][m]["value"] for r in runs["change"]]) for m in metrics}
        breaches += [f"{workload} {msg}" for msg in mark_breaches(summary, bench["end_to_end"])]
        result["workloads"][workload] = {"summary": summary, "runs": runs}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    result["criteria_4_5"] = {side: criteria_durations(getattr(args, side)) for side in ("base", "change")}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for line in breaches:
        print(f"bound breached: {line}", file=sys.stderr)


if __name__ == "__main__":
    main()
