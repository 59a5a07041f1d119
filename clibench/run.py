"""Benchmark of the steinkit CLI: one workload per invocation.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command writes every input of the
workload from ``--seed`` into ``.clibench_work/``, starts one fresh
interpreter (``worker.py``) that imports ``steinkit.cli`` from ``src/`` and
runs whole rounds of the workload's operations through ``steinkit.cli.main``
for ``--seconds`` seconds, checks the outputs, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones.
See README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Plan  # noqa: E402

WORKER_TIMEOUT_S = 170
# Fewer than 40 timed operations per run, so a median is the only per-operation
# statistic with enough samples behind it.
MAX_OPS = 39
# single-threaded BLAS: the runs measure the code, not how the box shares cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PER_LAYER = (
    "kernels.median_bandwidth.calls", "kernels.median_bandwidth.s",
    "kernels.pairwise_sq_dists.calls", "kernels.pairwise_sq_dists.s", "kernels.pairwise_sq_dists.pairs",
    "svgd.stein_direction.calls", "svgd.stein_direction.s", "svgd.stein_direction.pairs",
    "svgd.apply_direction.s",
    "gfsvgd.run_gf_svgd.self_s",
    "discrete.pc_log_density.calls", "discrete.pc_log_density.s",
    "discrete.surrogate.s", "discrete.continuize_data.s",
    "steinis.leader_velocity_field.s", "steinis.field.s",
    "steinis.field_jacobian.s", "steinis.field_jacobian.rows",
    "steinis.run_steinis.self_s", "steinis.eps_halvings",
    "ksd.stein_gram.calls", "ksd.stein_gram.s", "ksd.stein_gram.pairs",
    "ksd.gf_stein_gram.s", "gof.gof_gram.s", "gof.bootstrap_null.s",
    "ksd.solve_simplex_qp.calls", "ksd.solve_simplex_qp.s", "ksd.solve_simplex_qp.capped",
    "ksd.simplex_project.calls",
    "models.score.s", "models.log_density.s",
    "cli.validate_config.calls", "cli.validate_config.s", "cli.self_s",
)


def layer_value(name: str, trace: dict) -> float:
    """Total of a per-layer metric: ``<span>.calls``, ``<span>.s`` (inclusive
    time), ``<span>.self_s`` (exclusive time), or a named counter."""
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return trace["calls"].get(span, 0)
    if kind == "s":
        return trace["time"].get(span, 0.0)
    if kind == "self_s":
        return trace["self_time"].get(span, 0.0)
    return trace["counts"].get(name, 0)


def layer_unit(name: str) -> str:
    return "s" if name.endswith((".s", ".self_s")) else "count"


def run_worker(request: dict, workdir: Path) -> dict:
    req_path, res_path = workdir / "request.json", workdir / "result.json"
    req_path.write_text(json.dumps(request))
    env = dict(os.environ, **THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(req_path), str(res_path), repr(spawned)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(res_path.read_text())


def check_outputs(plan: Plan, read, check, codes: list[int], out_root: Path, rounds: int) -> list[str]:
    """Checks round 0's outputs of the operations that succeeded, and that
    every later round reproduced them byte for byte."""
    n_ops = len(plan.ops)
    ok = [i for i in range(n_ops) if codes[i] == 0]
    errors = []
    for r in range(1, rounds):
        for i in ok:
            if codes[r * n_ops + i] != 0:
                continue
            first, again = out_root / "r0" / f"op{i}", out_root / f"r{r}" / f"op{i}"
            for f in sorted(p.name for p in first.iterdir()):
                if (first / f).read_bytes() != (again / f).read_bytes():
                    errors.append(f"round {r} op {i}: {f} differs from round 0")
    outputs = [read(plan.ops[i], out_root / "r0" / f"op{i}") for i in ok]
    return errors + check(Plan(plan.workload, [plan.ops[i] for i in ok], plan.truth), outputs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: for the benchmark's tests")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "steinkit" / "cli.py").is_file():
        print(f"error: no steinkit sources under {src}", file=sys.stderr)
        return 2
    # the build step: byte-compile once, so set-up time is that of an installed package
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2

    make, read, check = WORKLOADS[args.workload]
    work_root = ROOT / ".clibench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        plan = make(args.seed, workdir, args.size)
        out_root = workdir / "out"
        result = run_worker({"src": str(src), "ops": [op.argv for op in plan.ops], "out": str(out_root),
                             "seconds": args.seconds, "max_ops": MAX_OPS, "trace": bool(args.trace)}, workdir)
        codes = result["codes"]
        rounds = len(result["round_times"])
        errors = check_outputs(plan, read, check, codes, out_root, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    attempted = len(codes)
    if args.trace:
        metrics = {name: {"value": layer_value(name, result["trace"]) / attempted, "unit": layer_unit(name)}
                   for name in PER_LAYER}
    else:
        op_times = [t for round_times in result["op_times"] for t in round_times]
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "run_s": {"value": statistics.median(result["round_times"]), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": sum(c != 0 for c in codes), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
