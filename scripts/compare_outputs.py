"""Byte-for-byte comparison of the CLI outputs of two checkouts.

    python3 scripts/compare_outputs.py --base ../steinkit-parent --change .

Runs a fixed list of small configs, covering every subcommand, through
``python -m steinkit.cli`` in each checkout, with ``PYTHONPATH=<tree>/src``
and clibench's single-threaded BLAS settings.  The two runs of a config go
side by side, one process per checkout.  For each config it compares the
exit code, the ``error:`` line and every output file (``summary.json``,
``metrics.csv``, ``samples.csv``, ``report.json``, ``rates.csv``) byte for
byte.  Prints one line per config and exits 1 if any config differs.  The
data files that some configs read are written here, once, and both
checkouts read the same copy.  The whole list takes about 20 s on two
cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "clibench"))
from run import THREAD_ENV  # noqa: E402

OUTPUT_FILES = ("summary.json", "metrics.csv", "samples.csv", "report.json", "rates.csv")

GAUSS_2D = {"type": "gaussian", "mu": [0.0, 0.0], "sigma": 1.0}
GMM_2D = {"type": "gmm", "weights": [0.3, 0.7], "means": [[-1.0, 0.5], [1.5, -0.5]], "sigma": 0.8,
          "normalized": True, "log_scale": math.log(2.0)}
ISING_3X3 = {"type": "ising-grid", "rows": 3, "cols": 3, "theta": 0.2}
RBM_6 = {"type": "bernoulli-rbm-random", "dims": 6, "hidden": 3}
CATEGORICAL = {"type": "categorical", "states": [-1.0, 0.0, 2.0], "masses": [0.2, 0.5, 0.3]}
Q0_2D = {"mu": [0.0, 0.0], "sigma": 2.0}
STEINIS = {"model": GMM_2D, "q0": Q0_2D, "n_leaders": 50, "n_followers": 50, "iters": 40,
           "schedule": {"mode": "decay", "eps": 0.3, "decay_exponent": 0.5}}
DISCRETE = {"model": ISING_3X3, "n": 100, "iters": 100, "schedule": {"mode": "adam", "eps": 0.05}}
GOF_MODEL_DATA = {"model": ISING_3X3, "n": 200}
GOF_PATH_DATA = {"path": "GOF_DATA"}

# (name, subcommand, seed, config); "GOF_DATA" and "POINTS_DATA" stand for the data files written below
CONFIGS = [
    ("svgd", "svgd", 1, {"model": GMM_2D, "n": 50, "iters": 60, "metric_every": 10}),
    ("svgd-constant-fixed-h", "svgd", 2, {"model": GAUSS_2D, "n": 40, "iters": 40, "kernel": {"bandwidth": 0.5},
                                          "schedule": {"mode": "constant", "eps": 0.05}}),
    ("svgd-diverges", "svgd", 1, {"model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0}, "n": 5, "iters": 3,
                                  "schedule": {"mode": "constant", "eps": 1e9}}),
    ("gfsvgd", "gfsvgd", 3, {"model": GMM_2D, "surrogate": {"type": "gaussian", "mu": [0.0, 0.0], "sigma": 3.0},
                             "n": 50, "iters": 60}),
    ("gfsvgd-rank", "gfsvgd", 3, {"model": GMM_2D, "n": 50, "iters": 40, "weight_mode": "rank"}),
    ("agf-svgd", "agf-svgd", 4, {"model": GMM_2D, "p0": Q0_2D, "n": 40, "n_temps": 20}),
    ("steinis-auto", "steinis", 5, {**STEINIS, "det_mode": "auto"}),
    ("steinis-exact", "steinis", 5, {**STEINIS, "det_mode": "exact"}),
    ("steinis-fixed-h", "steinis", 6, {**STEINIS, "kernel": {"bandwidth": 1.0}}),
    # a tight target and eps 0.5: most steps fold and are taken at a halved eps
    ("steinis-halving", "steinis", 3, {"model": {"type": "gaussian", "mu": [0.0, 0.0], "sigma": 0.1},
                                       "q0": {"mu": [0.0, 0.0], "sigma": 1.0}, "n_leaders": 20, "n_followers": 15,
                                       "iters": 12, "schedule": {"mode": "constant", "eps": 0.5},
                                       "det_mode": "exact"}),
    ("steinis-singular", "steinis", 0, {"model": {"type": "gaussian", "mu": [0.0], "sigma": 0.01},
                                        "q0": {"mu": [0.0], "sigma": 1.0}, "n_leaders": 10, "n_followers": 10,
                                        "iters": 5, "schedule": {"mode": "constant", "eps": 5.0},
                                        "det_mode": "exact"}),
    ("path-logz", "path-logz", 7, {"model": GMM_2D, "q0": Q0_2D, "n": 40, "iters": 30, "m0": 2000}),
    ("discrete-base", "discrete-sample", 8, {**DISCRETE, "surrogate_mode": "base"}),
    ("discrete-relaxed", "discrete-sample", 8, {**DISCRETE, "surrogate_mode": "relaxed"}),
    ("discrete-ising", "discrete-sample", 8, {**DISCRETE, "surrogate_mode": "ising"}),
    ("discrete-rbm-relaxed", "discrete-sample", 8, {**DISCRETE, "model": RBM_6, "surrogate_mode": "relaxed"}),
    ("discrete-categorical", "discrete-sample", 8, {**DISCRETE, "model": CATEGORICAL}),
    ("gof-base-model-data", "gof", 9, {"model": ISING_3X3, "data": GOF_MODEL_DATA, "m": 300,
                                       "surrogate_mode": "base"}),
    ("gof-base-path-data", "gof", 9, {"model": ISING_3X3, "data": GOF_PATH_DATA, "m": 300,
                                      "surrogate_mode": "base"}),
    ("gof-relaxed-model-data", "gof", 9, {"model": ISING_3X3, "data": GOF_MODEL_DATA, "m": 300,
                                          "surrogate_mode": "relaxed", "kernel_h": 2.0}),
    ("gof-relaxed-path-data", "gof", 9, {"model": ISING_3X3, "data": GOF_PATH_DATA, "m": 300,
                                         "surrogate_mode": "relaxed"}),
    ("gof-ising-lam", "gof", 9, {"model": ISING_3X3, "data": GOF_MODEL_DATA, "m": 300,
                                 "surrogate_mode": "ising", "lam": 2.5}),
    ("bbis-median", "bbis", 10, {"model": GMM_2D, "points": {"mu": [0.0, 0.0], "sigma": 2.0, "n": 60},
                                 "max_iter": 3000}),
    ("bbis-fixed-h-path", "bbis", 10, {"model": GMM_2D, "points": {"path": "POINTS_DATA"}, "kernel_h": 1.0,
                                       "surrogate": {"type": "gaussian", "mu": [0.0, 0.0], "sigma": 3.0},
                                       "max_iter": 3000}),
    ("aggregate", "aggregate", 11, {"dim": 2, "machines": 4, "n_grid": [20, 40], "trials": 4}),
    ("aggregate-all-methods", "aggregate", 11, {"dim": 2, "machines": 4, "n_grid": [20, 40], "trials": 4,
                                                "methods": ["kl-naive", "kl-control", "kl-weighted", "linear"]}),
    ("aggregate-known-cov", "aggregate", 11, {"dim": 2, "machines": 4, "n_grid": [20, 40], "trials": 4,
                                              "methods": ["kl-naive", "kl-control", "kl-weighted", "linear"],
                                              "known_covariance": True}),
    ("oracle-brute-force", "oracle", 12, {"oracle": "brute-force", "model": ISING_3X3}),
    ("oracle-score", "oracle", 12, {"oracle": "finite-difference-score", "model": GMM_2D, "points": 5}),
]


def write_data(workdir: Path) -> dict:
    """The data files that configs name, written from a fixed generator."""
    rng = np.random.default_rng(20261020)
    gof = workdir / "gof-data.csv"
    gof.write_text("".join(",".join(map(str, row)) + "\n" for row in rng.integers(0, 2, size=(200, 9))))
    points = workdir / "points.csv"
    points.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rng.normal(size=(50, 2))))
    return {"GOF_DATA": str(gof), "POINTS_DATA": str(points)}


def fill(value, data: dict):
    if isinstance(value, dict):
        return {k: fill(v, data) for k, v in value.items()}
    if isinstance(value, list):
        return [fill(v, data) for v in value]
    return data.get(value, value) if isinstance(value, str) else value


def start(tree: Path, subcommand: str, seed: int, config: Path, out: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **THREAD_ENV}
    return subprocess.Popen([sys.executable, "-m", "steinkit.cli", subcommand, "--config", str(config),
                             "--seed", str(seed), "--out", str(out)],
                            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def outcome(proc: subprocess.Popen, out: Path) -> dict:
    _, stderr = proc.communicate()
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    files = {name: (out / name).read_bytes() for name in OUTPUT_FILES if (out / name).exists()}
    return {"exit": proc.returncode, "error": errors, "files": files}


def differences(base: dict, change: dict) -> list[str]:
    diffs = [key for key in ("exit", "error") if base[key] != change[key]]
    names = sorted(set(base["files"]) | set(change["files"]))
    return diffs + [name for name in names if base["files"].get(name) != change["files"].get(name)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    args = parser.parse_args()
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        workdir = Path(tmp)
        data = write_data(workdir)
        for name, subcommand, seed, config in CONFIGS:
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(fill(config, data)))
            outs = {side: workdir / side / name for side in trees}
            procs = {side: start(tree, subcommand, seed, path, outs[side]) for side, tree in trees.items()}
            runs = {side: outcome(procs[side], outs[side]) for side in trees}
            diffs = differences(runs["base"], runs["change"])
            failed += bool(diffs)
            run = runs["change"]
            what = f"exit {run['exit']}" + (f" ({run['error'][0]})" if run["error"] else
                                             f", {len(run['files'])} files")
            print(f"{'DIFFERS' if diffs else 'identical':9} {name:24} {what}"
                  + (f"; differs in: {', '.join(diffs)}" if diffs else ""), flush=True)
    print(f"{len(CONFIGS) - failed} of {len(CONFIGS)} configs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
