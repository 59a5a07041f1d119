"""The four workloads: input generation and output checks.

Each workload turns ``(seed, size)`` into a list of CLI operations whose
configs and data files it writes before any timing starts, and checks the
program's outputs against quantities it computes itself: its own
enumeration of the Ising states, its own mixture mean, and the invariants
each subcommand documents.  No check calls into ``steinkit``.

Sizes: ``full`` is the measured benchmark; ``tiny`` is for the benchmark's
own tests and runs in a few seconds.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The workload name is mixed into every seed so that two workloads run with
# the same --seed draw unrelated inputs.
_STREAMS = {"discrete-ising": 1, "steinis-gmm": 2, "gof-ising": 3, "bbis-qp": 4}

TAIL = 1e-3  # false-alarm probability allowed to each binomial-count check


@dataclass
class Op:
    argv: list[str]  # CLI arguments without --out
    meta: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    ops: list[Op]
    truth: dict


def _rng(workload: str, seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([_STREAMS[workload], seed, *key])


def _op_seeds(workload: str, seed: int, count: int) -> list[int]:
    return [int(s) for s in _rng(workload, seed, 0).integers(0, 2 ** 31 - 1, size=count)]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return str(path)


def _argv(sub: str, config: str, seed: int) -> list[str]:
    return [sub, "--config", config, "--seed", str(seed), "--threads", "1"]


def _read_summary(outdir: Path) -> dict:
    return json.loads((outdir / "summary.json").read_text())["results"]


def _metric(outdir: Path, name: str) -> float:
    for line in (outdir / "metrics.csv").read_text().splitlines()[1:]:
        _, metric, value = line.split(",")
        if metric == name:
            return float(value)
    raise KeyError(name)


def binom_tail_ge(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(max(k, 0), n + 1))


def max_allowed(n: int, p: float, tail: float = TAIL) -> int:
    """Smallest k with P(X > k) <= tail: more than k successes is an alarm."""
    return next(k for k in range(n + 1) if binom_tail_ge(k + 1, n, p) <= tail)


def min_required(n: int, p: float, tail: float = TAIL) -> int:
    """Largest k with P(X < k) <= tail: fewer than k successes is an alarm."""
    return max(k for k in range(n + 1) if 1.0 - binom_tail_ge(k, n, p) <= tail)


# ---------------------------------------------------------------------------
# Ising models by the benchmark's own enumeration
# ---------------------------------------------------------------------------

def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return edges


def ising_law(rows: int, cols: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """All 2^d spin states in {-1,+1}^d and their exact probabilities."""
    d = rows * cols
    states = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    energy = theta * sum(states[:, i] * states[:, j] for i, j in grid_edges(rows, cols))
    p = np.exp(energy - energy.max())
    return states, p / p.sum()


def neighbour_correlation(spins: np.ndarray, rows: int, cols: int, probs=None) -> float:
    """Mean over grid edges of E[z_i z_j]: under ``probs`` if given, else
    the sample average over the rows of ``spins``."""
    prods = np.stack([spins[:, i] * spins[:, j] for i, j in grid_edges(rows, cols)], axis=1)
    means = prods.mean(axis=0) if probs is None else probs @ prods
    return float(means.mean())


# ---------------------------------------------------------------------------
# discrete-ising: the paper's sampler on a 3x3 zero-field Ising grid
# ---------------------------------------------------------------------------

ISING = {"rows": 3, "cols": 3, "theta": 0.2}
CORR_TOL = 0.1  # below the exact correlation (0.208), so the uniform law fails
SITE_MEAN_TOL = 0.1


def make_discrete_ising(seed: int, workdir: Path, size: str) -> Plan:
    n, iters, count = {"full": (500, 150, 4), "tiny": (300, 40, 2)}[size]
    cfg = {"model": {"type": "ising-grid", **ISING}, "n": n, "iters": iters, "surrogate_mode": "base"}
    path = _write_json(workdir / "discrete-ising.json", cfg)
    ops = [Op(_argv("discrete-sample", path, s)) for s in _op_seeds("discrete-ising", seed, count)]
    states, probs = ising_law(**ISING)
    truth = {"n": n, "dims": ISING["rows"] * ISING["cols"],
             "corr": neighbour_correlation(states, ISING["rows"], ISING["cols"], probs)}
    return Plan("discrete-ising", ops, truth)


def read_discrete_ising(op: Op, outdir: Path) -> dict:
    rows = [line.split(",") for line in (outdir / "samples.csv").read_text().splitlines()]
    return {"samples": rows, "n_samples": _read_summary(outdir)["n_samples"]}


def check_discrete_ising(plan: Plan, outputs: list[dict]) -> list[str]:
    t = plan.truth
    errors, pooled = [], []
    for i, out in enumerate(outputs):
        rows = out["samples"]
        if len(rows) != t["n"] or out["n_samples"] != t["n"]:
            errors.append(f"op {i}: {len(rows)} sample rows (summary says {out['n_samples']}), expected {t['n']}")
        if any(len(r) != t["dims"] or any(v not in ("0", "1") for v in r) for r in rows):
            errors.append(f"op {i}: a sample row is not {t['dims']} entries in {{0, 1}}")
            continue
        pooled.append(np.array(rows, dtype=float) * 2.0 - 1.0)
    if not pooled:
        return errors + ["no sample to check"]
    spins = np.concatenate(pooled)
    corr = neighbour_correlation(spins, ISING["rows"], ISING["cols"])
    if abs(corr - t["corr"]) > CORR_TOL:
        errors.append(f"mean neighbour correlation {corr:.4f}, exact {t['corr']:.4f} (tol {CORR_TOL})")
    site = float(np.max(np.abs(spins.mean(axis=0))))
    if site > SITE_MEAN_TOL:
        errors.append(f"max |site mean| {site:.4f} > {SITE_MEAN_TOL} (exact 0 by spin-flip symmetry)")
    return errors


# ---------------------------------------------------------------------------
# steinis-gmm: many short SteinIS trials on a 2-D mixture with Z = 2
# ---------------------------------------------------------------------------

N_FOLLOWERS = 100
Z_TRUE = 2.0
Z_SE_TOL = 4.0  # standard errors allowed to the trial average of Z-hat and of the mean
SN_MEAN_TOL_TRIAL = 0.75
SN_MEAN_BIAS = 0.05  # allowance for the O(1/ESS) bias of a self-normalised mean


def make_steinis_gmm(seed: int, workdir: Path, size: str) -> Plan:
    iters, count = {"full": (160, 13), "tiny": (15, 6)}[size]
    means = _rng("steinis-gmm", seed, 1).uniform(-1.0, 1.0, size=(10, 2))
    cfg = {
        # normalized mixture times exp(log 2): the normalising constant is exactly 2
        "model": {"type": "gmm", "weights": [0.1] * 10, "means": means.tolist(), "sigma": 1.0,
                  "normalized": True, "log_scale": math.log(Z_TRUE)},
        "q0": {"mu": [0.0, 0.0], "sigma": 2.0},
        "n_leaders": 100, "n_followers": N_FOLLOWERS, "iters": iters,
        "schedule": {"mode": "decay", "eps": 0.3, "decay_exponent": 0.5},
    }
    path = _write_json(workdir / "steinis-gmm.json", cfg)
    ops = [Op(_argv("steinis", path, s)) for s in _op_seeds("steinis-gmm", seed, count)]
    return Plan("steinis-gmm", ops, {"mixture_mean": means.mean(axis=0).tolist()})


def read_steinis_gmm(op: Op, outdir: Path) -> dict:
    r = _read_summary(outdir)
    return {"z_hat": r["z_hat"], "ess": r["ess"], "mean": r["self_normalized_mean"]}


def check_steinis_gmm(plan: Plan, outputs: list[dict]) -> list[str]:
    errors = []
    truth = np.asarray(plan.truth["mixture_mean"])
    for i, out in enumerate(outputs):
        if not 1.0 <= out["ess"] <= N_FOLLOWERS:
            errors.append(f"op {i}: ESS {out['ess']} outside [1, {N_FOLLOWERS}]")
        err = float(np.linalg.norm(np.asarray(out["mean"]) - truth))
        if not err <= SN_MEAN_TOL_TRIAL:
            errors.append(f"op {i}: self-normalised mean off the mixture mean by {err:.3f} > {SN_MEAN_TOL_TRIAL}")
    if len(outputs) < 2:
        return errors + ["need two trials to check Z-hat"]
    z = np.array([out["z_hat"] for out in outputs])
    se = float(z.std(ddof=1) / math.sqrt(z.size))
    if not abs(z.mean() - Z_TRUE) <= Z_SE_TOL * se:
        errors.append(f"mean Z-hat {z.mean():.4f} vs {Z_TRUE} is more than {Z_SE_TOL} standard errors ({se:.4f})")
    means = np.array([out["mean"] for out in outputs])
    dev = np.abs(means.mean(axis=0) - truth)
    se = means.std(axis=0, ddof=1) / math.sqrt(len(means))
    if np.any(dev > Z_SE_TOL * se + SN_MEAN_BIAS):
        errors.append(f"trial-averaged self-normalised mean off the mixture mean by {dev.round(4).tolist()}, "
                      f"more than {Z_SE_TOL} standard errors {se.round(4).tolist()} + {SN_MEAN_BIAS}")
    return errors


# ---------------------------------------------------------------------------
# gof-ising: KSD goodness-of-fit tests against the 3x3 theta=0.2 null
# ---------------------------------------------------------------------------

ALPHA = 0.05
NULL_LEVEL_MAX = 0.08  # acceptance criterion 9's upper level band
ALT_POWER_MIN = 0.9  # acceptance criterion 9's power at n=1000, theta=0.4
ALT_THETA = 0.4


def make_gof_ising(seed: int, workdir: Path, size: str) -> Plan:
    n, m, pairs = {"full": (1000, 1000, 19), "tiny": (300, 200, 2)}[size]
    laws = {"null": ising_law(ISING["rows"], ISING["cols"], ISING["theta"]),
            "alt": ising_law(ISING["rows"], ISING["cols"], ALT_THETA)}
    seeds = _op_seeds("gof-ising", seed, 2 * pairs)
    ops = []
    for i, op_seed in enumerate(seeds):
        kind = ("null", "alt")[i % 2]
        states, probs = laws[kind]
        draw = _rng("gof-ising", seed, 2, i).choice(states.shape[0], size=n, p=probs)
        idx = ((states[draw] + 1.0) / 2.0).astype(int)  # alphabet (-1, +1) -> state index 0/1
        data = workdir / f"gof-data-{i}.csv"
        data.write_text("".join(",".join(map(str, row)) + "\n" for row in idx))
        cfg = {"model": {"type": "ising-grid", **ISING}, "data": {"path": str(data)},
               "alpha": ALPHA, "m": m, "surrogate_mode": "relaxed"}
        path = _write_json(workdir / f"gof-{i}.json", cfg)
        ops.append(Op(_argv("gof", path, op_seed), {"kind": kind}))
    return Plan("gof-ising", ops, {"m": m})


def read_gof_ising(op: Op, outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def check_gof_ising(plan: Plan, outputs: list[dict]) -> list[str]:
    m = plan.truth["m"]
    errors = []
    rejects = {"null": 0, "alt": 0}
    totals = {"null": 0, "alt": 0}
    for i, (op, rep) in enumerate(zip(plan.ops, outputs)):
        p = rep["p_value"]
        if not 1.0 / (m + 1) <= p <= 1.0:
            errors.append(f"op {i}: p-value {p} outside [1/(m+1), 1]")
        if rep["n_bootstrap"] != m:
            errors.append(f"op {i}: {rep['n_bootstrap']} bootstrap replicates, expected {m}")
        if not rep["reject"] == (p < rep["alpha"]) == (rep["statistic"] > rep["critical_value"]):
            errors.append(f"op {i}: reject={rep['reject']} but p={p}, statistic={rep['statistic']}, "
                          f"critical value={rep['critical_value']}")
        kind = op.meta["kind"]
        totals[kind] += 1
        rejects[kind] += bool(rep["reject"])
    limit = max_allowed(totals["null"], NULL_LEVEL_MAX)
    if rejects["null"] > limit:
        errors.append(f"{rejects['null']}/{totals['null']} null data sets rejected, at most {limit} allowed")
    need = min_required(totals["alt"], ALT_POWER_MIN)
    if rejects["alt"] < need:
        errors.append(f"{rejects['alt']}/{totals['alt']} theta={ALT_THETA} data sets rejected, at least {need} required")
    return errors


# ---------------------------------------------------------------------------
# bbis-qp: black-box importance weights by the simplex QP
# ---------------------------------------------------------------------------

# A tolerance far below the float resolution of the objective: every solve
# runs to the iteration cap, so each does the same QP work, not a draw from
# the wide spread of iterations-to-tolerance (about 1.4k to 36k at n=50 under
# the default 1e-10).  At n=50 some solves still stop early, at an exact fixed
# point or on a vanishing step; at n=100 none did in 117 solves.  The cap
# makes one round of 39 solves fill most of a 25 s run.
BBIS_N = 100
QP_MAX_ITER = 18000
QP_TOL = 1e-300
SIMPLEX_TOL = 1e-9
OBJECTIVE_RTOL = 1e-12  # the CLI evaluates both objectives on the same matrix
WIN_SHARE = 0.9


def make_bbis_qp(seed: int, workdir: Path, size: str) -> Plan:
    n, count = BBIS_N, {"full": 39, "tiny": 3}[size]
    ops = []
    for i, op_seed in enumerate(_op_seeds("bbis-qp", seed, count)):
        pts = _rng("bbis-qp", seed, 2, i).normal(1.0, 1.0, size=n)
        data = workdir / f"bbis-points-{i}.csv"
        data.write_text("".join(repr(float(v)) + "\n" for v in pts))
        cfg = {"model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0}, "points": {"path": str(data)},
               "max_iter": QP_MAX_ITER, "tol": QP_TOL}
        path = _write_json(workdir / f"bbis-{i}.json", cfg)
        ops.append(Op(_argv("bbis", path, op_seed), {"points": pts.tolist()}))
    return Plan("bbis-qp", ops, {})


def read_bbis_qp(op: Op, outdir: Path) -> dict:
    rows = np.loadtxt(outdir / "samples.csv", delimiter=",", ndmin=2)
    r = _read_summary(outdir)
    return {"points": rows[:, 0].tolist(), "weights": rows[:, 1].tolist(), "objective": r["objective"],
            "objective_uniform": _metric(outdir, "objective_uniform"),
            "weighted_mean": r["weighted_mean"][0], "uniform_mean": r["uniform_mean"][0]}


def check_bbis_qp(plan: Plan, outputs: list[dict]) -> list[str]:
    errors, wins = [], 0
    for i, (op, out) in enumerate(zip(plan.ops, outputs)):
        x = np.asarray(op.meta["points"])
        w = np.asarray(out["weights"])
        if w.shape != x.shape or not np.array_equal(np.asarray(out["points"]), x):
            errors.append(f"op {i}: samples.csv does not hold the {x.size} input points")
            continue
        if not (abs(w.sum() - 1.0) <= SIMPLEX_TOL and w.min() >= -SIMPLEX_TOL):
            errors.append(f"op {i}: weights off the simplex (sum {w.sum():.12f}, min {w.min():.3g})")
        obj, uni = out["objective"], out["objective_uniform"]
        if not obj <= uni + OBJECTIVE_RTOL * abs(uni):
            errors.append(f"op {i}: objective {obj} above the uniform-weight objective {uni}")
        if not math.isclose(out["weighted_mean"], float(w @ x), rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"op {i}: weighted mean {out['weighted_mean']} is not w @ x = {float(w @ x)}")
        wins += abs(float(w @ x)) < abs(float(x.mean()))
    need = math.ceil(WIN_SHARE * len(outputs))
    if wins < need:
        errors.append(f"weighted mean beat the uniform mean at recovering 0 in {wins}/{len(outputs)} solves, "
                      f"need {need}")
    return errors


WORKLOADS = {
    "discrete-ising": (make_discrete_ising, read_discrete_ising, check_discrete_ising),
    "steinis-gmm": (make_steinis_gmm, read_steinis_gmm, check_steinis_gmm),
    "gof-ising": (make_gof_ising, read_gof_ising, check_gof_ising),
    "bbis-qp": (make_bbis_qp, read_bbis_qp, check_bbis_qp),
}
