"""Experiment runner.

Each subcommand reads a JSON config (validated against the published schema
before any computation), seeds a named random stream and dispatches to the
library.  Its runner fills a ``RunOutput`` and returns its results; ``main``
alone writes the files: ``metrics.csv`` (columns: iteration/trial index,
metric name, value), ``samples.csv`` for sample-producing runs unless
``emit_samples`` is false, the runner's further files (``report.json``,
``rates.csv``) and ``summary.json`` (final estimates, seed, config echo).

Exit codes: 0 success, 2 config error, 3 numerical failure; failures print a
single machine-parsable line `error: <kind>: <message>` on stderr and write
no file.  Numeric CSV cells use the shortest round-trip decimal
representation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import discrete, gfsvgd, gof, kernels, ksd, models, steinis, svgd
from .config_schema import CONFIG_SCHEMAS
from .errors import ConfigError, NumericalFailure
from .rngs import stream_rng

SUBCOMMANDS = tuple(CONFIG_SCHEMAS)

# fixed stream ids per role so every consumer of the master seed is named
STREAM_MODEL = 1000
STREAM_INIT = 1001
STREAM_RUN = 1002
STREAM_DATA = 1003


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class RunOutput:
    """What a run writes besides ``summary.json``: metric rows, the samples
    table (an integer array is written as integers) and further files by
    name.  Runners fill it; ``main`` writes it once the run has succeeded."""

    def __init__(self):
        self.rows: list[tuple[int, str, float]] = []
        self.samples: Optional[np.ndarray] = None
        self.files: dict[str, str] = {}

    def add(self, index: int, metric: str, value: float) -> None:
        self.rows.append((int(index), metric, value))

    def write(self, outdir: Path, emit_samples: bool) -> None:
        lines = ["iteration,metric,value"]
        lines += [f"{i},{m},{_fmt(v)}" for i, m, v in self.rows]
        (outdir / "metrics.csv").write_text("\n".join(lines) + "\n")
        if self.samples is not None and emit_samples:
            rows = [",".join(_fmt(v) for v in row) for row in self.samples]
            (outdir / "samples.csv").write_text("\n".join(rows) + "\n")
        for name, text in self.files.items():
            (outdir / name).write_text(text)


def _read_csv(path: str, dtype=float) -> np.ndarray:
    """A comma-separated data file as a 2-d array; a file that is missing,
    does not parse or holds a non-finite entry is a config error."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=dtype)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"data file {path}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"data file {path}: every entry must be finite")
    return data


@functools.lru_cache(maxsize=None)
def _validator(subcommand: str):
    """The schema validator of one subcommand, built on first use.  The schemas
    are constants, checked against their meta-schema by the test suite
    (``test_schemas_are_valid_for_their_meta_schema``), not at run time:
    ``check_schema`` alone costs about 22 ms per process."""
    schema = CONFIG_SCHEMAS[subcommand]
    return jsonschema.validators.validator_for(schema)(schema)


def validate_config(subcommand: str, config: dict) -> None:
    # the error jsonschema.validate would raise for a valid schema
    exc = jsonschema.exceptions.best_match(_validator(subcommand).iter_errors(config))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {exc.message}")


# ---------------------------------------------------------------------------
# Config -> library object builders
# ---------------------------------------------------------------------------

# the kernel and schedule schemas list exactly the dataclass fields, so the
# library's defaults are the only ones
def build_kernel(spec: Optional[dict]) -> kernels.KernelSpec:
    return kernels.KernelSpec(**(spec or {}))


def build_schedule(spec: Optional[dict]) -> svgd.StepSchedule:
    return svgd.StepSchedule(**(spec or {}))


def _gmm_model(weights, means, sigma, log_scale=0.0, normalized=False) -> models.ContinuousTarget:
    if normalized:
        log_scale -= 0.5 * np.atleast_2d(means).shape[1] * np.log(2.0 * np.pi * sigma)
    return models.gmm_target(weights, means, sigma, log_scale)


def build_continuous_model(spec: dict, seed: int) -> models.ContinuousTarget:
    kind = spec["type"]
    if kind == "gaussian":
        return models.gaussian_target(np.asarray(spec["mu"], dtype=float), spec["sigma"])
    if kind == "gmm":
        return _gmm_model(spec["weights"], spec["means"], spec["sigma"],
                          spec.get("log_scale", 0.0), spec.get("normalized", False))
    if kind == "gmm-random":
        rng = stream_rng(seed, STREAM_MODEL)
        m = spec["components"]
        means = rng.uniform(spec.get("low", -1.0), spec.get("high", 1.0), size=(m, spec["dim"]))
        return _gmm_model(np.full(m, 1.0 / m), means, spec.get("sigma", 1.0),
                          spec.get("log_scale", 0.0), spec.get("normalized", False))
    if kind == "gauss-bernoulli-rbm":
        params = models.GaussBernoulliRBMParams(B=spec["B"], b=spec["b"], c=spec["c"])
        return models.gauss_bernoulli_rbm_target(params)
    if kind == "gauss-bernoulli-rbm-random":
        rng = stream_rng(seed, STREAM_MODEL)
        params = models.random_gauss_bernoulli_rbm(rng, spec["dim"], spec["hidden"])
        return models.gauss_bernoulli_rbm_target(params)
    raise ConfigError(f"not a continuous model: {kind!r}")


def build_discrete_model(spec: dict, seed: int) -> models.DiscreteTarget:
    kind = spec["type"]
    if kind == "ising-grid":
        return models.ising_target(models.grid_ising(spec["rows"], spec["cols"], spec["theta"]))
    if kind == "bernoulli-rbm":
        return models.bernoulli_rbm_target(models.BernoulliRBMParams(W=spec["W"], b=spec["b"], c=spec["c"]))
    if kind == "bernoulli-rbm-random":
        rng = stream_rng(seed, STREAM_MODEL)
        params = models.random_bernoulli_rbm(rng, spec["dims"], spec["hidden"], spec.get("w_scale", 0.05))
        return models.bernoulli_rbm_target(params)
    if kind == "categorical":
        # log_mass looks states up by binary search, so they are kept sorted
        states, first = np.unique(np.asarray(spec["states"], dtype=float), return_index=True)
        masses = np.asarray(spec["masses"], dtype=float)
        if masses.size != len(spec["states"]) or np.any(masses <= 0):
            raise ConfigError("categorical masses must be positive, one per state")
        if states.size < masses.size:
            raise ConfigError("categorical states must be distinct")
        log_masses = np.log(masses[first])

        def log_mass(z):
            return log_masses[np.clip(np.searchsorted(states, z[:, 0]), 0, states.size - 1)]

        return models.DiscreteTarget(dims=1, alphabet=tuple(float(s) for s in states), log_mass=log_mass)
    raise ConfigError(f"not a discrete model: {kind!r}")


def _with_model_dim(key: str, values, dim: int) -> np.ndarray:
    """``values`` as a float array whose last axis must be the model's
    dimension ``dim``; a mismatch is a config error that names ``key``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1] != dim:
        raise ConfigError(f"{key}: dimension {arr.shape[-1]} does not match the model's {dim}")
    return arr


def _gaussian_init(spec: Optional[dict], key: str, dim: int):
    if spec is None:
        return models.gaussian_sampler(np.zeros(dim), 1.0)
    return models.gaussian_sampler(_with_model_dim(f"{key}/mu", spec["mu"], dim), spec["sigma"])


def build_surrogate(spec: Optional[dict], target: models.ContinuousTarget) -> models.ContinuousTarget:
    if spec is None or spec["type"] == "target":
        return target
    return models.gaussian_target(_with_model_dim("surrogate/mu", spec["mu"], target.dim), spec["sigma"])


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _trace_callback(out: RunOutput, cfg: dict, total: int):
    every = cfg.get("metric_every", 10)

    def cb(ensemble):
        it = ensemble.iteration
        if it % every == 0 or it == total:
            x = ensemble.positions
            out.add(it, "mean", float(x.mean()))
            out.add(it, "second_moment", float((x ** 2).mean()))

    return cb


def _ess_rows(out: RunOutput, cfg: dict, ess_history) -> None:
    """An ESS row every ``metric_every`` steps (10 unless configured)."""
    for i in range(0, len(ess_history), cfg.get("metric_every", 10)):
        out.add(i, "ess", float(ess_history[i]))


def _particle_results(out: RunOutput, cfg: dict, x: np.ndarray, ess_history=(), **results) -> dict:
    """The tail of the particle samplers: their ESS rows, the particles as
    samples, and their mean and second moment besides the runner's own
    ``results``."""
    _ess_rows(out, cfg, ess_history)
    out.samples = x
    return {"mean": x.mean(axis=0).tolist(), "second_moment": (x ** 2).mean(axis=0).tolist(), **results}


def run_svgd_cmd(cfg, seed, out):
    target = build_continuous_model(cfg["model"], seed)
    ensemble = svgd.run_svgd(
        target, cfg["n"], cfg["iters"], build_kernel(cfg.get("kernel")), build_schedule(cfg.get("schedule")),
        stream_rng(seed, STREAM_INIT), _gaussian_init(cfg.get("init"), "init", target.dim),
        callback=_trace_callback(out, cfg, cfg["iters"]),
    )
    return _particle_results(out, cfg, ensemble.positions, iterations=ensemble.iteration)


def run_gfsvgd_cmd(cfg, seed, out):
    target = build_continuous_model(cfg["model"], seed)
    surrogate = build_surrogate(cfg.get("surrogate"), target)
    result = gfsvgd.run_gf_svgd(
        target, surrogate, cfg["n"], cfg["iters"], build_kernel(cfg.get("kernel")),
        build_schedule(cfg.get("schedule")), cfg.get("weight_mode", "self-normalized"),
        stream_rng(seed, STREAM_INIT), _gaussian_init(cfg.get("init"), "init", target.dim),
        callback=_trace_callback(out, cfg, cfg["iters"]),
    )
    return _particle_results(out, cfg, result.ensemble.positions, result.ess_history,
                             final_ess=result.final_weights.ess, iterations=result.ensemble.iteration)


def run_agf_svgd_cmd(cfg, seed, out):
    target = build_continuous_model(cfg["model"], seed)
    mu = _with_model_dim("p0/mu", cfg["p0"]["mu"], target.dim)
    p0 = models.gaussian_target(mu, cfg["p0"]["sigma"])
    betas = np.linspace(0.0, 1.0, cfg["n_temps"] + 1)
    result = gfsvgd.run_agf_svgd(
        target, p0, betas, cfg["n"], build_kernel(cfg.get("kernel")), build_schedule(cfg.get("schedule")),
        stream_rng(seed, STREAM_INIT), models.gaussian_sampler(mu, cfg["p0"]["sigma"]),
        smoothing=kernels.KernelSpec(cfg.get("smoothing_h", kernels.MEDIAN_HEURISTIC)),
        callback=_trace_callback(out, cfg, cfg["n_temps"]),
    )
    return _particle_results(out, cfg, result.ensemble.positions, result.ess_history, temperatures=cfg["n_temps"])


def run_steinis_cmd(cfg, seed, out):
    target = build_continuous_model(cfg["model"], seed)
    mu = _with_model_dim("q0/mu", cfg["q0"]["mu"], target.dim)
    result = steinis.run_steinis(
        target, models.gaussian_sampler(mu, cfg["q0"]["sigma"]), models.gaussian_logpdf(mu, cfg["q0"]["sigma"]),
        cfg.get("n_leaders", 100), cfg.get("n_followers", 100), cfg["iters"],
        build_kernel(cfg.get("kernel")), build_schedule(cfg.get("schedule", {"mode": "decay", "eps": 0.3})),
        stream_rng(seed, STREAM_RUN), det_mode=cfg.get("det_mode", "auto"),
    )
    for i, eps in enumerate(result.ensemble.eps_history):
        out.add(i, "eps", eps)
    out.add(cfg["iters"], "ess", result.sample.ess)
    out.add(cfg["iters"], "z_hat", result.z_hat)
    out.samples = np.hstack([result.sample.positions, result.sample.log_weights[:, None]])
    mean_est = steinis.self_normalized_expectation(result.sample, lambda x: x)
    return {"z_hat": result.z_hat, "ess": result.sample.ess,
            "self_normalized_mean": mean_est.tolist()}


def run_path_logz_cmd(cfg, seed, out):
    target = build_continuous_model(cfg["model"], seed)
    mu = _with_model_dim("q0/mu", cfg["q0"]["mu"], target.dim)
    logz = steinis.path_integration_logZ(
        target, models.gaussian_sampler(mu, cfg["q0"]["sigma"]), models.gaussian_logpdf(mu, cfg["q0"]["sigma"]),
        cfg["n"], cfg["iters"], build_kernel(cfg.get("kernel", {"bandwidth": 1.0})),
        build_schedule(cfg.get("schedule", {"mode": "constant", "eps": 0.05})),
        cfg.get("m0", 100000), stream_rng(seed, STREAM_RUN),
    )
    out.add(cfg["iters"], "log_z", logz)
    return {"log_z": logz}


def _discrete_surrogate(cfg: dict, target: models.DiscreteTarget) -> models.ContinuousTarget:
    """The surrogate that ``surrogate_mode`` names: the one table of mode names.
    The factories are called through ``discrete`` so that clibench's tracer
    times them.  ``lam`` without ``ising`` and ``temperature`` without
    ``relaxed`` are config errors, since no surrogate would read them.  A
    model that a mode's factory cannot serve (``ising`` without couplings,
    ``relaxed`` without a relaxed energy) raises ``ValueError``: exit 2."""
    mode = cfg.get("surrogate_mode", "base")
    for key, reader in (("lam", "ising"), ("temperature", "relaxed")):
        if key in cfg and mode != reader:
            raise ConfigError(f"{key}: read only with surrogate_mode '{reader}', not '{mode}'")
    if mode == "base":
        return discrete.base_surrogate(target)
    if mode == "relaxed":
        return discrete.smooth_relaxation_surrogate(target, cfg.get("temperature", 10.0))
    # the schema admits no mode but these three
    return discrete.ising_surrogate(target, cfg.get("lam"))


def run_discrete_sample_cmd(cfg, seed, out):
    target = build_discrete_model(cfg["model"], seed)
    result = discrete.sample_discrete(
        target, _discrete_surrogate(cfg, target), cfg["n"], cfg["iters"], build_kernel(cfg.get("kernel")),
        build_schedule(cfg.get("schedule")), stream_rng(seed, STREAM_RUN),
    )
    _ess_rows(out, cfg, result.continuous.ess_history)
    out.samples = discrete.state_index_rows(result.states, target)
    return {"site_means": result.states.mean(axis=0).tolist(),
            "n_samples": int(result.states.shape[0]),
            "within_bin_ks": discrete.within_bin_ks(result.continuous.ensemble.positions, target)}


def run_gof_cmd(cfg, seed, out):
    target = build_discrete_model(cfg["model"], seed)
    if "path" in cfg["data"]:
        path = cfg["data"]["path"]
        idx = _read_csv(path, dtype=int)
        k = len(target.alphabet)
        if idx.shape[1] != target.dims or np.any((idx < 0) | (idx >= k)):
            raise ConfigError(f"data file {path}: each row must hold {target.dims} state indices in [0, {k})")
        z = np.asarray(target.alphabet, dtype=float)[idx]
    else:
        data_target = build_discrete_model(cfg["data"]["model"], seed)
        z = models.sample_discrete_target(stream_rng(seed, STREAM_DATA), cfg["data"]["n"], data_target)
        z = _with_model_dim("data/model", z, target.dims)
    report = dataclasses.asdict(gof.gof_test(
        z, target, _discrete_surrogate(cfg, target), alpha=cfg.get("alpha", 0.05), m=cfg.get("m", 1000),
        seed=seed, kernel=kernels.KernelSpec(cfg.get("kernel_h", kernels.MEDIAN_HEURISTIC)),
    ))
    for name in ("statistic", "p_value", "critical_value"):
        out.add(0, name, report[name])
    out.files["report.json"] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return {"report": report}


def run_bbis_cmd(cfg, seed, out):
    target = build_continuous_model(cfg["model"], seed)
    surrogate = build_surrogate(cfg.get("surrogate"), target)
    pts = cfg["points"]
    if "path" in pts:
        points = _with_model_dim("points/path", _read_csv(pts["path"]), target.dim)
    else:
        points = models.gaussian_sampler(_with_model_dim("points/mu", pts["mu"], target.dim), pts["sigma"])(
            stream_rng(seed, STREAM_DATA), pts["n"]
        )
    sq = kernels.pairwise_sq_dists(points, points)
    h = kernels.resolve_bandwidth(kernels.KernelSpec(cfg.get("kernel_h", kernels.MEDIAN_HEURISTIC)), points, sq)
    gram = ksd.gf_stein_gram(points, surrogate, target.log_density, h, sq=sq)
    weights = ksd.bbis_weights(gram, max_iter=cfg.get("max_iter", 10000), tol=cfg.get("tol", 1e-10))
    objective = float(weights @ gram @ weights)
    uniform = np.full(points.shape[0], 1.0 / points.shape[0])
    out.add(0, "objective", objective)
    out.add(0, "objective_uniform", float(uniform @ gram @ uniform))
    out.samples = np.hstack([points, weights[:, None]])
    return {"objective": objective, "weighted_mean": (weights @ points).tolist(),
            "uniform_mean": points.mean(axis=0).tolist()}


def run_aggregate_cmd(cfg, seed, out, threads=1):
    from . import aggregation  # scipy.stats and scipy.linalg: imported only by this subcommand

    methods = tuple(cfg.get("methods", ["kl-naive", "kl-control", "kl-weighted"]))
    common = dict(n_machines=cfg["machines"], dim=cfg["dim"], n_grid=cfg["n_grid"],
                  n_trials=cfg["trials"], seed=seed, big_n=cfg.get("big_n", 6e7), methods=methods,
                  known_covariance=cfg.get("known_covariance", False))
    chunks = np.array_split(np.arange(cfg["trials"]), threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(aggregation.gaussian_rate_experiment, trial_indices=chunk.tolist(), **common)
                   for chunk in chunks if chunk.size]
        rows = [row for fut in futures for row in fut.result()]
    rows.sort(key=lambda r: (r["trial"], r["n"], r["method"]))
    rates = ["method,d,n,trial,mse"]
    rates += [f"{r['method']},{r['d']},{r['n']},{r['trial']},{_fmt(r['mse'])}" for r in rows]
    out.files["rates.csv"] = "\n".join(rates) + "\n"
    for r in rows:
        out.add(r["trial"], f"mse_{r['method']}_n{r['n']}", r["mse"])
    summary = {}
    for method in methods:
        means = [float(np.mean([r["mse"] for r in rows if r["method"] == method and r["n"] == n]))
                 for n in cfg["n_grid"]]
        # a log-log slope needs two sizes and positive means (one machine's linear average can be exact)
        slope = None
        if len(means) >= 2 and all(m > 0 for m in means):
            slope = aggregation.fit_loglog_slope(cfg["n_grid"], means)
        summary[method] = {"mean_mse": {str(n): m for n, m in zip(cfg["n_grid"], means)}, "slope": slope}
    return {"methods": summary}


def run_oracle_cmd(cfg, seed, out):
    if cfg["oracle"] == "brute-force":
        probs = models.brute_force_distribution(build_discrete_model(cfg["model"], seed))
        for i, p in enumerate(probs):
            out.add(i, "probability", float(p))
        return {"n_states": int(probs.size), "max_probability": float(probs.max())}
    target = build_continuous_model(cfg["model"], seed)
    if target.score is None:
        raise ConfigError("finite-difference oracle needs a model with an analytic score")
    rng = stream_rng(seed, STREAM_DATA)
    n_points = cfg.get("points", 20)
    errs = []
    for i in range(n_points):
        x = rng.standard_normal(target.dim)
        eps = 1e-5 * (1.0 + float(np.linalg.norm(x)))
        fd = models.finite_difference_score(target, x, eps)
        an = target.score(x[None])[0]
        rel = float(np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-12))
        errs.append(rel)
        out.add(i, "score_rel_err", rel)
    return {"max_rel_err": float(np.max(errs)), "points": n_points}


RUNNERS = {
    "svgd": run_svgd_cmd,
    "gfsvgd": run_gfsvgd_cmd,
    "agf-svgd": run_agf_svgd_cmd,
    "steinis": run_steinis_cmd,
    "path-logz": run_path_logz_cmd,
    "discrete-sample": run_discrete_sample_cmd,
    "gof": run_gof_cmd,
    "bbis": run_bbis_cmd,
    "aggregate": run_aggregate_cmd,
    "oracle": run_oracle_cmd,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="steinkit", description="Stein-discrepancy particle inference experiments")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides the config's)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="trial-level parallelism (aggregate only)")
    parser.add_argument("--print-schema", action="store_true", help="print the subcommand's config schema and exit")
    args = parser.parse_args(argv)

    if args.print_schema:
        json.dump(CONFIG_SCHEMAS[args.subcommand], sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.threads > 1 and args.subcommand != "aggregate":
            raise ConfigError(f"--threads {args.threads}: only aggregate runs trials in parallel")
        if args.config is None:
            raise ConfigError("--config is required")
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(str(exc)) from exc
        validate_config(args.subcommand, config)
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        # before the run: the nearest existing path at or above --out must be a directory
        outdir = Path(args.out)
        existing = next(p for p in (outdir, *outdir.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"{existing} is not a directory")
        out = RunOutput()
        threads = (args.threads,) if args.subcommand == "aggregate" else ()
        results = RUNNERS[args.subcommand](config, seed, out, *threads)
        outdir.mkdir(parents=True, exist_ok=True)
        out.write(outdir, config.get("emit_samples", True))
        echo = {**config, "seed": seed}
        summary = {"subcommand": args.subcommand, "seed": seed, "config": echo, "results": results}
        (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except ValueError as exc:  # ConfigError and every other bad-input error
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the config and data files raise ConfigError, so this is --out's
        print(f"error: config: --out {args.out}: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
