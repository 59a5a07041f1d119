"""Any config that the schema accepts runs, or fails with a documented exit code.

Hand-written hypothesis strategies draw schema-valid configs for every
subcommand, with small particle counts and iteration budgets, including the
edge cases that the schema leaves open: dimensions that disagree between a
model, its init, surrogate or proposal and its points or data, RBMs without
hidden units, mixture weights that do not match the means, one particle, one
bootstrap replicate.  ``cli.main`` must exit 0, 2 (config error) or 3
(numerical failure), and a failing run writes exactly one ``error:`` line on
stderr.  A config whose dimensions disagree must exit 2 with an ``error:``
line that names a key that disagrees.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steinkit.cli import build_continuous_model, build_discrete_model, main, validate_config

EXAMPLES = 300

small_float = st.floats(-3.0, 3.0, allow_nan=False)
positive = st.floats(0.05, 4.0)
vector = st.lists(small_float, max_size=3)
point = st.lists(small_float, min_size=1, max_size=3)
matrix = st.integers(0, 3).flatmap(lambda cols: st.lists(st.lists(small_float, min_size=cols, max_size=cols),
                                                         max_size=3))
points = st.integers(1, 3).flatmap(lambda cols: st.lists(st.lists(small_float, min_size=cols, max_size=cols),
                                                         min_size=1, max_size=3))
bandwidth = st.one_of(positive, st.just("median-heuristic"))


def optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


kernel = optional(bandwidth=bandwidth)
schedule = optional(mode=st.sampled_from(["constant", "adam", "decay"]), eps=st.floats(0.0, 0.3),
                    beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.999), delta=st.floats(1e-10, 1e-3),
                    decay_exponent=st.floats(0.0, 1.0))
gaussian_spec = st.fixed_dictionaries({"mu": point, "sigma": positive})


def _normalized(w):
    total = sum(w)
    return [x / total for x in w] if total > 0 else [1.0 / len(w) for _ in w]


continuous_model = st.one_of(
    st.fixed_dictionaries({"type": st.just("gaussian"), "mu": point, "sigma": positive}),
    st.fixed_dictionaries({"type": st.just("gmm"),
                           "weights": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(_normalized),
                           "means": points, "sigma": positive},
                          optional={"log_scale": small_float, "normalized": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("gmm-random"), "components": st.integers(1, 3), "dim": st.integers(1, 3)},
                          optional={"low": small_float, "high": small_float, "sigma": positive,
                                    "log_scale": small_float, "normalized": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("gauss-bernoulli-rbm"), "B": matrix, "b": point, "c": vector}),
    st.fixed_dictionaries({"type": st.just("gauss-bernoulli-rbm-random"), "dim": st.integers(1, 3),
                           "hidden": st.integers(1, 3)}),
)
discrete_model = st.one_of(
    st.fixed_dictionaries({"type": st.just("ising-grid"), "rows": st.integers(1, 3), "cols": st.integers(1, 3),
                           "theta": small_float}),
    st.fixed_dictionaries({"type": st.just("bernoulli-rbm"), "W": matrix, "b": vector, "c": vector}),
    st.fixed_dictionaries({"type": st.just("bernoulli-rbm-random"), "dims": st.integers(1, 4),
                           "hidden": st.integers(1, 3)}, optional={"w_scale": positive}),
    st.fixed_dictionaries({"type": st.just("categorical"), "states": vector, "masses": vector}),
)
surrogate = st.one_of(st.just({"type": "target"}),
                      st.fixed_dictionaries({"type": st.just("gaussian"), "mu": point, "sigma": positive}))
surrogate_mode = st.sampled_from(["base", "relaxed", "ising"])
particles = st.integers(1, 8)
iterations = st.integers(0, 3)

# a data file is written next to the config; DATA stands for its path
csv_rows = st.integers(1, 3).flatmap(lambda width: st.lists(st.lists(st.integers(-1, 2), min_size=width,
                                                                     max_size=width), min_size=1, max_size=6))

CONFIGS = {
    "svgd": st.fixed_dictionaries(
        {"model": continuous_model, "n": particles, "iters": iterations},
        optional={"kernel": kernel, "schedule": schedule, "init": gaussian_spec, "metric_every": st.integers(1, 3),
                  "emit_samples": st.booleans(), "seed": st.integers(0, 5)}),
    "steinis": st.fixed_dictionaries(
        {"model": continuous_model, "q0": gaussian_spec, "iters": iterations},
        optional={"n_leaders": particles, "n_followers": particles, "kernel": kernel, "schedule": schedule,
                  "det_mode": st.sampled_from(["exact", "first-order", "auto"]), "emit_samples": st.booleans(),
                  "seed": st.integers(0, 5)}),
    "path-logz": st.fixed_dictionaries(
        {"model": continuous_model, "q0": gaussian_spec, "n": particles, "iters": iterations},
        optional={"kernel": kernel, "schedule": schedule, "m0": st.integers(1, 50), "seed": st.integers(0, 5)}),
    "aggregate": st.fixed_dictionaries(
        {"dim": st.integers(1, 3), "machines": st.integers(1, 3), "trials": st.integers(1, 2),
         "n_grid": st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True)},
        optional={"methods": st.lists(st.sampled_from(["kl-naive", "kl-control", "kl-weighted", "linear"]),
                                      min_size=1, max_size=4),
                  "big_n": st.floats(1e-3, 1e8), "known_covariance": st.booleans(), "seed": st.integers(0, 5)}),
    "oracle": st.fixed_dictionaries(
        {"oracle": st.sampled_from(["brute-force", "finite-difference-score"]),
         "model": st.one_of(continuous_model, discrete_model)},
        optional={"points": st.integers(1, 5), "seed": st.integers(0, 5)}),
    "discrete-sample": st.fixed_dictionaries(
        {"model": discrete_model, "n": particles, "iters": iterations},
        optional={"surrogate_mode": surrogate_mode, "kernel": kernel, "schedule": schedule,
                  "lam": positive, "temperature": positive, "seed": st.integers(0, 5)}),
    "gof": st.fixed_dictionaries(
        {"model": discrete_model,
         "data": st.one_of(st.fixed_dictionaries({"model": discrete_model, "n": st.integers(2, 20)}),
                           st.just({"path": "DATA"}))},
        optional={"alpha": st.floats(0.01, 0.99), "m": st.integers(1, 20), "surrogate_mode": surrogate_mode,
                  "kernel_h": bandwidth, "lam": positive, "seed": st.integers(0, 5)}),
    "bbis": st.fixed_dictionaries(
        {"model": continuous_model,
         "points": st.one_of(st.fixed_dictionaries({"mu": point, "sigma": positive, "n": particles}),
                             st.just({"path": "DATA"}))},
        optional={"surrogate": surrogate, "kernel_h": bandwidth, "max_iter": st.integers(1, 50),
                  "tol": st.floats(1e-12, 1e-2), "seed": st.integers(0, 5)}),
    "gfsvgd": st.fixed_dictionaries(
        {"model": continuous_model, "n": particles, "iters": iterations},
        optional={"surrogate": surrogate, "weight_mode": st.sampled_from(["self-normalized", "plain", "rank"]),
                  "kernel": kernel, "schedule": schedule, "init": gaussian_spec, "metric_every": st.integers(1, 3),
                  "emit_samples": st.booleans(), "seed": st.integers(0, 5)}),
    "agf-svgd": st.fixed_dictionaries(
        {"model": continuous_model, "p0": gaussian_spec, "n": particles, "n_temps": st.integers(1, 3)},
        optional={"kernel": kernel, "schedule": schedule, "smoothing_h": bandwidth,
                  "metric_every": st.integers(1, 3), "emit_samples": st.booleans(), "seed": st.integers(0, 5)}),
}


def run_config(subcommand, cfg, rows):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
        text = json.dumps(cfg).replace('"DATA"', json.dumps(str(data)))
        (Path(tmp) / "c.json").write_text(text)
        validate_config(subcommand, json.loads(text))  # the strategy draws schema-valid configs only
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([subcommand, "--config", str(Path(tmp) / "c.json"), "--out", str(Path(tmp) / "o")])
    return rc, err.getvalue().splitlines()


# the Gaussian specs and point sets that each continuous subcommand checks against its model
SPEC_KEYS = {"svgd": ("init",), "gfsvgd": ("surrogate", "init"), "agf-svgd": ("p0",), "steinis": ("q0",),
             "path-logz": ("q0",), "bbis": ("surrogate", "points")}


def _disagreeing_keys(subcommand, cfg, rows):
    """The keys of ``cfg`` whose dimension is not the model's."""
    try:
        if subcommand == "gof":
            if "model" not in cfg["data"]:
                return set()
            dim = build_discrete_model(cfg["model"], 0).dims
            sizes = {"data/model": build_discrete_model(cfg["data"]["model"], 0).dims}
        else:
            sizes = {f"{key}/mu": len(cfg[key]["mu"]) for key in SPEC_KEYS.get(subcommand, ())
                     if "mu" in cfg.get(key, {})}
            if cfg.get("points") == {"path": "DATA"}:
                sizes["points/path"] = len(rows[0])
            if not sizes:
                return set()
            dim = build_continuous_model(cfg["model"], 0).dim
    except ValueError:  # a model that does not build fails before any dimension is checked
        return set()
    return {key for key, size in sizes.items() if size != dim}


def _check(subcommand, cfg, rows):
    rc, err = run_config(subcommand, cfg, rows)
    assert rc in (0, 2, 3), (rc, err)
    errors = [line for line in err if line.startswith("error:")]
    if rc != 0:
        assert len(errors) == 1, err
    keys = _disagreeing_keys(subcommand, cfg, rows)
    if keys:
        assert rc == 2 and any(key in errors[0] for key in keys), (keys, err)


SETTINGS = settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(CONFIGS["discrete-sample"])
def test_discrete_sample_configs_exit_cleanly(cfg):
    _check("discrete-sample", cfg, [])


@SETTINGS
@given(CONFIGS["gof"], csv_rows)
def test_gof_configs_exit_cleanly(cfg, rows):
    _check("gof", cfg, rows)


@SETTINGS
@given(CONFIGS["bbis"], csv_rows)
def test_bbis_configs_exit_cleanly(cfg, rows):
    _check("bbis", cfg, rows)


@SETTINGS
@given(CONFIGS["gfsvgd"])
def test_gfsvgd_configs_exit_cleanly(cfg):
    _check("gfsvgd", cfg, [])


@SETTINGS
@given(CONFIGS["agf-svgd"])
def test_agf_svgd_configs_exit_cleanly(cfg):
    _check("agf-svgd", cfg, [])


@SETTINGS
@given(CONFIGS["svgd"])
def test_svgd_configs_exit_cleanly(cfg):
    _check("svgd", cfg, [])


@SETTINGS
@given(CONFIGS["steinis"])
def test_steinis_configs_exit_cleanly(cfg):
    _check("steinis", cfg, [])


@SETTINGS
@given(CONFIGS["path-logz"])
def test_path_logz_configs_exit_cleanly(cfg):
    _check("path-logz", cfg, [])


@SETTINGS
@given(CONFIGS["aggregate"])
def test_aggregate_configs_exit_cleanly(cfg):
    _check("aggregate", cfg, [])


@SETTINGS
@given(CONFIGS["oracle"])
def test_oracle_configs_exit_cleanly(cfg):
    _check("oracle", cfg, [])
