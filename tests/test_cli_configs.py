"""Any config that the schema accepts runs, or fails with a documented exit code.

Hand-written hypothesis strategies draw schema-valid configs for the
``discrete-sample``, ``gof``, ``bbis``, ``gfsvgd`` and ``agf-svgd`` subcommands,
with small particle counts and iteration budgets, including the edge cases
that the schema leaves open: dimensions that disagree between a model, its
surrogate and its data, empty RBMs and mixtures, one particle, one bootstrap
replicate.  ``cli.main`` must exit 0, 2 (config error) or 3 (numerical
failure), and a failing run writes exactly one ``error:`` line on stderr.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steinkit.cli import main, validate_config

EXAMPLES = 300

small_float = st.floats(-3.0, 3.0, allow_nan=False)
positive = st.floats(0.05, 4.0)
vector = st.lists(small_float, max_size=3)
matrix = st.integers(0, 3).flatmap(lambda cols: st.lists(st.lists(small_float, min_size=cols, max_size=cols),
                                                         max_size=3))
bandwidth = st.one_of(positive, st.just("median-heuristic"))


def optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


kernel = optional(bandwidth=bandwidth)
schedule = optional(mode=st.sampled_from(["constant", "adam", "decay"]), eps=st.floats(0.0, 0.3),
                    beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.999), delta=st.floats(1e-10, 1e-3),
                    decay_exponent=st.floats(0.0, 1.0))
gaussian_spec = st.fixed_dictionaries({"mu": st.lists(small_float, min_size=1, max_size=3), "sigma": positive})


def _normalized(w):
    total = sum(w)
    return [x / total for x in w] if total > 0 else [1.0 / len(w) for _ in w]


continuous_model = st.one_of(
    st.fixed_dictionaries({"type": st.just("gaussian"), "mu": vector, "sigma": positive}),
    st.fixed_dictionaries({"type": st.just("gmm"), "weights": st.lists(st.floats(0.0, 1.0), max_size=3).map(_normalized),
                           "means": matrix, "sigma": positive},
                          optional={"log_scale": small_float, "normalized": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("gmm-random"), "components": st.integers(1, 3), "dim": st.integers(1, 3)},
                          optional={"low": small_float, "high": small_float, "sigma": positive,
                                    "log_scale": small_float, "normalized": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("gauss-bernoulli-rbm"), "B": matrix, "b": vector, "c": vector}),
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
                      st.fixed_dictionaries({"type": st.just("gaussian"), "mu": vector, "sigma": positive}))
surrogate_mode = st.sampled_from(["base", "relaxed", "ising"])
particles = st.integers(1, 8)
iterations = st.integers(0, 3)

# a data file is written next to the config; DATA stands for its path
csv_rows = st.integers(1, 3).flatmap(lambda width: st.lists(st.lists(st.integers(-1, 2), min_size=width,
                                                                     max_size=width), min_size=1, max_size=6))

CONFIGS = {
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
         "points": st.one_of(st.fixed_dictionaries({"mu": vector, "sigma": positive, "n": particles}),
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


def _check(subcommand, cfg, rows):
    rc, err = run_config(subcommand, cfg, rows)
    assert rc in (0, 2, 3), (rc, err)
    if rc != 0:
        assert sum(line.startswith("error:") for line in err) == 1, err


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
