import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from steinkit import cli
from steinkit.cli import SUBCOMMANDS, build_continuous_model, build_discrete_model, main, validate_config
from steinkit.config_schema import _KERNEL, _SCHEDULE, CONFIG_SCHEMAS
from steinkit.kernels import KernelSpec
from steinkit.svgd import StepSchedule


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args):
    return main(args)


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0},
                                                "n": 5, "iters": 1, "mystery": True})
        rc = run_cli(["svgd", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0}})
        assert run_cli(["svgd", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["svgd", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_schemas_reject_unknown_keys_everywhere(self):
        for name, schema in CONFIG_SCHEMAS.items():
            assert schema["additionalProperties"] is False, name

    def test_schemas_are_valid_for_their_meta_schema(self):
        # validate_config does not run check_schema; this is where it runs
        for schema in CONFIG_SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_checked_in_configs_match_their_schemas(self):
        # configs/<subcommand>-<name>.json; the longest matching prefix names the subcommand
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert paths
        for path in paths:
            sub = max((s for s in CONFIG_SCHEMAS if path.stem == s or path.stem.startswith(s + "-")), key=len)
            validate_config(sub, json.loads(path.read_text()))

    def test_kernel_and_schedule_schemas_are_the_dataclass_fields(self):
        # build_kernel and build_schedule pass these objects to the dataclasses as keywords,
        # so the library's defaults are the CLI's
        for schema, cls in ((_KERNEL, KernelSpec), (_SCHEDULE, StepSchedule)):
            assert set(schema["properties"]) == {f.name for f in dataclasses.fields(cls)}
            assert schema["additionalProperties"] is False

    def test_print_schema(self, capsys):
        assert run_cli(["gof", "--print-schema"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["type"] == "object"


GAUSS_1D = {"type": "gaussian", "mu": [0.0], "sigma": 1.0}
ISING_2X2 = {"type": "ising-grid", "rows": 2, "cols": 2, "theta": 0.2}
RBM_3 = {"type": "bernoulli-rbm-random", "dims": 3, "hidden": 2}
CATEGORICAL_3 = {"type": "categorical", "states": [-1.0, 0.0, 2.0], "masses": [0.2, 0.5, 0.3]}
DUPLICATE_STATES = {"type": "categorical", "states": [0.0, 1.0, 0.0], "masses": [0.2, 0.3, 0.5]}
GAUSS_2D = {"type": "gaussian", "mu": [0.0, 0.0], "sigma": 1.0}
SPEC_1D = {"mu": [0.0], "sigma": 1.0}
BAD_INPUT = {
    # name: (subcommand, config with DATA standing for the data file, data file text or None if missing,
    #        optionally the text that the error line must hold)
    "svgd-one-particle-median": ("svgd", {"model": GAUSS_1D, "n": 1, "iters": 2}, None),
    "bbis-points-unparsable": ("bbis", {"model": GAUSS_1D, "points": {"path": "DATA"}}, "0.5\nnot-a-number\n"),
    "bbis-points-missing": ("bbis", {"model": GAUSS_1D, "points": {"path": "DATA"}}, None),
    "bbis-points-nan": ("bbis", {"model": GAUSS_1D, "points": {"path": "DATA"}}, "0.5\nnan\n1.2\n-0.3\n"),
    "bbis-points-inf": ("bbis", {"model": GAUSS_1D, "points": {"path": "DATA"}, "kernel_h": 1.0},
                        "0.5\ninf\n1.2\n-0.3\n"),
    "gof-data-unparsable": ("gof", {"model": ISING_2X2, "data": {"path": "DATA"}}, "1,0,1,0\n1,0,x,0\n"),
    "gof-state-index-out-of-range": ("gof", {"model": ISING_2X2, "data": {"path": "DATA"}}, "1,0,1,0\n1,0,2,0\n"),
    "gof-surrogate-exact": ("gof", {"model": ISING_2X2, "data": {"model": ISING_2X2, "n": 20},
                                    "surrogate_mode": "exact"}, None),
    "discrete-sample-surrogate-exact": ("discrete-sample", {"model": ISING_2X2, "n": 10, "iters": 2,
                                                           "surrogate_mode": "exact"}, None),
    # a key that the chosen surrogate does not read
    "discrete-sample-lam-without-ising": ("discrete-sample", {"model": ISING_2X2, "n": 10, "iters": 2, "lam": 2.0},
                                          None, "lam"),
    "discrete-sample-temperature-without-relaxed": ("discrete-sample", {"model": ISING_2X2, "n": 10, "iters": 2,
                                                                        "surrogate_mode": "ising",
                                                                        "temperature": 5.0}, None, "temperature"),
    "gof-lam-without-ising": ("gof", {"model": ISING_2X2, "data": {"model": ISING_2X2, "n": 20},
                                      "surrogate_mode": "relaxed", "lam": 2.0}, None, "lam"),
    # the ising mode on a model without couplings
    "discrete-sample-ising-on-rbm": ("discrete-sample", {"model": RBM_3, "n": 10, "iters": 2,
                                                         "surrogate_mode": "ising"}, None, "ising"),
    "gof-ising-on-rbm": ("gof", {"model": RBM_3, "data": {"model": RBM_3, "n": 20}, "surrogate_mode": "ising"},
                         None, "ising"),
    # the relaxed mode on a model without a relaxed energy
    "discrete-sample-relaxed-on-categorical": ("discrete-sample", {"model": CATEGORICAL_3, "n": 10, "iters": 2,
                                                                   "surrogate_mode": "relaxed"},
                                               None, "relaxed surrogate"),
    "gof-relaxed-on-categorical": ("gof", {"model": CATEGORICAL_3, "data": {"model": CATEGORICAL_3, "n": 20},
                                           "surrogate_mode": "relaxed"}, None, "relaxed surrogate"),
    "categorical-duplicate-states": ("discrete-sample", {"model": DUPLICATE_STATES, "n": 10, "iters": 2}, None),
    "oracle-without-model": ("oracle", {"oracle": "brute-force"}, None),
    "oracle-unread-eps": ("oracle", {"oracle": "finite-difference-score", "model": GAUSS_1D, "eps": 1e-4}, None),
    # a spec, points or data whose dimension is not the model's
    "svgd-init-dimension": ("svgd", {"model": GAUSS_2D, "n": 5, "iters": 2, "init": SPEC_1D}, None, "init/mu"),
    "gfsvgd-init-dimension": ("gfsvgd", {"model": GAUSS_2D, "n": 5, "iters": 2, "init": SPEC_1D}, None, "init/mu"),
    "gfsvgd-surrogate-dimension": ("gfsvgd", {"model": GAUSS_2D, "n": 5, "iters": 2,
                                              "surrogate": {"type": "gaussian", **SPEC_1D}}, None, "surrogate/mu"),
    "agf-svgd-p0-dimension": ("agf-svgd", {"model": GAUSS_2D, "p0": SPEC_1D, "n": 5, "n_temps": 2}, None, "p0/mu"),
    "steinis-q0-dimension": ("steinis", {"model": GAUSS_2D, "q0": SPEC_1D, "iters": 2}, None, "q0/mu"),
    "path-logz-q0-dimension": ("path-logz", {"model": GAUSS_2D, "q0": SPEC_1D, "n": 5, "iters": 2}, None, "q0/mu"),
    "bbis-surrogate-dimension": ("bbis", {"model": GAUSS_2D, "points": {"mu": [0.0, 0.0], "sigma": 1.0, "n": 5},
                                          "surrogate": {"type": "gaussian", **SPEC_1D}}, None, "surrogate/mu"),
    "bbis-points-mu-dimension": ("bbis", {"model": GAUSS_2D, "points": {**SPEC_1D, "n": 5}}, None, "points/mu"),
    "bbis-points-file-columns": ("bbis", {"model": GAUSS_1D, "points": {"path": "DATA"}},
                                 "0.5,1.0\n-0.3,0.2\n", "points/path"),
    "gof-data-model-dimension": ("gof", {"model": ISING_2X2, "data": {"model": {**ISING_2X2, "cols": 1}, "n": 20}},
                                 None, "data/model"),
    "gmm-weights-means-count": ("steinis", {"model": {"type": "gmm", "weights": [1.0], "sigma": 1.0, "normalized": True,
                                                      "means": [[0, 0], [3, 3], [-3, 3]]},
                                            "q0": {"mu": [0.0, 0.0], "sigma": 1.0}, "iters": 2}, None, "weights"),
    # a zero-dimensional continuous model, surrogate or point set
    "gaussian-mu-empty": ("svgd", {"model": {**GAUSS_1D, "mu": []}, "n": 5, "iters": 2}, None, "model/mu"),
    "gmm-means-empty": ("svgd", {"model": {"type": "gmm", "weights": [1.0], "means": [], "sigma": 1.0},
                                 "n": 5, "iters": 2}, None, "model/means:"),
    "gmm-mean-row-empty": ("svgd", {"model": {"type": "gmm", "weights": [1.0], "means": [[]], "sigma": 1.0},
                                    "n": 5, "iters": 2}, None, "model/means/0"),
    "gmm-weights-empty": ("svgd", {"model": {"type": "gmm", "weights": [], "means": [[0.0]], "sigma": 1.0},
                                   "n": 5, "iters": 2}, None, "model:"),
    "gauss-bernoulli-rbm-b-empty": ("svgd", {"model": {"type": "gauss-bernoulli-rbm", "B": [], "b": [], "c": []},
                                             "n": 5, "iters": 2}, None, "model/b"),
    "surrogate-mu-empty": ("gfsvgd", {"model": GAUSS_1D, "n": 5, "iters": 2,
                                      "surrogate": {"type": "gaussian", "mu": [], "sigma": 1.0}}, None, "surrogate/mu"),
    "bbis-points-mu-empty": ("bbis", {"model": GAUSS_1D, "points": {"mu": [], "sigma": 1.0, "n": 5}}, None,
                             "points/mu"),
    # a bootstrap size repeated in the grid, too few points per machine for a covariance draw
    "aggregate-n-grid-repeated": ("aggregate", {"methods": ["kl-control"], "machines": 2, "trials": 1, "dim": 1,
                                                "n_grid": [1, 1]}, None, "n_grid"),
    "aggregate-big-n-below-dim": ("aggregate", {"dim": 2, "machines": 2, "n_grid": [10], "trials": 1, "big_n": 3},
                                  None, "big_n"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUT))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, name):
    subcommand, cfg, data, *names = BAD_INPUT[name]
    data_path = tmp_path / "data.csv"
    if data is not None:
        data_path.write_text(data)
    cfg = json.loads(json.dumps(cfg).replace('"DATA"', json.dumps(str(data_path))))
    rc = run_cli([subcommand, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: config:")
    assert all(key in err[0] for key in names), err[0]


@pytest.mark.parametrize("subcommand, threads", [("discrete-sample", "8"), ("discrete-sample", "-3"),
                                                 ("aggregate", "0")])
def test_threads_out_of_range_exits_2_with_one_error_line(tmp_path, capsys, subcommand, threads):
    # only aggregate runs trials in parallel; no subcommand runs on fewer than one thread
    cfg = {"discrete-sample": {"model": ISING_2X2, "n": 10, "iters": 2},
           "aggregate": {"dim": 1, "machines": 2, "n_grid": [10], "trials": 1}}[subcommand]
    rc = run_cli([subcommand, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o"),
                  "--threads", threads])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: config:") and "--threads" in err[0], err


def test_categorical_states_keep_their_own_masses():
    states, masses = [1.0, -1.0, 0.0], [0.7, 0.2, 0.1]
    target = build_discrete_model({"type": "categorical", "states": states, "masses": masses}, 0)
    assert target.alphabet == (-1.0, 0.0, 1.0)
    for s, m in zip(states, masses):
        assert target.log_mass(np.array([[s]]))[0] == np.log(m)


TINY = {
    # subcommand: (a tiny config, the files its run writes besides metrics.csv and summary.json)
    "svgd": ({"model": GAUSS_1D, "n": 5, "iters": 3}, {"samples.csv"}),
    "gfsvgd": ({"model": GAUSS_1D, "n": 5, "iters": 3}, {"samples.csv"}),
    "agf-svgd": ({"model": GAUSS_1D, "p0": SPEC_1D, "n": 5, "n_temps": 2}, {"samples.csv"}),
    "steinis": ({"model": GAUSS_1D, "q0": SPEC_1D, "n_leaders": 5, "n_followers": 5, "iters": 2}, {"samples.csv"}),
    "path-logz": ({"model": GAUSS_1D, "q0": SPEC_1D, "n": 5, "iters": 2, "m0": 50}, set()),
    "discrete-sample": ({"model": ISING_2X2, "n": 10, "iters": 2}, {"samples.csv"}),
    "gof": ({"model": ISING_2X2, "data": {"model": ISING_2X2, "n": 10}, "m": 20}, {"report.json"}),
    "bbis": ({"model": GAUSS_1D, "points": {**SPEC_1D, "n": 5}, "max_iter": 50}, {"samples.csv"}),
    "aggregate": ({"dim": 1, "machines": 2, "n_grid": [10], "trials": 1}, {"rates.csv"}),
    "oracle": ({"oracle": "brute-force", "model": ISING_2X2}, set()),
}


@pytest.mark.parametrize("subcommand, emit_samples", [(s, None) for s in SUBCOMMANDS] + [
    (s, False) for s in SUBCOMMANDS if "emit_samples" in CONFIG_SCHEMAS[s]["properties"]])
def test_each_run_writes_its_files(tmp_path, subcommand, emit_samples):
    cfg, files = TINY[subcommand]
    if emit_samples is not None:
        cfg, files = {**cfg, "emit_samples": emit_samples}, files - {"samples.csv"}
    rc = run_cli([subcommand, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert {p.name for p in (tmp_path / "o").iterdir()} == {"metrics.csv", "summary.json"} | files


@pytest.mark.parametrize("subcommand, cfg, code", [
    ("discrete-sample", {"model": ISING_2X2, "n": 10, "iters": 2, "surrogate_mode": "exact"}, 2),
    ("gof", {"model": ISING_2X2, "data": {"model": {**ISING_2X2, "cols": 1}, "n": 10}}, 2),
    ("svgd", {"model": GAUSS_1D, "n": 5, "iters": 3, "schedule": {"mode": "constant", "eps": 1e9}}, 3),
    ("steinis", {"model": {"type": "gaussian", "mu": [0.0], "sigma": 0.01}, "q0": {"mu": [0.0], "sigma": 1.0},
                 "n_leaders": 10, "n_followers": 10, "iters": 5, "schedule": {"mode": "constant", "eps": 5.0},
                 "det_mode": "exact"}, 3),
])
def test_a_failed_run_writes_no_file(tmp_path, capsys, subcommand, cfg, code):
    rc = run_cli([subcommand, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert rc == code
    assert not list((tmp_path / "o").glob("*"))


@pytest.mark.parametrize("below", ["", "sub"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_the_run(tmp_path, capsys, monkeypatch, below):
    # an existing file, or a path below one (a permission-denied directory cannot be set up as root)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    calls = []
    monkeypatch.setattr(cli, "RUNNERS", {"svgd": lambda *args: calls.append(args) or {}})
    cfg = write_config(tmp_path, "c.json", TINY["svgd"][0])
    rc = run_cli(["svgd", "--config", cfg, "--out", str(afile / below)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: config: --out"), err
    assert afile.read_text() == "kept\n"
    assert calls == []


def test_a_failed_write_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(self, outdir, emit_samples):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.RunOutput, "write", refuse)
    rc = run_cli(["svgd", "--config", write_config(tmp_path, "c.json", TINY["svgd"][0]), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: config: --out"), err


@pytest.mark.parametrize("means", [[[-1.0], [2.5]], [[-1.0, 0.5], [1.5, -0.5]]])
def test_a_normalized_gmm_integrates_to_its_scale(means):
    # trapezoid quadrature over a grid wide enough that the tails are below 1e-12
    c = 0.7
    spec = {"type": "gmm", "weights": [0.3, 0.7], "means": means, "sigma": 0.8, "normalized": True, "log_scale": c}
    target = build_continuous_model(spec, 0)
    axis = np.linspace(-10.0, 10.0, 801)
    grid = np.stack(np.meshgrid(*[axis] * target.dim, indexing="ij"), axis=-1)
    dens = np.exp(target.log_density(grid.reshape(-1, target.dim))).reshape(grid.shape[:-1])
    for _ in range(target.dim):
        dens = np.trapezoid(dens, axis, axis=0)
    assert abs(dens / np.exp(c) - 1.0) <= 1e-6


class TestDeterminismAndReduction:
    def _svgd_cfg(self):
        return {"model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0}, "n": 20, "iters": 30,
                "seed": 3, "init": {"mu": [0.0], "sigma": 4.0}}

    def test_identical_config_reproduces_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self._svgd_cfg())
        assert run_cli(["svgd", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["svgd", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "samples.csv").read_bytes() == (tmp_path / "b" / "samples.csv").read_bytes()

    def test_gfsvgd_with_target_surrogate_reproduces_svgd_trace(self, tmp_path):
        cfg = self._svgd_cfg()
        svgd_path = write_config(tmp_path, "svgd.json", cfg)
        gf_cfg = dict(cfg)
        gf_cfg["surrogate"] = {"type": "target"}
        gf_path = write_config(tmp_path, "gf.json", gf_cfg)
        assert run_cli(["svgd", "--config", svgd_path, "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["gfsvgd", "--config", gf_path, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "samples.csv").read_bytes() == (tmp_path / "b" / "samples.csv").read_bytes()
        base_rows = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
        gf_rows = [
            row for row in (tmp_path / "b" / "metrics.csv").read_text().splitlines()
            if not row.split(",")[1] == "ess"
        ]
        assert base_rows == gf_rows

    def test_config_echo_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self._svgd_cfg())
        assert run_cli(["svgd", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "a")]) == 0
        echoed = json.loads((tmp_path / "a" / "summary.json").read_text())["config"]
        assert echoed["seed"] == 99
        replay = write_config(tmp_path, "echo.json", echoed)
        assert run_cli(["svgd", "--config", replay, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "samples.csv").read_bytes() == (tmp_path / "b" / "samples.csv").read_bytes()


class TestSubcommands:
    def test_steinis_summary(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "gaussian", "mu": [0.0, 0.0], "sigma": 1.0},
            "q0": {"mu": [0.0, 0.0], "sigma": 2.0},
            "n_leaders": 20, "n_followers": 20, "iters": 30,
            "schedule": {"mode": "decay", "eps": 0.3}, "seed": 4,
        })
        assert run_cli(["steinis", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["results"]["z_hat"] > 0
        assert (tmp_path / "o" / "samples.csv").exists()

    def test_path_logz(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0},
            "q0": {"mu": [0.0], "sigma": 2.0}, "n": 50, "iters": 50, "m0": 2000, "seed": 5,
            "kernel": {"bandwidth": 1.0}, "schedule": {"mode": "constant", "eps": 0.05},
        })
        assert run_cli(["path-logz", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        val = json.loads((tmp_path / "o" / "summary.json").read_text())["results"]["log_z"]
        assert np.isfinite(val)

    def test_discrete_sample_emits_state_indices(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "categorical", "states": [-1.0, 0.0, 1.0], "masses": [0.25, 0.45, 0.3]},
            "n": 60, "iters": 60, "seed": 6,
        })
        assert run_cli(["discrete-sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "samples.csv").read_text().strip().splitlines()
        vals = {int(r) for r in rows}
        assert vals <= {0, 1, 2}
        ks = json.loads((tmp_path / "o" / "summary.json").read_text())["results"]["within_bin_ks"]
        assert 0.0 < ks <= 1.0

    def test_gof_report(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "ising-grid", "rows": 2, "cols": 2, "theta": 0.2},
            "data": {"model": {"type": "ising-grid", "rows": 2, "cols": 2, "theta": 0.2}, "n": 80},
            "m": 200, "seed": 7,
        })
        assert run_cli(["gof", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert set(report) == {"statistic", "n_bootstrap", "critical_value", "p_value", "reject", "alpha", "seed"}
        assert report["reject"] == (report["p_value"] < report["alpha"])

    def test_gof_reads_state_csv(self, tmp_path):
        data = "\n".join("1,0,1,0" for _ in range(6)) + "\n" + "\n".join("0,1,0,1" for _ in range(6))
        (tmp_path / "data.csv").write_text(data + "\n")
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "ising-grid", "rows": 2, "cols": 2, "theta": 0.1},
            "data": {"path": str(tmp_path / "data.csv")}, "m": 100, "seed": 8,
        })
        assert run_cli(["gof", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_bbis(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0},
            "points": {"mu": [1.0], "sigma": 1.0, "n": 30}, "seed": 9,
        })
        assert run_cli(["bbis", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        res = json.loads((tmp_path / "o" / "summary.json").read_text())["results"]
        assert abs(res["weighted_mean"][0]) < abs(res["uniform_mean"][0])

    def test_aggregate_rate_csv(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "dim": 2, "machines": 3, "n_grid": [20, 40], "trials": 4, "seed": 10,
            "methods": ["kl-naive", "kl-weighted"],
        })
        assert run_cli(["aggregate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rates = (tmp_path / "o" / "rates.csv").read_text().splitlines()
        assert rates[0] == "method,d,n,trial,mse"
        assert len(rates) == 1 + 2 * 2 * 4

    def test_aggregate_threads_match_serial(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "dim": 2, "machines": 3, "n_grid": [20], "trials": 6, "seed": 11,
        })
        assert run_cli(["aggregate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["aggregate", "--config", cfg, "--out", str(tmp_path / "b"), "--threads", "3"]) == 0
        assert (tmp_path / "a" / "rates.csv").read_bytes() == (tmp_path / "b" / "rates.csv").read_bytes()

    def test_aggregate_slope_is_null_at_a_zero_mean_mse(self, tmp_path):
        # one machine's linear average is the exact KL optimum, so its MSE is 0 at every size
        cfg = write_config(tmp_path, "c.json", {"dim": 1, "machines": 1, "n_grid": [1, 2], "trials": 1,
                                                "methods": ["linear", "kl-naive"]})
        assert run_cli(["aggregate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "o" / "summary.json").read_text()
        methods = json.loads(text, parse_constant=reject)["results"]["methods"]
        assert methods["linear"]["mean_mse"] == {"1": 0.0, "2": 0.0}
        assert methods["linear"]["slope"] is None

    def test_aggregate_known_covariance_needs_no_covariance_draw(self, tmp_path):
        # the big_n bound protects the Wishart draw, which a known covariance skips
        cfg = write_config(tmp_path, "c.json", {"dim": 2, "machines": 2, "n_grid": [10], "trials": 1, "big_n": 3,
                                                "known_covariance": True})
        assert run_cli(["aggregate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_oracle_brute_force(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "oracle": "brute-force",
            "model": {"type": "ising-grid", "rows": 2, "cols": 2, "theta": 0.0},
        })
        assert run_cli(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "metrics.csv").read_text().splitlines()[1:]
        probs = np.array([float(r.split(",")[2]) for r in rows])
        assert probs.size == 16
        assert np.allclose(probs, 1.0 / 16.0, atol=1e-12)

    def test_oracle_finite_difference(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "oracle": "finite-difference-score",
            "model": {"type": "gmm", "weights": [0.5, 0.5], "means": [[-1.0], [1.0]], "sigma": 1.0},
            "points": 10,
        })
        assert run_cli(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        res = json.loads((tmp_path / "o" / "summary.json").read_text())["results"]
        assert res["max_rel_err"] < 1e-5


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"type": "gaussian", "mu": [0.0], "sigma": 1.0},
                                   "n": 5, "iters": 2, "seed": 1}))
        proc = subprocess.run(
            [sys.executable, "-m", "steinkit.cli", "svgd", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_cli_import_leaves_aggregation_unloaded(self):
        # aggregation pulls in scipy.stats and scipy.linalg and only `aggregate` needs them; scipy.stats
        # and scipy.optimize cost about 0.45 s of import time, which every subcommand would pay
        heavy = ("steinkit.aggregation", "scipy.linalg", "scipy.stats", "scipy.optimize")
        code = f"import sys, steinkit.cli; print([m in sys.modules for m in {heavy!r}])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == str([False] * len(heavy))
