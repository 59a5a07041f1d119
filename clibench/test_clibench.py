"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest clibench

Each workload runs end to end at the tiny size, traced and untraced, and
every output check is shown to reject a known-wrong output and to accept a
right one made without the program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as wl
from run import PER_LAYER
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = ("setup_s", "run_s", "op_p50_s", "peak_rss_mb")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "clibench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(PER_LAYER if trace else END_TO_END)
    assert all(m["value"] >= 0 for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in END_TO_END)


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        for make, _, _ in wl.WORKLOADS.values():
            make(5, d, "tiny")
    for f in sorted(a.iterdir()):
        assert f.read_text() == (b / f.name).read_text().replace(str(b), str(a)), f.name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "clibench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "bbis-qp", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# discrete-ising
# ---------------------------------------------------------------------------

def _ising_plan(tmp_path):
    return wl.make_discrete_ising(0, tmp_path, "tiny")


def _ising_outputs(spins_per_op):
    return [{"samples": [[str(int(v)) for v in (row + 1) / 2] for row in spins], "n_samples": len(spins)}
            for spins in spins_per_op]


def test_discrete_check_accepts_exact_samples(tmp_path):
    plan = _ising_plan(tmp_path)
    states, probs = wl.ising_law(**wl.ISING)
    rng = np.random.default_rng(0)
    draws = [states[rng.choice(len(probs), size=plan.truth["n"], p=probs)] for _ in plan.ops]
    assert wl.check_discrete_ising(plan, _ising_outputs(draws)) == []


def test_discrete_check_rejects_uniform_states(tmp_path):
    plan = _ising_plan(tmp_path)
    rng = np.random.default_rng(0)
    draws = [rng.choice([-1.0, 1.0], size=(plan.truth["n"], 9)) for _ in plan.ops]
    errors = wl.check_discrete_ising(plan, _ising_outputs(draws))
    assert any("neighbour correlation" in e for e in errors)


def test_discrete_check_rejects_shifted_site_means_and_bad_rows(tmp_path):
    plan = _ising_plan(tmp_path)
    ones = [np.ones((plan.truth["n"], 9)) for _ in plan.ops]
    assert any("site mean" in e for e in wl.check_discrete_ising(plan, _ising_outputs(ones)))
    outputs = _ising_outputs(ones)
    outputs[0]["samples"][3][2] = "2"
    assert any("entries in {0, 1}" in e for e in wl.check_discrete_ising(plan, outputs))
    outputs = _ising_outputs(ones)
    outputs[0]["samples"].pop()
    assert any("sample rows" in e for e in wl.check_discrete_ising(plan, outputs))


# ---------------------------------------------------------------------------
# steinis-gmm
# ---------------------------------------------------------------------------

def _steinis_outputs(plan, z_centre, ess=80.0, offset=0.0):
    rng = np.random.default_rng(1)
    mean = np.asarray(plan.truth["mixture_mean"]) + offset
    return [{"z_hat": float(z_centre + 0.15 * rng.standard_normal()), "ess": ess,
             "mean": (mean + 0.05 * rng.standard_normal(2)).tolist()} for _ in range(30)]


def test_steinis_check_accepts_unbiased_z_hat(tmp_path):
    plan = wl.make_steinis_gmm(0, tmp_path, "tiny")
    assert wl.check_steinis_gmm(plan, _steinis_outputs(plan, 2.0)) == []


def test_steinis_check_rejects_z_hat_centred_on_one(tmp_path):
    plan = wl.make_steinis_gmm(0, tmp_path, "tiny")
    errors = wl.check_steinis_gmm(plan, _steinis_outputs(plan, 1.0))
    assert any("Z-hat" in e for e in errors)


def test_steinis_check_rejects_bad_ess_and_wrong_mean(tmp_path):
    plan = wl.make_steinis_gmm(0, tmp_path, "tiny")
    assert any("ESS" in e for e in wl.check_steinis_gmm(plan, _steinis_outputs(plan, 2.0, ess=101.0)))
    assert any("ESS" in e for e in wl.check_steinis_gmm(plan, _steinis_outputs(plan, 2.0, ess=0.5)))
    errors = wl.check_steinis_gmm(plan, _steinis_outputs(plan, 2.0, offset=1.0))
    assert any("self-normalised mean" in e for e in errors)


# ---------------------------------------------------------------------------
# gof-ising
# ---------------------------------------------------------------------------

def _report(p, m=200, alpha=0.05, statistic=1.0):
    reject = p < alpha
    return {"statistic": statistic, "critical_value": statistic - 1.0 if reject else statistic + 1.0,
            "p_value": p, "reject": reject, "alpha": alpha, "n_bootstrap": m, "seed": 0}


def test_gof_check_accepts_consistent_reports(tmp_path):
    plan = wl.make_gof_ising(0, tmp_path, "tiny")
    outputs = [_report(0.5 if op.meta["kind"] == "null" else 1 / 201) for op in plan.ops]
    assert wl.check_gof_ising(plan, outputs) == []


def test_gof_check_rejects_reject_flag_disagreeing_with_p_value(tmp_path):
    plan = wl.make_gof_ising(0, tmp_path, "tiny")
    outputs = [_report(0.5 if op.meta["kind"] == "null" else 1 / 201) for op in plan.ops]
    outputs[0]["reject"] = True
    assert any("reject=True" in e for e in wl.check_gof_ising(plan, outputs))
    outputs = [_report(0.5 if op.meta["kind"] == "null" else 1 / 201) for op in plan.ops]
    outputs[0]["critical_value"] = outputs[0]["statistic"] - 1.0  # statistic > c but p >= alpha
    assert any("critical value" in e for e in wl.check_gof_ising(plan, outputs))


def test_gof_check_rejects_p_value_out_of_range_and_bad_level_or_power(tmp_path):
    plan = wl.make_gof_ising(0, tmp_path, "tiny")
    outputs = [_report(0.5 if op.meta["kind"] == "null" else 1 / 201) for op in plan.ops]
    outputs[1] = _report(0.0)
    assert any("outside [1/(m+1), 1]" in e for e in wl.check_gof_ising(plan, outputs))
    big = wl.make_gof_ising(0, tmp_path, "full")
    always = [_report(1 / 1001, m=1000) for _ in big.ops]
    assert any("null data sets rejected" in e for e in wl.check_gof_ising(big, always))
    never = [_report(0.5, m=1000) for _ in big.ops]
    assert any("data sets rejected, at least" in e for e in wl.check_gof_ising(big, never))


def test_binomial_bounds():
    assert wl.max_allowed(15, 0.08) == 5
    assert wl.min_required(15, 0.9) == 9
    assert wl.binom_tail_ge(6, 15, 0.08) <= wl.TAIL < wl.binom_tail_ge(5, 15, 0.08)
    assert math.isclose(wl.binom_tail_ge(0, 7, 0.3), 1.0)


# ---------------------------------------------------------------------------
# bbis-qp
# ---------------------------------------------------------------------------

def _bbis_outputs(plan, weights_fn):
    outputs = []
    for op in plan.ops:
        x = np.asarray(op.meta["points"])
        w = weights_fn(x)
        outputs.append({"points": x.tolist(), "weights": w.tolist(), "objective": 0.5,
                        "objective_uniform": 1.0, "weighted_mean": float(w @ x), "uniform_mean": float(x.mean())})
    return outputs


def _towards_zero(x):
    w = np.exp(-x)  # N(1,1) -> N(0,1) importance ratio
    return w / w.sum()


def test_bbis_check_accepts_importance_weights(tmp_path):
    plan = wl.make_bbis_qp(0, tmp_path, "tiny")
    assert wl.check_bbis_qp(plan, _bbis_outputs(plan, _towards_zero)) == []


def test_bbis_check_rejects_weights_off_the_simplex(tmp_path):
    plan = wl.make_bbis_qp(0, tmp_path, "tiny")
    errors = wl.check_bbis_qp(plan, _bbis_outputs(plan, lambda x: 1.1 * _towards_zero(x)))
    assert any("off the simplex" in e for e in errors)
    errors = wl.check_bbis_qp(plan, _bbis_outputs(plan, lambda x: _towards_zero(x) * 2 - 1 / x.size))
    assert any("off the simplex" in e for e in errors)


def test_bbis_check_rejects_objective_increase_and_no_gain(tmp_path):
    plan = wl.make_bbis_qp(0, tmp_path, "tiny")
    outputs = _bbis_outputs(plan, _towards_zero)
    outputs[0]["objective"] = 1.01
    assert any("above the uniform-weight objective" in e for e in wl.check_bbis_qp(plan, outputs))
    uniform = _bbis_outputs(plan, lambda x: np.full(x.size, 1.0 / x.size))
    assert any("beat the uniform mean" in e for e in wl.check_bbis_qp(plan, uniform))
    outputs = _bbis_outputs(plan, _towards_zero)
    outputs[0]["points"][0] += 1.0
    assert any("input points" in e for e in wl.check_bbis_qp(plan, outputs))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_restores_attributes_and_nests_spans():
    sys.path.insert(0, str(ROOT / "src"))
    from steinkit import gfsvgd, kernels, svgd

    before = (kernels.median_bandwidth, gfsvgd.stein_direction, svgd.stein_direction)
    tracer = Tracer()
    x = np.random.default_rng(0).standard_normal((30, 2))
    with tracer.installed():
        assert kernels.median_bandwidth is not before[0]
        outer = tracer.span("outer", lambda: (kernels.median_bandwidth(x), svgd.stein_direction(x, -x, np.ones(30), 30.0, 1.0)))
        outer()
    assert (kernels.median_bandwidth, gfsvgd.stein_direction, svgd.stein_direction) == before
    assert tracer.calls["kernels.median_bandwidth"] == 1 == tracer.calls["kernels.pairwise_sq_dists"]
    assert tracer.counts["kernels.pairwise_sq_dists.pairs"] == 900
    assert tracer.counts["svgd.stein_direction.pairs"] == 900
    children = tracer.time["kernels.median_bandwidth"] + tracer.time["svgd.stein_direction"]
    assert math.isclose(tracer.self_time["outer"], tracer.time["outer"] - children, abs_tol=1e-12)
    assert 0 <= tracer.self_time["kernels.median_bandwidth"] <= tracer.time["kernels.median_bandwidth"]


def test_halvings():
    from tracing import _halvings

    assert _halvings(0.3, 0.3) == 0
    assert _halvings(0.3, 0.3 * 0.5 ** 3) == 3
