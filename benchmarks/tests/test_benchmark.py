"""Tests of the benchmark itself: its oracles pass on the package as it is,
fail on a deliberately skewed T_n, and its traced run reports every
per-layer metric.  Run with

    python3 -m pytest -q benchmarks/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from spans import Namespace, SpanRecorder
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = {
    "lme": (
        ("simulate-lme", "q = 0.8\nb = 0.5\nn_max = 120\npool_size = 8192\n"
                         "track_powers = 2,3\nseed = {seed}\n"),
    ),
    "brw": tuple(
        ("brw", f"mode = {mode}\nbeta = {beta!r}\ndepth = 6\nreplicas = 32768\n"
                "seed = {seed}\n")
        for mode, beta in (
            ("cascade", 0.5887050112577373),
            ("derivative", 1.1774100225154747),
            ("max", 1.0),
        )
    ),
    "laplace": (
        ("laplace", "q = 0.75\nb = 0.5\ninit = delta\nn_schedule = 200\nrefine = true\n"),
    ),
    "crosscheck": (
        ("rg-chain", "N = 256\nb = 0.3\na = 0.4\nn_max = 32\nq_list = 0.75,2\n"
                     "replicas = 1\nseed = {seed}\n"),
        ("prbm", "N_list = 64,96,128\nb = 0.1\nq = 2\nrealizations = 2\nseed = {seed}\n"),
    ),
}


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced tiny repetition of every workload, each
    starting from the cold caches a fresh worker process has."""
    m = worker.import_lmelab()
    out = {}
    for name in WORKLOADS:
        out[name] = []
        for trace in (False, True):
            m.engine._tn_cache.clear()
            m.laplace._kernel_cache.clear()
            out[name].append(worker.run_rep(name, 0, trace, configs=TINY[name]))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_check_passes_at_tiny_size(traced, name):
    for rep in traced[name]:
        assert rep["error"] is None
        assert rep["attempted"] > 0
        assert rep["failed"] == 0


def test_skewed_tn_fails_checks():
    def skew(rec, m):
        rec.patch(m.engine, "exact_Tn", lambda f: lambda q, eps: f(q, eps) * (1.0 + 1e-3))

    rep = worker.run_rep("lme", 0, False, configs=TINY["lme"], patch=skew)
    assert rep["error"] is None
    assert rep["failed"] > 0
    # the skew is undone once the run ends
    m = worker.import_lmelab()
    assert not hasattr(m.engine.exact_Tn, "__wrapped__")


def _skew_chain_angles(rec, m):
    # every rotation angle off by 1e-6: vectors stay orthonormal, but no
    # longer diagonalize their 2x2 blocks
    skewed = Namespace(math, atan=lambda x: math.atan(x) * (1.0 + 1e-6))
    rec.patch(m.chain, "math", lambda mod: skewed)


def _skip_chain_rotations(rec, m):
    # a chain that logs nothing and leaves every vector and level as it was
    def step_scale(state, params, rng):
        state.n += 1
        return state

    rec.patch(m.chain, "step_scale", lambda f: step_scale)


def _skew_prbm_iprs(rec, m):
    rec.patch(m.prbm, "central_half_log_iprs", lambda f: lambda v, q: f(v, q) + 1e-6)


def _sloppy_eigh(rec, m):
    # eigenvectors good to 1e-7, as a cheaper but inexact solver would give
    def eigh(h):
        w, v = np.linalg.eigh(h)
        return w, v + 1e-7

    rec.patch(m.prbm, "symmetric_eig", lambda f: lambda h: eigh(h))


@pytest.mark.parametrize(
    "patch", [_skew_chain_angles, _skip_chain_rotations, _skew_prbm_iprs, _sloppy_eigh]
)
def test_crosscheck_oracles_catch_wrong_results(patch):
    rep = worker.run_rep("crosscheck", 0, False, configs=TINY["crosscheck"], patch=patch)
    assert rep["error"] is None
    assert rep["failed"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(traced, name):
    reps = [dict(rep, setup_s=1.0, cal_s=run.CAL_REF_S) for rep in traced[name]]
    result = run.summarize(reps, trace=True)
    assert set(result["metrics"]) == {n for n, _, _ in worker.PER_LAYER}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_traced_layers_are_exercised(traced):
    """Each workload moves the layers it was chosen for."""
    layers = {name: reps[1]["layers"] for name, reps in traced.items()}
    assert layers["lme"]["engine.exact_Tn.calls"] > 0
    assert layers["lme"]["theta.expect_theta.calls"] > 0
    assert layers["lme"]["engine.step.ns_per_sample"] > 0
    assert layers["brw"]["brw.step_max.ns_per_sample"] > 0
    assert layers["brw"]["engine.exact_Tn.calls"] == 0
    assert layers["laplace"]["theta.folded_rule.calls"] > 0
    assert layers["laplace"]["laplace.residual_evals"] > layers["laplace"]["laplace.newton_krylov.calls"] > 0
    assert layers["crosscheck"]["chain.ipr.calls"] > 0
    assert layers["crosscheck"]["prbm.eigh.self_s"] > 0
    assert layers["crosscheck"]["chain.orthonormality_err"] < 1e-12
    for name in ("lme", "laplace"):
        assert layers[name]["trace.self_share"] == pytest.approx(1.0, abs=0.01)


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    rec.names = ["outer", "inner", "inner", "leaf"]
    rec.starts = [0.0, 1.0, 4.0, 4.5]
    rec.ends = [10.0, 2.0, 6.0, 5.0]
    rec.parents = [-1, 0, 0, 2]
    totals = rec.totals()
    assert totals["outer"]["self_s"] == pytest.approx(7.0)
    assert totals["inner"] == {"calls": 2, "total_s": 3.0, "self_s": pytest.approx(2.5)}
    assert totals["leaf"]["self_s"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in worker.PER_LAYER
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "lme", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
