"""One repetition of one workload, in the process that runs this file.

    python3 benchmarks/worker.py --workload lme --seed 0 --trace 0

prints one JSON line: the monotonic clock reading at the first compute
call (the parent subtracts its own reading from just before it started
this process to get the set-up time), the compute wall time, peak RSS, the
oracle checks attempted and failed and, with ``--trace 1``, the per-layer
metrics.  ``run.py`` starts one fresh worker per repetition so that every
repetition pays the imports, the config parsing and the cold caches that a
user pays on every run.
"""

from __future__ import annotations

import time

_T_PROCESS = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import Namespace, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "analytics", "theta", "engine", "moments", "laplace", "brw", "chain",
    "prbm", "harness", "streams", "errors",
)

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("engine.exact_Tn.calls", "count", "lower"),
    ("engine.exact_Tn.self_s", "s", "lower"),
    ("theta.expect_theta.calls", "count", "lower"),
    ("engine.step.self_s", "s", "lower"),
    ("engine.step.ns_per_sample", "ns", "lower"),
    ("engine.run.checkpoint_self_s", "s", "lower"),
    ("streams.derive_stream.calls", "count", "lower"),
    ("streams.derive_stream.self_s", "s", "lower"),
    ("streams.derive_stream.us_per_call", "us", "lower"),
    ("brw.step_cascade.self_s", "s", "lower"),
    ("brw.step_cascade.ns_per_sample", "ns", "lower"),
    ("brw.step_derivative.self_s", "s", "lower"),
    ("brw.step_derivative.ns_per_sample", "ns", "lower"),
    ("brw.step_max.self_s", "s", "lower"),
    ("brw.step_max.ns_per_sample", "ns", "lower"),
    ("theta.folded_rule.calls", "count", "lower"),
    ("theta.folded_rule.self_s", "s", "lower"),
    ("moments.moment_trajectory.self_s", "s", "lower"),
    ("laplace.iterate_phi.self_s", "s", "lower"),
    ("laplace.iterate_phi.ms_per_step", "ms", "lower"),
    ("laplace.refine_stationary.self_s", "s", "lower"),
    ("laplace.newton_krylov.calls", "count", "lower"),
    ("laplace.residual_evals", "count", "lower"),
    ("chain.step_scale.self_s", "s", "lower"),
    ("chain.step_scale.ms_per_scale", "ms", "lower"),
    ("chain.ipr.calls", "count", "lower"),
    ("chain.ipr.self_s", "s", "lower"),
    ("chain.rotations", "count", "lower"),
    ("chain.overlap_fraction", "1", "lower"),
    ("prbm.build_matrix.self_s", "s", "lower"),
    ("prbm.eigh.self_s", "s", "lower"),
    ("prbm.symmetric_eig.self_s", "s", "lower"),
    ("prbm.central_half_log_iprs.self_s", "s", "lower"),
    ("harness.parse_config.self_s", "s", "lower"),
    ("proc.import_s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.wall_raw_s", "s", "lower"),
    ("proc.setup_raw_s", "s", "lower"),
    ("proc.calibration_s", "s", "lower"),
    ("engine.oracle_z_max", "sigma", "lower"),
    ("brw.oracle_z_max", "sigma", "lower"),
    ("laplace.residual_max", "1", "lower"),
    ("laplace.m2_relerr", "1", "lower"),
    ("chain.orthonormality_err", "1", "lower"),
    ("theta.quad_warnings", "count", "lower"),
    ("errors.contract_violations", "count", "lower"),
    ("trace.self_share", "1", "higher"),
    ("trace.overhead_share", "1", "lower"),
)

# formed by run.py across the repetitions of a run
ACROSS_REPS = (
    "proc.wall_raw_s", "proc.setup_raw_s", "proc.calibration_s", "trace.overhead_share",
)

# spans whose self time and call count are reported as layer metrics; all
# but harness.parse_config (set-up) lie inside the compute wall time
SPANS = (
    "harness.parse_config",
    "engine.exact_Tn", "engine.step", "engine.run", "streams.derive_stream",
    "brw.step_cascade", "brw.step_derivative", "brw.step_max",
    "theta.folded_rule", "moments.moment_trajectory", "laplace.iterate_phi",
    "laplace.refine_stationary", "chain.step_scale", "chain.ipr",
    "prbm.build_matrix", "prbm.eigh", "prbm.symmetric_eig",
    "prbm.central_half_log_iprs",
)
# per-unit rates: metric -> (span, scale to the unit)
RATES = {
    "engine.step.ns_per_sample": ("engine.step", 1e9),
    "streams.derive_stream.us_per_call": ("streams.derive_stream", 1e6),
    "brw.step_cascade.ns_per_sample": ("brw.step_cascade", 1e9),
    "brw.step_derivative.ns_per_sample": ("brw.step_derivative", 1e9),
    "brw.step_max.ns_per_sample": ("brw.step_max", 1e9),
    "laplace.iterate_phi.ms_per_step": ("laplace.iterate_phi", 1e3),
    "chain.step_scale.ms_per_scale": ("chain.step_scale", 1e3),
}


def import_lmelab() -> SimpleNamespace:
    """Import every lmelab module from this checkout's ``src``."""
    if not (SRC / "lmelab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lmelab package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {n: importlib.import_module(f"lmelab.{n}") for n in MODULES}
    found = Path(mods["engine"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise ImportError(f"lmelab imported from {found}, not from {SRC}")
    return SimpleNamespace(**mods)


def install_spans(rec: SpanRecorder, m: SimpleNamespace) -> None:
    """Wrap the public layer functions of each module for the traced run."""

    def span(owner, attr, name):
        rec.patch(owner, attr, lambda f: rec.span(f, name))

    for attr in ("exact_Tn", "step", "run"):
        span(m.engine, attr, f"engine.{attr}")
    # each module imported derive_stream into its own namespace
    for mod in (m.engine, m.brw, m.chain, m.prbm):
        span(mod, "derive_stream", "streams.derive_stream")
    for attr in ("step_cascade", "step_derivative", "step_max"):
        span(m.brw, attr, f"brw.{attr}")
    span(m.theta, "folded_rule", "theta.folded_rule")
    span(m.moments, "moment_trajectory", "moments.moment_trajectory")
    span(m.laplace, "iterate_phi", "laplace.iterate_phi")
    span(m.laplace, "refine_stationary", "laplace.refine_stationary")
    span(m.chain, "step_scale", "chain.step_scale")
    span(m.chain, "ipr", "chain.ipr")
    for attr in ("build_matrix", "symmetric_eig", "central_half_log_iprs"):
        span(m.prbm, attr, f"prbm.{attr}")
    rec.patch(m.prbm, "linalg", lambda mod: Namespace(mod, eigh=rec.span(mod.eigh, "prbm.eigh")))
    span(m.harness, "parse_config", "harness.parse_config")
    # counted, not spanned: their time stays in the caller's self time
    rec.patch(m.theta, "expect_theta", lambda f: rec.counter(f, "theta.expect_theta.calls"))

    def counting_newton(solve):
        def wrapper(F, xin, *args, **kwargs):
            rec.counts["laplace.newton_krylov.calls"] += 1

            def objective(x):
                rec.counts["laplace.residual_evals"] += 1
                return F(x)

            return solve(objective, xin, *args, **kwargs)

        return wrapper

    rec.patch(m.laplace, "newton_krylov", counting_newton)


def layer_metrics(rec: SpanRecorder, units: dict, wall_s: float, extra: dict) -> dict:
    """Every per-layer metric but those run.py forms across repetitions;
    layers a workload never calls read 0."""
    totals = rec.totals()
    out = {name: 0.0 for name, _, _ in PER_LAYER if name not in ACROSS_REPS}
    accounted = 0.0
    for name in SPANS:
        row = totals.get(name)
        if row is None:
            continue
        if name != "harness.parse_config":
            accounted += row["self_s"]
        key = "engine.run.checkpoint_self_s" if name == "engine.run" else f"{name}.self_s"
        if key in out:
            out[key] = row["self_s"]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = row["calls"]
    for metric, (name, scale) in RATES.items():
        row = totals.get(name)
        if row is not None:
            out[metric] = row["self_s"] / (row["calls"] * units.get(name, 1)) * scale
    for name, count in rec.counts.items():
        out[name] = count
    out["trace.self_share"] = accounted / wall_s
    out.update(extra)
    return out


def run_rep(
    name: str,
    seed: int,
    trace: bool,
    *,
    configs=None,
    patch=None,
    spans_out: Path | None = None,
) -> dict:
    """Set up, compute and check one workload in this process.

    ``configs`` replaces the workload's config documents (tests use tiny
    ones); ``patch(recorder, modules)`` may wrap module attributes before
    the compute call and is undone before the oracle checks.
    """
    wl = WORKLOADS[name]
    m = import_lmelab()
    # from the first line of this file, so numpy's import (pulled in by
    # workloads.py before lmelab) is counted too
    import_s = time.monotonic() - _T_PROCESS
    rec = SpanRecorder()
    if trace:
        install_spans(rec, m)
    if patch is not None:
        patch(rec, m)
    try:
        parsed = [
            m.harness.parse_config(text.format(seed=seed), sub)
            for sub, text in (configs or wl.configs)
        ]
        params = wl.build(m, parsed)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t_start = time.monotonic()
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", m.errors.QuadratureWarning)
            try:
                result = wl.compute(m, params)
            except Exception as exc:  # a failed run is a measurement, not a crash
                error = exc
        wall_s = time.monotonic() - t_start
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        rec.restore()
    margins = {
        "theta.quad_warnings": sum(
            issubclass(w.category, m.errors.QuadratureWarning) for w in caught
        ),
        "errors.contract_violations": int(isinstance(error, m.errors.ContractViolation)),
    }
    # an exception in the compute or in the checks fails every check
    n_checks = wl.n_checks(params)
    passes = [False] * n_checks
    if error is None:
        try:
            found_passes, found = wl.checks(m, params, result)
            if len(found_passes) != n_checks:
                raise RuntimeError(f"{name}: {len(found_passes)} checks, expected {n_checks}")
            passes = found_passes
            margins.update(found)
        except Exception as exc:
            error = exc
    out = {
        "t_compute_start": t_start,
        "wall_s": wall_s,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": n_checks,
        "failed": passes.count(False),
        "error": None if error is None else "".join(
            traceback.format_exception_only(type(error), error)
        ).strip(),
    }
    if trace:
        margins["proc.import_s"] = import_s
        margins["proc.cpu_s"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
        out["layers"] = layer_metrics(rec, wl.units(params), wall_s, margins)
        if spans_out is not None:
            rec.dump(spans_out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)
    out = run_rep(args.workload, args.seed, bool(args.trace), spans_out=args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
