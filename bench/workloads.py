"""Workloads, sessions, output checks and metrics of the learning-loop benchmark.

A session is one call of a public harness entry point (`run_learn` or
`run_baseline`) at one program seed.  A plain run makes sessions on
successive seeds derived from the workload seed until the time budget is
spent (at least one) and reports medians; a traced run makes its first
session plain and then the same session traced.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from gppi import control, harness, protocols
from gppi.errors import GppiError
from gppi.gp import GpModel

import tracing

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Largest relative deviation allowed between the factors the learning loop
# carries (rank-1 extensions, eviction refactorizations) and a fresh
# factorization of the same training set and hyperparameters.  The rank-1
# path deviates by about 1e-11 at N = 90; eviction refactorizes and matches
# exactly, until a downdate replaces it.
GP_FACTOR_RTOL = 1e-6

# Sessions of one run use seeds seed * MAX_SESSIONS + 0, 1, ...
MAX_SESSIONS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "learn" or "baseline"
    protocol: object              # protocols.* config builder
    overrides: dict               # section -> {key: value} over the protocol
    toy: dict                     # further overrides for the self-test size


WORKLOADS = {w.name: w for w in (
    Workload(
        "cartpole-learn", "learn", protocols.cartpole_swingup,
        {"protocol": {"trials": 1, "init_rollouts": 3, "max_points": 100},
         "cost": {"horizon_steps": 30}},
        {"cost": {"horizon_steps": 6}, "protocol": {"init_rollouts": 2,
                                                    "max_points": 10}}),
    Workload(
        "dpc-learn", "learn", protocols.dpc_swingup,
        {"protocol": {"trials": 2, "max_points": 100},
         "cost": {"horizon_steps": 30}},
        {"cost": {"horizon_steps": 5}, "protocol": {"init_rollouts": 2,
                                                    "max_points": 8}}),
    Workload(
        "cartpole-sampling-pi", "baseline", protocols.cartpole_swingup,
        {"protocol": {"baseline_samples": 25, "baseline_iterations": 2}},
        {"cost": {"horizon_steps": 6}, "protocol": {"baseline_samples": 4,
                                                    "baseline_iterations": 1}}),
)}


def make_config(workload: Workload, seed: int, out_dir: Path, toy: bool) -> dict:
    cfg = workload.protocol(seed=seed, output_dir=str(out_dir))
    for layer in (workload.overrides, workload.toy if toy else {}):
        for section, values in layer.items():
            cfg[section].update(values)
    return cfg


# ---------------------------------------------------------------------------
# Machine-speed reference
# ---------------------------------------------------------------------------

# A 2-vCPU machine on a shared host runs identical work up to 1.5x slower
# for minutes at a time.  A plain run therefore times a fixed computation of
# its own between sessions and reports times scaled to the speed at which
# that computation takes REFERENCE_NOMINAL_S, its duration on such a machine
# in a fast spell.
REFERENCE_NOMINAL_S = 0.25
_REF_RNG = np.random.default_rng(20150907)
_REF_X = _REF_RNG.standard_normal((100, 4))
_REF_W = np.array([1.0, 0.5, 2.0, 0.3])
_REF_ALPHA = _REF_RNG.standard_normal(100)
_REF_GRAM = _REF_X @ _REF_X.T + 10.0 * np.eye(100)


def reference_s() -> float:
    """Wall time of a fixed mix shaped like the program's hot paths: small
    stacked numpy ops (moment matching), Cholesky solves at N = 100 (GP
    fits) and scalar Python arithmetic (plant dynamics).  It calls nothing
    in gppi, so no change to the program can move it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        zeta = _REF_X - 0.5 * _REF_X[i % 100]
        S = (0.01 + 0.001 * i) * np.eye(4)
        Y = np.linalg.solve(S * (2 * _REF_W) + np.eye(4), S)
        eta = zeta * _REF_W
        q = np.exp(0.5 * (eta @ Y) @ eta.T
                   - 0.5 * np.einsum("ij,ij->i", eta, zeta)[:, None])
        acc += float(_REF_ALPHA @ q @ _REF_ALPHA)
    for i in range(800):
        L = np.linalg.cholesky(_REF_GRAM + (i % 50) * np.eye(100))
        acc += float(np.linalg.solve(L, _REF_ALPHA)[0])
    x = [0.0, 0.0, 0.1, 0.0]
    for _ in range(120000):
        s, c = math.sin(x[2]), math.cos(x[2])
        x = [x[0] + 0.001 * x[1], x[1] + 0.001 * s * c,
             x[2] + 0.001 * x[3], x[3] - 0.001 * (9.81 * s + c)]
    if not math.isfinite(acc + x[0]):
        raise RuntimeError("reference computation overflowed")
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Probes: the two hooks a plain session needs, O(1) per harness call
# ---------------------------------------------------------------------------

class _Probe:
    """Records (start, end, first argument) of each call of owner.attr."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.calls: list = []

    def __enter__(self):
        orig = self.orig = self.owner.__dict__[self.attr]
        calls = self.calls

        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            result = orig(*args, **kwargs)
            calls.append((t0, time.perf_counter(), args[0]))
            return result

        setattr(self.owner, self.attr, probe)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.orig)


@dataclass
class Session:
    """What one harness call produced, as the benchmark reports it."""

    trial_s: list
    learn_s: float
    setup_s: float
    terminal_cost: float
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)
    sample_steps: int = 0
    log_counts: dict = field(default_factory=dict)


def _learn_session(cfg: dict, out_dir: Path) -> Session:
    with _Probe(control, "refit") as refits:
        t0 = time.perf_counter()
        res = harness.run_learn(cfg)
        learn_s = time.perf_counter() - t0
    metrics = res["metrics"]
    failed = sum(1 for m in metrics if m.aborted)
    checks = {
        "metrics_csv_matches": _learn_csv_matches(out_dir / "metrics.csv", metrics),
        # every model handed to a refit was built by the incremental paths
        "gp_factors_match_refactorization": all(
            factor_deviation(model) <= GP_FACTOR_RTOL
            for _, _, model in refits.calls),
    }
    return Session(
        trial_s=[m.wall_seconds for m in metrics], learn_s=learn_s,
        setup_s=refits.calls[0][1] - t0,
        terminal_cost=float(metrics[-1].terminal_cost),
        attempted=len(metrics), failed=failed, checks=checks)


def _baseline_session(cfg: dict, out_dir: Path) -> Session:
    full = harness.fill_defaults(cfg)
    cost = harness.build_cost(full["cost"], full["plant"]["dt"])
    proto = full["protocol"]
    with _Probe(harness, "sampling_pi_control") as sampling:
        t0 = time.perf_counter()
        res = harness.run_baseline(cfg)
        learn_s = time.perf_counter() - t0
    (s0, s1, _), = sampling.calls
    terminal = cost.terminal_cost(res["states"][-1])
    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        row, = csv.DictReader(fh)
    return Session(
        trial_s=[s1 - s0], learn_s=learn_s, setup_s=s0 - t0,
        terminal_cost=terminal, attempted=1, failed=0,
        checks={"metrics_csv_matches": float(row["terminal_cost"]) == terminal},
        sample_steps=(int(proto["baseline_samples"]) * cost.horizon_steps
                      * int(proto["baseline_iterations"])))


def _learn_csv_matches(path: Path, metrics) -> bool:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(metrics):
        return False
    return all(int(r["trial"]) == m.trial
               and _same(float(r["terminal_log_psi"]), m.terminal_log_psi)
               and _same(float(r["terminal_cost"]), m.terminal_cost)
               for r, m in zip(rows, metrics))


def _same(a: float, b: float) -> bool:
    """Bit-level float equality that treats NaN as equal to NaN."""
    return (math.isnan(a) and math.isnan(b)) or a == b


def factor_deviation(model: GpModel) -> float:
    """Largest relative deviation of the carried factors from a fresh
    factorization of the same training set and hyperparameters."""
    ref = GpModel.from_data(model.train, model.hyper, model.max_points)
    worst = 0.0
    for name in ("chols", "inv_grams", "alphas"):
        for got, want in zip(getattr(model, name), getattr(ref, name)):
            if want.size:
                scale = max(float(np.max(np.abs(want))), 1e-300)
                worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return worst


def run_session(workload: Workload, seed: int, runs_dir: Path, tag: str,
                toy: bool = False) -> Session:
    """One harness call at program seed `seed` in a fresh run directory,
    removed afterwards."""
    out_dir = runs_dir / f"{workload.name}-s{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = make_config(workload, seed, out_dir, toy)
    try:
        with tracing.LogCounter() as logs:
            if workload.kind == "learn":
                session = _learn_session(cfg, out_dir)
            else:
                session = _baseline_session(cfg, out_dir)
    except GppiError as exc:
        # the harness gave up (every trial aborted, or the baseline raised):
        # the whole call counts as failed and its metrics as missing
        print(f"{workload.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        attempted = int(cfg["protocol"]["trials"]) if workload.kind == "learn" else 1
        nan = float("nan")
        session = Session([nan], nan, nan, nan, attempted, attempted)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    session.log_counts = dict(logs.counts)
    return session


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    metrics: dict                 # name -> value
    attempted: int
    failed: int
    checks: dict                  # name -> bool
    info: dict                    # extra facts for the first output line


def session_seed(seed: int, index: int) -> int:
    """Program seed of a run's index-th session; runs of different seeds
    share none."""
    return seed * MAX_SESSIONS + index


def plain_run(workload: Workload, seed: int, seconds: float, runs_dir: Path,
              toy: bool = False) -> RunResult:
    """Sessions on successive session seeds while the next one is expected
    to end within `seconds` (at least one), with a reference timing before
    the first and after each; medians over all of them, each session's
    times scaled to the reference speed around it."""
    sessions: list = []
    refs = [reference_s()]
    start = time.perf_counter()
    while len(sessions) < MAX_SESSIONS:
        sessions.append(run_session(workload, session_seed(seed, len(sessions)),
                                    runs_dir, "plain", toy))
        refs.append(reference_s())
        elapsed = time.perf_counter() - start
        if elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            break
    # each session is scaled by the mean of the two reference timings
    # around it, which saw the same spell of host load
    scale = [2.0 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    metrics = {
        "trial_s": statistics.median(t * k for s, k in zip(sessions, scale)
                                     for t in s.trial_s),
        "learn_s": statistics.median(s.learn_s * k for s, k in zip(sessions, scale)),
        "setup_s": statistics.median(s.setup_s * k for s, k in zip(sessions, scale)),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "trial_s": statistics.median(t for s in sessions for t in s.trial_s),
        "learn_s": statistics.median(s.learn_s for s in sessions),
        "setup_s": statistics.median(s.setup_s for s in sessions),
    }
    checks = _merge_checks(sessions)
    checks["metrics_finite"] = all(math.isfinite(v) for v in metrics.values())
    return RunResult(metrics, sum(s.attempted for s in sessions),
                     sum(s.failed for s in sessions), checks,
                     {"sessions": len(sessions),
                      "reference_s": statistics.median(refs), "unscaled": raw,
                      "terminal_costs": [s.terminal_cost for s in sessions]})


def traced_run(workload: Workload, seed: int, runs_dir: Path, spans_path: Path,
               toy: bool = False) -> RunResult:
    """The run's first session plain, then the same session traced."""
    seed0 = session_seed(seed, 0)
    plain = run_session(workload, seed0, runs_dir, "plain", toy)
    with tracing.Tracer() as tracer:
        traced = run_session(workload, seed0, runs_dir, "traced", toy)
    tracer.write(spans_path)
    layers = tracing.layer_metrics(tracer, traced.log_counts, traced.learn_s)
    layers["terminal_cost"] = plain.terminal_cost
    layers["failed_frac"] = plain.failed / plain.attempted
    layers["pi_sample_steps_per_s"] = (plain.sample_steps / plain.trial_s[0]
                                       if plain.sample_steps else 0.0)
    layers["trace.overhead_frac"] = (statistics.median(traced.trial_s)
                                     / statistics.median(plain.trial_s) - 1.0)

    checks = _merge_checks([plain, traced])
    checks["traced_matches_plain"] = (
        _same(traced.terminal_cost, plain.terminal_cost)
        and traced.failed / traced.attempted == plain.failed / plain.attempted)
    checks.update(count_identities(
        workload, make_config(workload, seed0, runs_dir, toy), tracer, layers,
        traced))
    checks["metrics_finite"] = all(math.isfinite(v) for v in layers.values())
    return RunResult(layers, traced.attempted, traced.failed, checks,
                     {"spans": len(tracer.spans),
                      "log_counts": traced.log_counts})


def _merge_checks(sessions) -> dict:
    out: dict = {}
    for s in sessions:
        for name, ok in s.checks.items():
            out[name] = out.get(name, True) and bool(ok)
    return out


def count_identities(workload: Workload, cfg: dict, tracer, layers: dict,
                     session: Session) -> dict:
    """Counts that hold exactly when every wrapper sits at a real call site."""
    full = harness.fill_defaults(cfg)
    proto, T = full["protocol"], int(full["cost"]["horizon_steps"])
    substeps = int(full["plant"]["substeps"])
    pi = layers["moments.predict_increment.val.calls"] \
        + layers["moments.predict_increment.jac.calls"]
    mm = layers["moments.moment_match.calls"]
    steps = layers["plants.step.calls"]
    out = {"predict_increment_calls_eq_moment_match_calls": pi == mm,
           "no_progress_status_eq_logged":
               layers["control.inner_optimize.status.no-progress"]
               == session.log_counts.get("control.inner_optimize.no_progress_logged", 0)}
    if layers["control.linesearch.numerical_fail"] == 0:
        out["moment_match_calls_eq_rollout_horizons"] = mm == tracer.rollout_horizon
    if workload.kind == "learn":
        out["aborted_trials_eq_logged"] = session.failed == \
            session.log_counts.get("learn.trials_aborted_logged", 0)
        clean = session.failed == 0 and not session.log_counts.get(
            "learn.init_rollouts_diverged")
        if clean:
            expected = (int(proto["init_rollouts"]) + session.attempted) * T
            out["incorporate_calls_eq_init_plus_trial_steps"] = (
                layers["gp.incorporate_sample.below_max.calls"]
                + layers["gp.incorporate_sample.at_max.calls"]) == expected
            # four RK4 stages per substep, one drift call each
            out["drift_calls_eq_4_substeps_per_step"] = \
                layers["plants.drift.calls"] == 4 * substeps * steps
    else:
        samples = int(proto["baseline_samples"]) * T \
            * int(proto["baseline_iterations"])
        out["no_moments_or_gp_calls"] = (
            pi == 0 and mm == 0 and layers["gp.refit.calls"] == 0
            and layers["gp.log_marginal_likelihood.calls"] == 0)
        out["executed_trace_steps_eq_horizon"] = steps == T
        out["drift_calls_eq_4_substeps_per_step"] = \
            layers["plants.drift.calls"] == 4 * substeps * (steps + samples)
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_describe": git_describe(root),
        "seed": seed,
    }


def git_describe(root: Path) -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
