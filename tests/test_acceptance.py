"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import json
import math
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest
from scipy import integrate, stats

from symppl import apply_plan, parse, rv_sites
from symppl.analysis import analyze
from symppl.benchmarks import BENCHMARKS, data_for, mse_per_variable
from symppl.ds import DsBackend
from symppl.runtime import posterior_stats, run_model
from symppl.ssi import SsiBackend
from symppl.sym import VConst, VLst

# Precision table: identified satisfiable plans per benchmark and backend.
IDENTIFIED = {
    "noise": {"ssi": 5, "ds": 4},
    "radar": {"ssi": 3, "ds": 2},
    "envnoise": {"ssi": 3, "ds": 2},
    "outlier": {"ssi": 4, "ds": 2},
    "outlierheavy": {"ssi": 2, "ds": 2},
    "tree": {"ssi": 3, "ds": 3},
    "slds": {"ssi": 28, "ds": 16},
    "runner": {"ssi": 4, "ds": 1},
    "wheels": {"ssi": 3, "ds": 1},
    "slam": {"ssi": 3, "ds": 2},
    "aircraft": {"ssi": 3, "ds": 2},
}

ANALYSIS_BUDGET_MS = 5000.0
SLAM_ALL_SYMBOLIC_BUDGET_MS = 300000.0


def _accepted_plans(name: str, method: str):
    prog = BENCHMARKS[name].program()
    k = len(rv_sites(prog))
    out = []
    budgets_ok = True
    for plan in range(2 ** k):
        verdict = analyze(apply_plan(prog, plan), method)
        budget = (
            SLAM_ALL_SYMBOLIC_BUDGET_MS
            if name == "slam" and method == "ssi" and plan == 0
            else ANALYSIS_BUDGET_MS
        )
        budgets_ok = budgets_ok and verdict.elapsed_ms < budget
        if verdict.satisfiable:
            out.append(plan)
    return out, budgets_ok


def test_criterion_1_precision_table():
    """Identified-satisfiable counts match the reference table exactly."""
    ok = True
    for name in sorted(IDENTIFIED):
        for method in ("ssi", "ds"):
            plans, budgets_ok = _accepted_plans(name, method)
            expected = IDENTIFIED[name][method]
            line_ok = len(plans) == expected and budgets_ok
            ok = ok and line_ok
            print(f"[criterion 1] {'PASS' if line_ok else 'FAIL'} "
                  f"{name}/{method}: identified {len(plans)} (expected {expected})")
    assert ok


def test_criterion_2_soundness_of_accepted_plans():
    """Accepted plans never cast: 20 seeds, 10 particles, 10 timesteps."""
    backends = {"ssi": SsiBackend(), "ds": DsBackend()}
    violations = []
    for name in sorted(IDENTIFIED):
        for method in ("ssi", "ds"):
            plans, _ = _accepted_plans(name, method)
            for plan in plans:
                planned = apply_plan(BENCHMARKS[name].program(), plan)
                for seed in range(20):
                    data, _ = data_for(name, 1000 + seed, 10)
                    mix = run_model(planned, 10, seed, backends[method], data)
                    if mix.casts:
                        violations.append((name, method, plan, seed, len(mix.casts)))
        print(f"[criterion 2] {name}: accepted plans ran cast-free")
    print(f"[criterion 2] {'PASS' if not violations else 'FAIL'} "
          f"0 casts required, violations: {violations[:5]}")
    assert not violations

    # converse: the rejected symbolic-noise tracker plan casts on descent data
    prog = apply_plan(BENCHMARKS["aircraft"].program(), 0b11110)
    assert not analyze(prog, "ssi").satisfiable
    casting_seeds = 0
    for seed in range(20):
        data, _ = data_for("aircraft", 2000 + seed, 10, variant="descent")
        mix = run_model(prog, 10, seed, SsiBackend(), data)
        casting_seeds += bool(mix.casts)
    print(f"[criterion 2] PASS rejected tracker plan casts in {casting_seeds}/20 descent seeds")
    assert casting_seeds >= 1


CHAIN = """
let step = fun (z, xs) ->
  let symbolic x <- gaussian(0.9 * List.hd(xs) + 0.1, 1.0) in
  let () = observe(gaussian(2.0 * x, 0.5), z) in
  cons(x, xs)
let xs = fold(step, data, [0.]) in
List.hd(xs)
"""


def _kalman(zs, f=0.9, b=0.1, q=1.0, h=2.0, r=0.5):
    m, P, ll, out = 0.0, 0.0, 0.0, []
    for z in zs:
        mp, Pp = f * m + b, f * f * P + q
        S = h * h * Pp + r
        ll += -0.5 * math.log(2 * math.pi * S) - (z - h * mp) ** 2 / (2 * S)
        K = Pp * h / S
        m, P = mp + K * (z - h * mp), (1 - h * K) * Pp
        out.append((m, P, ll))
    return out


def test_criterion_3_kalman_oracle():
    """All-symbolic 5-step chain matches an independent Kalman filter."""
    prog = parse(CHAIN)
    zs = [0.4, -0.2, 1.1, 0.7, 0.3]
    oracle = _kalman(zs)
    worst = 0.0
    for t in range(1, 6):
        data = VLst(tuple(VConst(z) for z in zs[:t]))
        km, kP, kll = oracle[t - 1]
        results = {}
        for method, backend in (("ssi", SsiBackend()), ("ds", DsBackend())):
            mix = run_model(prog, 1, 7, backend, data)
            mean, var = posterior_stats(mix, ())
            ll = run_model(prog, 8, 7, backend, data).log_evidence
            results[method] = (mean, var, ll)
            worst = max(worst, abs(mean - km), abs(var - kP), abs(ll - kll))
        for a, b in zip(results["ssi"], results["ds"]):
            worst = max(worst, abs(a - b))
    print(f"[criterion 3] {'PASS' if worst < 1e-8 else 'FAIL'} "
          f"max deviation from Kalman filter {worst:.2e} (tolerance 1e-8)")
    assert worst < 1e-8


def test_criterion_4_conjugacy_oracles():
    """Joint preservation on grids and observe posteriors vs quadrature.

    The detailed assertions live in tests/test_conjugacy.py; this runs them
    as one gate and reports a single line.
    """
    result = pytest.main(["-q", "--no-header", "tests/test_conjugacy.py"])
    print(f"[criterion 4] {'PASS' if result == 0 else 'FAIL'} "
          "swap grids within 1e-6/1e-12, observe posteriors within 1e-4")
    assert result == 0


def test_criterion_5_lattice_laws():
    """Join/widening laws on 10,000 random pairs plus the worked examples."""
    result = pytest.main(["-q", "--no-header", "tests/test_absdomain.py"])
    print(f"[criterion 5] {'PASS' if result == 0 else 'FAIL'} "
          "lattice laws on 10,000 random pairs and both worked examples")
    assert result == 0


def _median_mse(name: str, plan: int, variable: str, trials: int, particles: int,
                timesteps: int) -> float:
    prog = apply_plan(BENCHMARKS[name].program(), plan)
    backend = SsiBackend()
    mses = []
    for trial in range(trials):
        data, truth = data_for(name, trial, timesteps)
        mix = run_model(prog, particles, trial, backend, data)
        mses.append(mse_per_variable(name, mix, truth)[variable])
    return float(np.median(mses))


def test_criterion_6_desk_scale_trend():
    """Symbolic encodings beat all-sample plans on their own variable."""
    t0 = time.time()
    noise_sym = _median_mse("noise", 3, "x", trials=20, particles=64, timesteps=50)
    noise_smp = _median_mse("noise", 7, "x", trials=20, particles=64, timesteps=50)
    out_sym = _median_mse("outlier", 6, "outlier_prob", trials=20, particles=64, timesteps=50)
    out_smp = _median_mse("outlier", 7, "outlier_prob", trials=20, particles=64, timesteps=50)
    elapsed = time.time() - t0
    ok = noise_sym < noise_smp and out_sym < out_smp and elapsed < 600
    print(f"[criterion 6] {'PASS' if ok else 'FAIL'} "
          f"noise x: symbolic {noise_sym:.4g} < sample {noise_smp:.4g}; "
          f"outlier prob: symbolic {out_sym:.4g} < sample {out_smp:.4g}; "
          f"elapsed {elapsed:.0f}s (< 600s)")
    assert noise_sym < noise_smp
    assert out_sym < out_smp
    assert elapsed < 600


def test_criterion_7_determinism():
    """Repeated CLI invocations produce byte-identical JSON."""
    models = resources.files("symppl") / "models"
    runs = []
    for args in (
        ["analyze", str(models / "noise.si"), "--method", "ds", "--all-plans"],
        ["run", str(models / "tree.si"), "--method", "ssi", "--plan", "1",
         "--benchmark", "tree", "--particles", "8", "--seed", "13", "--timesteps", "6"],
    ):
        outs = set()
        for _ in range(2):
            r = subprocess.run([sys.executable, "-m", "symppl.cli", *args],
                               capture_output=True, text=True, timeout=300)
            assert r.returncode == 0
            payload = json.loads(r.stdout)
            payload.pop("wall_ms", None)
            payload.pop("elapsed_ms", None)
            for plan in payload.get("plans", []):
                plan.pop("elapsed_ms", None)
            outs.add(json.dumps(payload, sort_keys=True))
        runs.append(len(outs) == 1)
    print(f"[criterion 7] {'PASS' if all(runs) else 'FAIL'} byte-identical JSON on repeats")
    assert all(runs)
