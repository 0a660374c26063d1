"""The benchmark's workloads: two streaming filters and a plan-analysis sweep.

Each workload is a closed loop with one caller and one operation in
flight.  ``prepare`` does the set-up (parse, check, plan, data) from the
public entry points of ``symppl``; ``run_op`` performs one operation and
checks its output.  For the filters an operation is one ``run_model``
call; for the analysis it is one sweep of verdicts, and each verdict
counts as an attempted operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import ClassVar

perf = time.perf_counter

# Identified satisfiable plans per model and backend: the README precision table.
PRECISION_TABLE = {
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

# Ceiling on the mean squared error of a filter's posterior-mean x series
# against the simulated truth, in units of the noise model's one-step
# uncertainty q + r / 4 (process variance plus the variance of z_t / 2).
# A filter that ignores the observations scores about T / 2 in these units.
# The ceiling is not relative to r / 4 alone because the x-sampled DS plan
# cannot beat it: with q >> r its particles cannot follow the observations.
# At the workloads' sizes, seeds 1-120 all score at most 3.0 (README).
MSE_CEILING = 10.0

# Both filter workloads run this model.
NOISE_MODEL = "noise"
# Time limit on one verdict of the analysis sweep.
VERDICT_TIMEOUT_S = 30.0


class OpTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise ``OpTimeout`` in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:.1f} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def report_error(where: str, exc: BaseException) -> None:
    print(f"perfbench: {where} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


@dataclass
class OpResult:
    """One operation's measurements and its check outcome."""

    attempted: int
    failed: int
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    answer_s: float = 0.0
    work: int = 0  # particle-steps or verdicts completed
    digest: str = ""


class StepClock:
    """Times filter rounds from every N-th ``Evaluator.eval_particle`` call.

    Every live particle is evaluated once per round, so call ``k * N`` starts
    round ``k``.  The end of the last call marks the end of the stream.
    """

    def __init__(self, evaluator_cls, n_particles: int) -> None:
        self.cls = evaluator_cls
        self.n = n_particles
        self.calls = 0
        self.starts: list[float] = []
        self.last_end = 0.0

    def __enter__(self) -> "StepClock":
        original = self.original = self.cls.__dict__["eval_particle"]
        clock = self

        def eval_particle(ev, p):
            if clock.calls % clock.n == 0:
                clock.starts.append(perf())
            clock.calls += 1
            try:
                return original(ev, p)
            finally:
                clock.last_end = perf()

        self.cls.eval_particle = eval_particle
        return self

    def __exit__(self, *exc) -> None:
        self.cls.eval_particle = self.original


def _tree_json(tree, distr_cls, distr_to_json):
    if isinstance(tree, distr_cls):
        return distr_to_json(tree)
    if isinstance(tree, tuple):
        return {"tuple": [_tree_json(x, distr_cls, distr_to_json) for x in tree]}
    return [_tree_json(x, distr_cls, distr_to_json) for x in tree]


def mixture_digest(mix, sym) -> str:
    """SHA-256 of the mixture in the JSON shape that ``symppl run`` prints."""
    obj = {
        "components": [{"weight": w, "outputs": _tree_json(t, sym.Distr, sym.distr_to_json)}
                       for w, t in mix.components],
        "casts": [{"rv": rid, "label": label} for rid, label in mix.casts],
        "output_casts": mix.output_casts,
    }
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class FilterWorkload:
    """``run_model`` on the noise model with one plan and one backend.

    The workload seed picks both the simulated data and the particle seed.
    """

    name: str
    plan: int
    method: str  # "ssi" or "ds"
    particles: int
    timesteps: int
    # What the end-to-end metrics mean on this workload, for the printed lines.
    aliases: ClassVar[dict] = {"throughput_per_s": "particle_steps_per_s",
                               "latency_ms_p50": "step_ms_p50"}

    def prepare(self, mods, seed: int) -> dict:
        program = mods.benchmarks.BENCHMARKS[NOISE_MODEL].program()
        diags = mods.checker.check(program)
        if diags:
            raise ValueError(f"{NOISE_MODEL} does not check: {diags}")
        program = mods.checker.apply_plan(program, self.plan)
        data, truth = mods.benchmarks.data_for(NOISE_MODEL, seed, self.timesteps)
        backend = mods.ssi.SsiBackend() if self.method == "ssi" else mods.ds.DsBackend()
        return {"program": program, "data": data, "truth": truth, "backend": backend,
                "seed": seed, "mse_ceiling": MSE_CEILING * (truth["q"] + truth["r"] / 4.0)}

    def run_op(self, mods, setup: dict, timeout_s: float, tracer=None) -> OpResult:
        n, steps = self.particles, self.timesteps
        res = OpResult(attempted=1, failed=1)
        try:
            with time_limit(timeout_s), StepClock(mods.runtime.Evaluator, n) as clock:
                with tracer.operation() if tracer is not None else nullcontext():
                    t0 = perf()
                    mix = mods.runtime.run_model(setup["program"], n, setup["seed"],
                                                 setup["backend"], setup["data"])
                    t1 = perf()
        except Exception as exc:  # a failed operation is counted, never skipped
            report_error(self.name, exc)
            return res
        res.wall_s = t1 - t0
        res.work = n * steps
        starts = clock.starts
        res.latencies_ms = [(b - a) * 1000.0 for a, b in zip(starts, starts[1:])]
        res.answer_s = t1 - clock.last_end
        res.digest = mixture_digest(mix, mods.sym)
        problems = []
        if clock.calls != n * (steps + 1):
            problems.append(f"{clock.calls} particle evaluations, expected {n * (steps + 1)}")
        if mix.casts or mix.output_casts:
            problems.append(f"{len(mix.casts)} casts, {mix.output_casts} output casts")
        mse = mods.benchmarks.mse_per_variable(NOISE_MODEL, mix, setup["truth"])["x"]
        if not mse <= setup["mse_ceiling"]:
            problems.append(f"x MSE {mse:.4g} above ceiling {setup['mse_ceiling']:.4g}")
        if problems:
            print(f"perfbench: {self.name}: " + "; ".join(problems), file=sys.stderr)
        else:
            res.failed = 0
        return res


@dataclass(frozen=True)
class AnalyzeWorkload:
    """``analysis.analyze`` on every plan of every shipped model, both backends.

    The workload seed shuffles the order of the verdicts in a sweep.
    """

    name: str
    aliases: ClassVar[dict] = {"throughput_per_s": "verdicts_per_s",
                               "latency_ms_p50": "verdict_ms_p50"}

    def prepare(self, mods, seed: int) -> dict:
        jobs = []
        for model in sorted(PRECISION_TABLE):
            program = mods.benchmarks.BENCHMARKS[model].program()
            diags = mods.checker.check(program)
            if diags:
                raise ValueError(f"{model} does not check: {diags}")
            for plan in range(2 ** len(mods.checker.rv_sites(program))):
                planned = mods.checker.apply_plan(program, plan)
                jobs += [(model, method, plan, planned) for method in ("ssi", "ds")]
        random.Random(seed).shuffle(jobs)
        return {"jobs": jobs}

    def run_op(self, mods, setup: dict, timeout_s: float, tracer=None) -> OpResult:
        jobs = setup["jobs"]
        res = OpResult(attempted=len(jobs), failed=0)
        outcomes = {}
        bad: set = set()
        deadline = perf() + timeout_s
        t_start = perf()
        with tracer.operation() if tracer is not None else nullcontext():
            for model, method, plan, planned in jobs:
                key = (model, method, plan)
                try:
                    with time_limit(min(VERDICT_TIMEOUT_S, deadline - perf())):
                        t0 = perf()
                        verdict = mods.analysis.analyze(planned, method)
                        t1 = perf()
                except Exception as exc:  # a failed verdict is counted, never skipped
                    report_error(f"{self.name} {key}", exc)
                    bad.add(key)
                    continue
                res.latencies_ms.append((t1 - t0) * 1000.0)
                outcomes[key] = (verdict.satisfiable, verdict.witnesses)
        res.wall_s = perf() - t_start
        reference = setup.setdefault("reference", outcomes)
        bad.update(k for k, v in outcomes.items() if reference.get(k) != v)
        for model, counts in PRECISION_TABLE.items():
            for method, expected in counts.items():
                found = sum(v[0] for k, v in outcomes.items() if k[:2] == (model, method))
                if found != expected:
                    print(f"perfbench: {self.name}: {model}/{method} identified {found}, "
                          f"expected {expected}", file=sys.stderr)
                    bad.update(j[:3] for j in jobs if j[:2] == (model, method))
        res.failed = len(bad)
        res.work = len(outcomes)
        res.digest = hashlib.sha256(repr(sorted(outcomes.items())).encode()).hexdigest()
        return res


WORKLOADS = {
    w.name: w
    for w in (
        FilterWorkload("noise-ssi-chain", plan=3, method="ssi", particles=16, timesteps=100),
        FilterWorkload("noise-ds-params", plan=4, method="ds", particles=32, timesteps=200),
        AnalyzeWorkload("analyze-all-plans"),
    )
}
