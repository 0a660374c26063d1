"""Satisfiability analysis: worked examples and the full precision table."""

import pytest

from symppl import apply_plan, parse, rv_sites
from symppl.absdomain import (
    ADUnk,
    AConst,
    AbsState,
    AnalysisFail,
    ARV,
    ATopD,
    UNK,
)
from symppl.analysis import AbsSsi, analyze, set_top
from symppl.benchmarks import BENCHMARKS
from symppl.lang import Annotation
from symppl.sym import DNormal

# identified / total satisfiable counts to reproduce, per backend
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


def identified(name: str, method: str) -> int:
    prog = BENCHMARKS[name].program()
    k = len(rv_sites(prog))
    return sum(
        analyze(apply_plan(prog, plan), method).satisfiable for plan in range(2 ** k)
    )


@pytest.mark.parametrize("name", sorted(PRECISION_TABLE))
@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_identified_counts(name, method):
    assert identified(name, method) == PRECISION_TABLE[name][method]


def test_tracker_symbolic_x_plan_satisfiable():
    # position symbolic, everything else sampled: linear-Gaussian throughout
    prog = BENCHMARKS["aircraft"].program()
    assert analyze(apply_plan(prog, 0b01111), "ssi").satisfiable


def test_tracker_symbolic_r_plan_rejected_with_witness():
    # measurement-noise variable symbolic: the noise sum defeats conjugacy
    prog = BENCHMARKS["aircraft"].program()
    verdict = analyze(apply_plan(prog, 0b11110), "ssi")
    assert not verdict.satisfiable
    assert any("r" == label for _, label in verdict.witnesses)


def test_no_symbolic_annotations_always_satisfiable():
    prog = BENCHMARKS["noise"].program()
    k = len(rv_sites(prog))
    all_sample = 2 ** k - 1
    for method in ("ssi", "ds"):
        assert analyze(apply_plan(prog, all_sample), method).satisfiable


def test_analysis_deterministic():
    prog = apply_plan(BENCHMARKS["tree"].program(), 0)
    a = analyze(prog, "ssi")
    b = analyze(prog, "ssi")
    assert a.satisfiable == b.satisfiable and a.witnesses == b.witnesses


def test_abstract_value_fails_on_symbolic():
    g = AbsState()
    backend = AbsSsi()
    rid = g.fresh(Annotation.SYMBOLIC, DNormal(AConst(0.0), AConst(1.0)), None, "rv:0", "x")
    with pytest.raises(AnalysisFail):
        backend.value(rid, g)


def test_abstract_value_on_sample_root():
    g = AbsState()
    backend = AbsSsi()
    rid = g.fresh(Annotation.SAMPLE, DNormal(AConst(0.0), AConst(1.0)), None, "rv:0", "x")
    assert backend.value(rid, g) == UNK
    assert g.realized_value(rid) is not None


def test_set_top_escalates_through_unknown_distribution():
    # parent has an unknown distribution over a symbolic ancestor: failure
    g = AbsState()
    x3 = g.fresh(Annotation.SYMBOLIC, DNormal(AConst(1.0), AConst(1.0)), None, "rv:3", "x3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "rv:1", "x1")
    with pytest.raises(AnalysisFail) as exc:
        set_top(g, x1)
    assert ("rv:3", "x3") in exc.value.witnesses


def test_swap_on_unknown_prior_sets_top_and_fails_symbolic():
    g = AbsState()
    backend = AbsSsi()
    x3 = g.fresh(Annotation.SYMBOLIC, DNormal(AConst(1.0), AConst(1.0)), None, "rv:3", "x3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "rv:1", "x1")
    x2 = g.fresh(Annotation.NONE, DNormal(ARV(x1), AConst(1.0)), None, "rv:2", "x2")
    with pytest.raises(AnalysisFail):
        backend.swap(x1, x2, g)


def test_set_top_without_symbolic_just_tops():
    g = AbsState()
    x3 = g.fresh(Annotation.SAMPLE, DNormal(AConst(1.0), AConst(1.0)), None, "rv:3", "x3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "rv:1", "x1")
    set_top(g, x1)
    assert isinstance(g.distr(x1), ATopD)
    assert isinstance(g.distr(x3), ATopD)


def test_node_join_mismatch_escalates_to_symbolic_failure():
    from symppl.absdomain import AInit, AMarg, AMargRoot, join_states

    g1 = AbsState()
    x1 = g1.fresh(Annotation.NONE, DNormal(AConst(0.0), AConst(1.0)), AMargRoot(frozenset()), "rv:1", "x1")
    x2 = g1.fresh(Annotation.NONE, DNormal(ARV(x1), AConst(1.0)), AInit(x1, frozenset()), "rv:2", "x2")
    x3 = g1.fresh(Annotation.SYMBOLIC, DNormal(ARV(x2), AConst(1.0)), AInit(x2, frozenset()), "rv:3", "x3")
    g2 = g1.copy()
    g2.set_node(x2, AMarg(x1, DNormal(ARV(x1), AConst(1.0)), frozenset({x3})))
    g2.set_node(x3, AMarg(x2, DNormal(ARV(x2), AConst(1.0)), frozenset()))
    with pytest.raises(AnalysisFail) as exc:
        join_states(g1, g2, in_fold=False)
    assert ("rv:3", "x3") in exc.value.witnesses


def test_verdict_timing_reported():
    prog = apply_plan(BENCHMARKS["noise"].program(), 3)
    v = analyze(prog, "ssi")
    assert v.satisfiable and v.elapsed_ms > 0.0


# SHA-256 of the (model, plan, method, satisfiable, witnesses) rows of every
# shipped model, plan and backend, recorded while the analysis still had its
# own substituting evaluator.
VERDICTS_DIGEST = "571fbaa9e12abd7ba6ed9a9579e8ae037b5d528f68b34bc346089ffbb840e169"


def test_verdicts_match_recorded_digest():
    import hashlib

    rows = []
    for name in sorted(BENCHMARKS):
        prog = BENCHMARKS[name].program()
        for plan in range(2 ** len(rv_sites(prog))):
            planned = apply_plan(prog, plan)
            for method in ("ssi", "ds"):
                v = analyze(planned, method)
                rows.append((name, plan, method, v.satisfiable, v.witnesses))
    assert len(rows) == 552
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == VERDICTS_DIGEST


ONE_LOOP_PROGRAM = """\
let inc = fun (z) -> z + 1.
let step = fun (z, acc) -> let y = inc(z) in acc + y
let known = fold(step, [1., 2., 3.], 0.) in
let xs = List.map(inc, [known]) in
let x <- gaussian(List.hd(xs), 1.) in
let total = fold(step, data, x) in
if total < 0. then total else known
"""


@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_analysis_runs_the_runtime_loop(method, monkeypatch):
    from symppl import analysis, runtime

    assert issubclass(analysis.AbsInterp, runtime.Evaluator)
    assert not {"run", "_run"} & set(vars(analysis.AbsInterp))
    top_level: list = []
    depth = [0]
    real = runtime.subst

    def counted(e, bindings):
        if not depth[0]:
            top_level.append(e)
        depth[0] += 1
        try:
            return real(e, bindings)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(runtime, "subst", counted)
    monkeypatch.setattr(analysis, "esubst", counted)
    for prog in (parse(ONE_LOOP_PROGRAM), apply_plan(BENCHMARKS["slam"].program(), 0)):
        top_level.clear()
        analyze(prog, method)
        assert top_level == [prog.main]  # only closing main over data
