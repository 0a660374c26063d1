"""Satisfiability analysis: worked examples and the full precision table."""

import pytest

from symppl import apply_plan, parse, rv_sites
from symppl.absdomain import (
    ADUnk,
    AbsState,
    AnalysisFail,
    ATopD,
    ATopN,
    UNK,
    set_top,
)
from symppl.analysis import AbsDs, AbsSsi, analyze
from symppl.benchmarks import BENCHMARKS
from symppl.ds import InitN, MargN, MargRootN, RealizedN
from symppl.lang import Annotation
from symppl.ssi import swap
from symppl.sym import DNormal, VAdd, VConst, VMul, VRV

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
    rid = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)), None, "x", "rv:0")
    with pytest.raises(AnalysisFail):
        backend.value(rid, g)


def test_abstract_value_on_sample_root():
    g = AbsState()
    backend = AbsSsi()
    rid = g.fresh(Annotation.SAMPLE, DNormal(VConst(0.0), VConst(1.0)), None, "x", "rv:0")
    assert backend.value(rid, g) == UNK
    assert g.realized_value(rid) is not None


def test_set_top_escalates_through_unknown_distribution():
    # parent has an unknown distribution over a symbolic ancestor: failure
    g = AbsState()
    x3 = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(1.0), VConst(1.0)), None, "x3", "rv:3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "x1", "rv:1")
    with pytest.raises(AnalysisFail) as exc:
        set_top(g, x1)
    assert ("rv:3", "x3") in exc.value.witnesses


def test_swap_on_unknown_prior_sets_top_and_fails_symbolic():
    g = AbsState()
    x3 = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(1.0), VConst(1.0)), None, "x3", "rv:3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "x1", "rv:1")
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)), None, "x2", "rv:2")
    with pytest.raises(AnalysisFail):
        swap(x1, x2, g)


def test_set_top_without_symbolic_just_tops():
    g = AbsState()
    x3 = g.fresh(Annotation.SAMPLE, DNormal(VConst(1.0), VConst(1.0)), None, "x3", "rv:3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "x1", "rv:1")
    set_top(g, x1)
    assert isinstance(g.distr(x1), ATopD)
    assert isinstance(g.distr(x3), ATopD)


def test_node_join_mismatch_escalates_to_symbolic_failure():
    from symppl.absdomain import join_states

    g1 = AbsState()
    x1 = g1.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), MargRootN(frozenset()), "x1", "rv:1")
    x2 = g1.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)), InitN(x1, frozenset()), "x2", "rv:2")
    x3 = g1.fresh(Annotation.SYMBOLIC, DNormal(VRV(x2), VConst(1.0)), InitN(x2, frozenset()), "x3", "rv:3")
    g2 = g1.copy()
    g2.set_node(x2, MargN(x1, DNormal(VRV(x1), VConst(1.0)), frozenset({x3})))
    g2.set_node(x3, MargN(x2, DNormal(VRV(x2), VConst(1.0)), frozenset()))
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
    assert not {"run", "_run", "_force", "_assume"} & set(vars(analysis.AbsInterp))
    closed: list = []
    real = runtime.subst
    forced: list = []
    real_force = runtime.value_star

    def counted_force(v, g, *rest):
        forced.append(type(g))
        return real_force(v, g, *rest)

    def counted(e, bindings):
        closed.append(e)
        return real(e, bindings)

    monkeypatch.setattr(runtime, "subst", counted)
    monkeypatch.setattr(analysis, "esubst", counted)
    monkeypatch.setattr(runtime, "value_star", counted_force)
    for prog in (parse(ONE_LOOP_PROGRAM), apply_plan(BENCHMARKS["slam"].program(), 0)):
        closed.clear()
        analyze(prog, method)
        assert closed == [prog.main]  # only closing main over data
    assert forced and set(forced) == {AbsState}  # slam forces through the runtime's value_star


# --- where the analysis over-approximates and the runtime raises ---
# One test per case in which the abstract backends give up: each pins the
# witnesses of the failure, or the top elements the state ends with.


def _entry(g, rid):
    return type(g.distr(rid)).__name__, type(g.node(rid)).__name__


def test_hoist_over_unknown_prior_forces_it():
    g = AbsState()
    x1 = g.fresh(Annotation.NONE, ATopD(), None, "x1", "rv:1")
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)), None, "x2", "rv:2")
    AbsSsi().hoist(x2, g)
    assert g.realized_value(x1) == UNK
    assert g.parents(x2) == []
    assert g.distr(x2) == DNormal(UNK, VConst(1.0))


def test_hoist_under_unknown_distribution_forces_symbolic_ancestor():
    g = AbsState()
    x3 = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(1.0), VConst(1.0)), None, "x3", "rv:3")
    x1 = g.fresh(Annotation.NONE, ADUnk(frozenset({x3})), None, "x1", "rv:1")
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)), None, "x2", "rv:2")
    with pytest.raises(AnalysisFail) as exc:
        AbsSsi().value(x2, g)
    assert exc.value.witnesses == [("rv:3", "x3")]


def _cycle(ann_a, ann_b):
    """a and b each conditioned on the other, as a merging join can leave them."""
    g = AbsState()
    a, b = 0, 1
    g.fresh(ann_a, DNormal(VRV(b), VConst(1.0)), None, "a", "rv:0")
    g.fresh(ann_b, DNormal(VRV(a), VConst(1.0)), None, "b", "rv:1")
    return g, a, b


def test_hoist_through_dependency_cycle_tops_it():
    g, a, b = _cycle(Annotation.NONE, Annotation.SAMPLE)
    c = g.fresh(Annotation.NONE, DNormal(VRV(a), VConst(1.0)), None, "c", "rv:2")
    AbsSsi().hoist(c, g)
    assert g.realized_value(a) == UNK
    assert isinstance(g.distr(b), ATopD)
    assert g.parents(c) == []


def test_hoist_through_dependency_cycle_fails_on_symbolic_member():
    g, a, b = _cycle(Annotation.NONE, Annotation.SYMBOLIC)
    c = g.fresh(Annotation.NONE, DNormal(VRV(a), VConst(1.0)), None, "c", "rv:2")
    with pytest.raises(AnalysisFail) as exc:
        AbsSsi().hoist(c, g)
    assert exc.value.witnesses == [("rv:1", "b")]


def test_hoist_over_cycle_among_parents():
    g, a, b = _cycle(Annotation.SAMPLE, Annotation.SAMPLE)
    d = g.fresh(Annotation.NONE, DNormal(VAdd(VRV(a), VRV(b)), VConst(1.0)), None, "d", "rv:3")
    AbsSsi().hoist(d, g)
    assert g.realized_value(a) == UNK and g.realized_value(b) == UNK
    assert g.parents(d) == []


def _ds_pair(parent_distr, child_cond, parent_node=None, ann=Annotation.NONE):
    """x1 a marginalized root, x2 initialized under it."""
    g = AbsState()
    x1 = g.fresh(ann, parent_distr, parent_node or MargRootN(frozenset({1})), "x1", "rv:1")
    x2 = g.fresh(Annotation.NONE, child_cond, InitN(x1, frozenset()), "x2", "rv:2")
    return g, x1, x2


def test_graft_without_closed_form_marginal_tops_child_and_parent():
    g, x1, x2 = _ds_pair(DNormal(VConst(0.0), VConst(1.0)),
                         DNormal(VMul(VRV(0), VRV(0)), VConst(1.0)))
    AbsDs().graft(x2, g)
    assert _entry(g, x1) == _entry(g, x2) == ("ATopD", "ATopN")
    assert g.node(x1).children == frozenset({x2})


def test_graft_without_closed_form_marginal_fails_on_symbolic_parent():
    g, x1, x2 = _ds_pair(DNormal(VConst(0.0), VConst(1.0)),
                         DNormal(VMul(VRV(0), VRV(0)), VConst(1.0)), ann=Annotation.SYMBOLIC)
    with pytest.raises(AnalysisFail) as exc:
        AbsDs().graft(x2, g)
    assert exc.value.witnesses == [("rv:1", "x1")]


def test_graft_under_unknown_prior_tops_child_and_parent():
    g, x1, x2 = _ds_pair(ADUnk(frozenset()), DNormal(VRV(0), VConst(1.0)))
    AbsDs().graft(x2, g)
    assert _entry(g, x1) == _entry(g, x2) == ("ATopD", "ATopN")


def _ds_marginalized(parent_distr, cond):
    """x1 a marginalized root, x2 its marginalized child."""
    g = AbsState()
    x1 = g.fresh(Annotation.NONE, parent_distr, MargRootN(frozenset({1})), "x1", "rv:1")
    x2 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(2.0)), MargN(x1, cond, frozenset()),
                 "x2", "rv:2")
    return g, x1, x2


def test_realize_without_closed_form_posterior_tops_parent():
    g, x1, x2 = _ds_marginalized(DNormal(VConst(0.0), VConst(1.0)),
                                 DNormal(VMul(VRV(0), VRV(0)), VConst(1.0)))
    AbsDs().observe(x2, VConst(0.5), g)
    assert _entry(g, x1) == ("ATopD", "ATopN")
    assert g.node(x1).children == frozenset()
    assert g.realized_value(x2) == VConst(0.5)


def test_realize_under_unknown_prior_tops_parent():
    g, x1, x2 = _ds_marginalized(ATopD(), DNormal(VRV(0), VConst(1.0)))
    AbsDs().observe(x2, VConst(0.5), g)
    assert _entry(g, x1) == ("ATopD", "ATopN")
    assert g.realized_value(x2) == VConst(0.5)


def _two_marginalized_children(ann):
    g = AbsState()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)),
                 MargRootN(frozenset({1, 2})), "x1", "rv:1")
    for i in (1, 2):
        g.fresh(ann, DNormal(VConst(0.0), VConst(2.0)),
                MargN(x1, DNormal(VRV(x1), VConst(1.0)), frozenset()), f"x{i + 1}", f"rv:{i + 1}")
    return g, x1


def test_graft_with_two_marginalized_children_tops_them():
    g, x1 = _two_marginalized_children(Annotation.NONE)
    AbsDs().graft(x1, g)
    assert _entry(g, 1) == _entry(g, 2) == _entry(g, x1) == ("ATopD", "ATopN")


def test_graft_with_two_marginalized_children_fails_on_symbolic_child():
    g, x1 = _two_marginalized_children(Annotation.SYMBOLIC)
    with pytest.raises(AnalysisFail) as exc:
        AbsDs().graft(x1, g)
    assert exc.value.witnesses == [("rv:2", "x2")]


def test_graft_on_top_node_tops_it():
    g = AbsState()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), ATopN(frozenset()), "x", "rv:0")
    AbsDs().graft(x, g)
    assert _entry(g, x) == ("ATopD", "ATopN")
    assert AbsDs().value(x, g) == UNK


def test_graft_on_top_node_fails_on_symbolic():
    g = AbsState()
    x = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)), ATopN(frozenset()),
                "x", "rv:0")
    with pytest.raises(AnalysisFail) as exc:
        AbsDs().graft(x, g)
    assert exc.value.witnesses == [("rv:0", "x")]


def test_graft_under_top_parent_tops_the_pair():
    g, x1, x2 = _ds_pair(DNormal(VConst(0.0), VConst(1.0)), DNormal(VRV(0), VConst(1.0)),
                         parent_node=ATopN(frozenset({1})))
    AbsDs().graft(x2, g)
    assert _entry(g, x1) == _entry(g, x2) == ("ATopD", "ATopN")


def test_graft_on_realized_node_fails():
    g = AbsState()
    x = g.fresh(Annotation.SAMPLE, DNormal(VConst(0.0), VConst(1.0)), RealizedN(), "x", "rv:0")
    with pytest.raises(AnalysisFail) as exc:
        AbsDs().graft(x, g)
    assert exc.value.witnesses == [("rv:0", "x")]


def test_analysis_runs_the_runtime_backends():
    # one core per algorithm: the analysis binds ssi's and ds's own functions
    from symppl import absdomain, analysis, ds, ssi

    for abs_cls, cls in ((analysis.AbsSsi, ssi.SsiBackend), (analysis.AbsDs, ds.DsBackend)):
        bound = {k: v for k, v in vars(abs_cls).items() if callable(v)}
        assert {"assume", "value", "observe"} <= bound.keys()
        for name, fn in bound.items():
            assert fn is vars(cls)[name]
            assert fn.__module__ == cls.__module__
    assert {"hoist"} <= vars(analysis.AbsSsi).keys()
    assert {"graft", "prune", "marginalize", "realize"} <= vars(analysis.AbsDs).keys()
    own = [name for name, v in vars(analysis).items()
           if getattr(v, "__module__", None) == analysis.__name__]
    for word in ("hoist", "swap", "topo", "graft", "prune", "marginal", "realize", "conjugate"):
        assert not [name for name in own if word in name.lower()]
    for name in ("AMarg", "AInit", "AMargRoot", "ARealized"):
        assert not hasattr(absdomain, name)
    assert (absdomain.MargRootN, absdomain.MargN, absdomain.InitN, absdomain.RealizedN) == (
        ds.MargRootN, ds.MargN, ds.InitN, ds.RealizedN)


def test_analysis_state_is_the_runtime_state(monkeypatch):
    # one particle state: the analysis's state adds only its domain
    from symppl import absdomain, sym

    assert issubclass(absdomain.AbsState, sym.SymState)
    own = vars(absdomain.AbsState)
    for name in ("copy", "ann", "distr", "node", "set_node", "parents",
                 "__contains__", "set_ann"):
        assert name not in own
    assert not hasattr(sym.SymState, "refresh")
    for name in ("AbsEntry", "abs_reachable", "abs_weak_eq", "set_ann", "ADSampledDelta"):
        assert not hasattr(absdomain, name)
    g = AbsState()
    g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), None, "x", "rv:0")
    # a forced sample is the runtime's sampled delta, on some constant
    d, v = g.copy().forced(0)
    assert type(d) is sym.DSampledDelta and d.v is v is UNK
    h = g.copy()
    assert type(h) is AbsState and h.entries == g.entries and h.entries is not g.entries
    assert (h.counter, h.sites, h.labels) == (g.counter, g.sites, g.labels)
    assert h.counter is g.counter  # copies draw from one counter
    # its evaluation is SymState's, with cases only for the abstract-only forms
    states = []
    real = sym.SymState.eval_value

    def counted(self, v, _memo=None):
        states.append(type(self))
        return real(self, v, _memo)

    monkeypatch.setattr(sym.SymState, "eval_value", counted)
    assert analyze(apply_plan(BENCHMARKS["noise"].program(), 3), "ssi").satisfiable
    assert AbsState in states


def test_analysis_leaves_no_reference_cycles():
    # bindings and states are freed by reference counting alone
    import gc

    plans = [apply_plan(BENCHMARKS[name].program(), 0) for name in ("noise", "slds", "slam")]
    gc.collect()
    gc.disable()
    try:
        for prog in plans:
            for method in ("ssi", "ds"):
                analyze(prog, method)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_weak_eq_follows_delayed_sampling_edges():
    # x2's marginal names no variable: only its node reaches x1 and x3
    from symppl.sym import weak_eq

    def state(x1_mean, x3_mean, node=MargN):
        g = AbsState()
        x1 = g.fresh(Annotation.NONE, DNormal(VConst(x1_mean), VConst(1.0)),
                     MargRootN(frozenset({2})), "x1", "rv:1")
        x3 = g.fresh(Annotation.NONE, DNormal(VConst(x3_mean), VConst(1.0)), None, "x3", "rv:3")
        cond = DNormal(VAdd(VRV(x1), VRV(x3)), VConst(1.0))
        n = MargN(x1, cond, frozenset()) if node is MargN else InitN(x1, frozenset())
        x2 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(2.0)), n, "x2", "rv:2")
        return g, VRV(x2)

    g, e = state(0.0, 0.0)
    assert weak_eq(g, state(0.0, 0.0)[0], e)
    assert not weak_eq(g, state(1.0, 0.0)[0], e)  # through the node's parent
    assert not weak_eq(g, state(0.0, 1.0)[0], e)  # through the node's prior
    g, e = state(0.0, 0.0, InitN)
    assert not weak_eq(g, state(1.0, 0.0, InitN)[0], e)  # through an initialized node's parent
    assert weak_eq(g, state(0.0, 1.0, InitN)[0], e)  # x3 is out of reach there


def test_analysis_uses_the_runtime_values():
    import ast
    import inspect

    from symppl import absdomain, analysis, runtime, sym

    for name in ("AConst", "ARV", "AAdd", "ASub", "AMul", "ADiv", "AIte", "ACmp", "ATup"):
        assert not hasattr(absdomain, name)
    # the abstract-only forms are sym nodes, so sym.free_vars serves both sides
    assert issubclass(absdomain.AEUnk, sym._Node) and issubclass(absdomain.ALst, sym._Node)
    for name in ("Const", "Tup", "Lst", "RV", "ite", "fv"):
        assert name not in vars(analysis.AbsInterp)
        assert not hasattr(runtime.Evaluator, name)
    assert vars(analysis.AbsInterp)["bind"].__func__ is analysis._abs_match
    # the smart constructors are reached only through absdomain.ALGEBRA
    ctors = {"aadd", "asub", "amul", "adiv", "acmp", "aite"}
    for module in (absdomain, analysis, runtime, sym):
        tree = ast.parse(inspect.getsource(module))
        inside = {id(n) for a in ast.walk(tree) if isinstance(a, ast.Assign)
                  and [ast.unparse(t) for t in a.targets] == ["ALGEBRA"] for n in ast.walk(a)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and n.id in ctors:
                assert id(n) in inside, (module.__name__, n.id, n.lineno)
    assert {absdomain.ALGEBRA.add, absdomain.ALGEBRA.ite} == {absdomain.aadd, absdomain.aite}
    # the arithmetic rules are sym's, written once: absdomain supplies only
    # a node step, and builds no arithmetic node and folds nothing itself
    for name in ("VAdd", "VSub", "VMul", "VDiv", "_arith"):
        assert not hasattr(absdomain, name), name
    for op in ("add", "sub", "mul", "div"):
        ctor = getattr(absdomain.ALGEBRA, op)
        assert op in ctor.__code__.co_names and ctor.__globals__[op] is getattr(sym, op)


def test_states_are_joined_in_one_place():
    # a rename-join renames g2's entries as join_states joins them: no
    # second copy of the entry join
    import ast
    import inspect

    from symppl import absdomain

    for name in ("rename_state", "rename_apply"):
        assert not hasattr(absdomain, name)
    callers = []
    for fn in ast.walk(ast.parse(inspect.getsource(absdomain))):
        if isinstance(fn, ast.FunctionDef):
            callers += [fn.name for n in ast.walk(fn) if isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Name) and n.func.id == "join_node"]
    assert callers == ["join_states"]
