"""Lattice laws for the abstract expression domain.

Random pairs exercise the preorder and join; the two worked examples pin
the documented behavior of joining and rename-joining exactly.
"""

import random

import pytest

from symppl.absdomain import (
    AEUnk,
    AnalysisFail,
    ATopE,
    AbsState,
    AUnkC,
    DEPTH_LIMIT,
    SET_LIMIT,
    TOP_E,
    UNK,
    aadd,
    join_expr,
    leq_expr,
    rename_join,
    scalar_depth,
    widen,
    widen_distr,
    widen_sets,
)
from symppl.lang import Annotation
from symppl.sym import DNormal, VAdd, VConst, VMul, VRV


def random_expr(rng: random.Random, depth: int = 3):
    """Random expressions over <= 3 variables, built the way the analysis
    builds them (through the folding constructors)."""
    from symppl.absdomain import adiv, aite, amul, asub

    roll = rng.random()
    if depth == 0 or roll < 0.35:
        leaf = rng.random()
        if leaf < 0.35:
            return VConst(float(rng.randint(0, 3)))
        if leaf < 0.5:
            return UNK
        if leaf < 0.8:
            return VRV(rng.randint(0, 2))
        return AEUnk(frozenset(rng.sample(range(3), rng.randint(0, 2))))
    ctor = rng.choice([aadd, asub, amul, adiv, "ite"])
    if ctor == "ite":
        return aite(random_expr(rng, depth - 1), random_expr(rng, depth - 1),
                    random_expr(rng, depth - 1))
    return ctor(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


N_PAIRS = 10000


def pairs():
    rng = random.Random(20240901)
    for _ in range(N_PAIRS):
        yield random_expr(rng), random_expr(rng)


def test_leq_reflexive_and_transitive_samples():
    rng = random.Random(7)
    exprs = [random_expr(rng) for _ in range(300)]
    for e in exprs:
        assert leq_expr(e, e)
    for a in exprs[:60]:
        for b in exprs[:60]:
            for c in exprs[:60:10]:
                if leq_expr(a, b) and leq_expr(b, c):
                    assert leq_expr(a, c)


def test_join_is_upper_bound_idempotent_commutative():
    for a, b in pairs():
        j = join_expr(a, b)
        assert leq_expr(a, j), (a, b, j)
        assert leq_expr(b, j), (a, b, j)
        assert join_expr(a, a) == a
        assert join_expr(b, a) == j  # no renaming involved here


def test_partial_order_examples():
    assert leq_expr(VConst(3.0), UNK)
    assert leq_expr(AEUnk(frozenset({1})), AEUnk(frozenset({1, 2})))
    assert not leq_expr(VRV(1), VRV(2))
    assert leq_expr(VRV(1), AEUnk(frozenset({1})))
    assert leq_expr(AEUnk(frozenset({1})), TOP_E)
    assert leq_expr(UNK, VRV(1))


def test_join_worked_example():
    # join of (X1 + 1) and (X2 + 2) keeps the operator structure
    a = VAdd(VRV(1), VConst(1.0))
    b = VAdd(VRV(2), VConst(2.0))
    j = join_expr(a, b)
    assert j == VAdd(AEUnk(frozenset({1, 2})), UNK)


def test_join_structural_mismatch_collapses():
    a = VMul(UNK, VRV(1))
    b = VAdd(VMul(UNK, VRV(1)), UNK)
    assert join_expr(a, b) == AEUnk(frozenset({1}))


def test_widen_depth_cap():
    e = VRV(0)
    for _ in range(DEPTH_LIMIT):
        e = VAdd(e, VConst(1.0))
    assert scalar_depth(e) == DEPTH_LIMIT
    assert widen(e) == e  # at the threshold: kept
    deeper = VAdd(e, VConst(1.0))
    assert widen(deeper) == AEUnk(frozenset({0}))


def test_distribution_and_node_written_together_widen_as_set_distr_does():
    from symppl.ds import InitN, MargN, RealizedN
    from symppl.sym import DDelta

    deep = VRV(0)
    for _ in range(DEPTH_LIMIT + 1):
        deep = VAdd(deep, VConst(1.0))
    g = AbsState()
    parent = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    rid = g.fresh(Annotation.NONE, DNormal(VRV(parent), VConst(1.0)), InitN(parent, frozenset()))
    for d, node in ((DNormal(deep, VConst(1.0)), MargN(parent, g.entries[rid].distr, frozenset())),
                    (DDelta(deep), RealizedN())):
        apart, together = g.copy(), g.copy()
        apart.set_distr(rid, d)
        apart.set_node(rid, node)
        together.set_distr(rid, d, node)
        assert together.entries[rid] == apart.entries[rid]
        assert together.node(rid) is node
        assert together.entries[rid].distr == widen_distr(d) != d


def test_widen_set_cardinality_cap():
    small = AEUnk(frozenset(range(SET_LIMIT - 1)))
    assert widen_sets(small) == small
    big = AEUnk(frozenset(range(SET_LIMIT)))
    assert widen_sets(big) == TOP_E


def test_rename_join_example():
    # joining X1+1 under {X1 -> N(1,1)} with X2+2 under {X2 -> N(0,1)}
    # renames X2 to X1, giving X1+UnkC with X1 -> N(UnkC, 1)
    g1 = AbsState()
    x1 = g1.fresh(Annotation.SYMBOLIC, DNormal(VConst(1.0), VConst(1.0)), None, "x1", "rv:0")
    g2 = AbsState(g1.counter, g1.sites, g1.labels)
    x2 = g2.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)), None, "x2", "rv:0")
    e1 = VAdd(VRV(x1), VConst(1.0))
    e2 = VAdd(VRV(x2), VConst(2.0))
    joined, gj = rename_join(e1, e2, g1, g2)
    assert joined == VAdd(VRV(x1), UNK)
    assert gj.entries[x1].distr == DNormal(UNK, VConst(1.0))


def test_join_with_top_absorbs():
    for a, _ in list(pairs())[:50]:
        assert join_expr(a, TOP_E) == TOP_E
        assert join_expr(TOP_E, a) == TOP_E


def test_concretization_membership_smoke():
    # canonical abstraction of a concrete expression stays below any join
    rng = random.Random(3)
    for _ in range(200):
        e = random_expr(rng)
        x = random_expr(rng)
        assert leq_expr(e, join_expr(e, x))


# --- the join cases no shipped model reaches, one table row each ---


def _n(mu, var=1.0):
    return DNormal(VConst(mu) if isinstance(mu, float) else mu, VConst(var))


def test_join_node_table():
    from symppl.absdomain import ATopN, join_node
    from symppl.ds import InitN, MargN, MargRootN, RealizedN

    c1, c2 = frozenset({7}), frozenset({8})
    prior = _n(VRV(5))
    rows = [
        # a, b, joined, escalated
        (None, InitN(1, c1), InitN(1, c1), []),
        (MargRootN(c1), None, MargRootN(c1), []),
        (InitN(1, c1), InitN(1, c2), InitN(1, c1 | c2), []),
        (MargN(1, prior, c1), MargN(1, _n(VRV(6)), c2),
         MargN(1, DNormal(AEUnk(frozenset({5, 6})), VConst(1.0)), c1 | c2), []),
        (ATopN(c1), ATopN(c2), ATopN(c1 | c2), []),
        (RealizedN(), ATopN(c2), ATopN(c2), []),
        (ATopN(c1), RealizedN(), ATopN(c1), []),
        (ATopN(c1), InitN(1, c2), ATopN(c1 | c2), [1]),
        (MargN(1, prior, c2), ATopN(c1), ATopN(c1 | c2), [1, 5]),
        (InitN(1, c1), InitN(2, c2), ATopN(c1 | c2), [1, 2]),
    ]
    for a, b, joined, escalated in rows:
        escalate: list[int] = []
        assert join_node(a, b, escalate) == joined, (a, b)
        assert sorted(escalate) == escalated, (a, b)


def test_join_distr_table():
    from symppl.absdomain import ADUnk, TOP_D, join_distr
    from symppl.sym import DBeta, DDelta, DSampledDelta

    s1, s2 = frozenset({1}), frozenset({2})
    topped = DNormal(TOP_E, VConst(1.0))
    rows = [
        (TOP_D, _n(0.0), TOP_D),
        (ADUnk(s1), TOP_D, TOP_D),
        (ADUnk(s1), ADUnk(s2), ADUnk(s1 | s2)),
        (ADUnk(s1), _n(VRV(3)), ADUnk(frozenset({1, 3}))),
        (_n(VRV(3)), ADUnk(s2), ADUnk(frozenset({2, 3}))),
        (ADUnk(s1), topped, TOP_D),
        (topped, ADUnk(s2), TOP_D),
        (DDelta(VConst(1.0)), DSampledDelta(VConst(2.0)), DSampledDelta(UNK)),
        (DSampledDelta(VRV(1)), DDelta(VConst(2.0)), DSampledDelta(VRV(1))),
        (_n(VRV(1)), DBeta(VRV(2), VConst(1.0)), ADUnk(frozenset({1, 2}))),
        (topped, DBeta(VConst(1.0), VConst(1.0)), TOP_D),
    ]
    for a, b, joined in rows:
        out = join_distr(a, b)
        assert out == joined and type(out) is type(joined), (a, b)


def test_set_top_nodes_only_stops_at_no_node_and_at_a_top_node():
    from symppl.absdomain import ATopN, set_top
    from symppl.ds import MargN, MargRootN

    g = AbsState()
    x = g.fresh(Annotation.NONE, _n(0.0), MargRootN(frozenset()), "x", "rv:0")
    plain = g.fresh(Annotation.NONE, _n(VRV(x)), None, "plain", "rv:1")
    topped = g.fresh(Annotation.NONE, _n(0.0), None, "topped", "rv:2")
    child = g.fresh(Annotation.NONE, _n(0.0), MargN(topped, _n(VRV(topped)), frozenset()),
                    "child", "rv:3")
    g.set_node(topped, ATopN(frozenset({child})))
    before = dict(g.entries)
    set_top(g, plain, topped, nodes_only=True)
    assert g.entries == before  # neither the distribution's x nor the child is reached
    set_top(g, topped)  # the full spread does reach the marginalized child
    assert isinstance(g.node(child), ATopN)
    # the annotation is read before the stop
    sym_plain = g.fresh(Annotation.SYMBOLIC, _n(0.0), None, "sym", "rv:4")
    with pytest.raises(AnalysisFail) as exc:
        set_top(g, sym_plain, nodes_only=True)
    assert exc.value.witnesses == [("rv:4", "sym")]


def test_rename_join_collision_joins_all_three_entries():
    # x is older than the branch; the other branch's y is renamed onto it,
    # so x of g1, x of g2 and y of g2 all land on x
    g1 = AbsState()
    x = g1.fresh(Annotation.NONE, _n(1.0, 1.0), None, "x", "rv:0")
    g2 = g1.copy()
    g2.set_distr(x, _n(1.0, 2.0))
    y = g2.fresh(Annotation.SAMPLE, _n(3.0, 1.0), None, "y", "rv:0")
    joined, gj = rename_join(VRV(x), VRV(y), g1, g2)
    assert joined == VRV(x)
    assert y not in gj.entries
    assert gj.entries[x].ann is Annotation.SAMPLE
    assert gj.entries[x].distr == DNormal(UNK, UNK)
    assert g1.entries[x].distr == _n(1.0, 1.0)  # g1 is joined into a copy


def test_rename_join_collision_topping_a_symbolic_node_fails():
    from symppl.ds import InitN, MargRootN

    g1 = AbsState()
    p = g1.fresh(Annotation.NONE, _n(0.0), MargRootN(frozenset()), "p", "rv:0")
    q = g1.fresh(Annotation.NONE, _n(0.0), MargRootN(frozenset()), "q", "rv:1")
    x = g1.fresh(Annotation.SYMBOLIC, _n(VRV(p)), InitN(p, frozenset()), "x", "rv:2")
    g2 = g1.copy()
    y = g2.fresh(Annotation.SYMBOLIC, _n(VRV(q)), InitN(q, frozenset()), "y", "rv:2")
    with pytest.raises(AnalysisFail) as exc:
        rename_join(VRV(x), VRV(y), g1, g2)
    assert exc.value.witnesses == [("rv:2", "x")]


def test_join_fails_at_the_first_symbolic_variable_it_tops():
    from symppl.absdomain import join_states
    from symppl.ds import InitN, MargRootN

    g1 = AbsState()
    p = g1.fresh(Annotation.NONE, _n(0.0), MargRootN(frozenset()), "p", "rv:0")
    q = g1.fresh(Annotation.NONE, _n(0.0), MargRootN(frozenset()), "q", "rv:1")
    a = g1.fresh(Annotation.SYMBOLIC, _n(0.0), InitN(p, frozenset()), "a", "rv:2")
    b = g1.fresh(Annotation.SYMBOLIC, _n(0.0), InitN(p, frozenset()), "b", "rv:3")
    g2 = g1.copy()
    g2.set_node(a, InitN(q, frozenset()))
    g2.set_node(b, InitN(q, frozenset()))
    with pytest.raises(AnalysisFail) as exc:
        join_states(g1, g2, in_fold=False)
    assert exc.value.witnesses == [("rv:2", "a")]


# Operands on which both domains' constructors must agree.  No -0.0: the
# concrete side interns constants by equality, so which zero a node over a
# variable keeps depends on which one was interned first.
AGREEMENT_OPERANDS = [VConst(0.0), VConst(1.0), VConst(-2.0), VConst(True), VConst(False),
                      VConst(1), VRV(0)]


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_concrete_and_abstract_constructors_agree(op):
    # the abstract constructors are the concrete ones with another node
    # step, so each pair builds the same value; a zero divisor fails a run
    # and is some constant for the analysis
    from symppl import absdomain, sym

    sym.reset_intern()
    concrete, abstract = getattr(sym, op), getattr(absdomain, "a" + op)
    for left in AGREEMENT_OPERANDS:
        for right in AGREEMENT_OPERANDS:
            if op == "div" and right == VConst(0.0):
                with pytest.raises(sym.EvalError):
                    concrete(left, right)
                assert abstract(left, right) is UNK
                continue
            assert repr(concrete(left, right)) == repr(abstract(left, right)), (left, right)
