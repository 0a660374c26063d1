"""Lattice laws for the abstract expression domain.

Random pairs exercise the preorder and join; the two worked examples pin
the documented behavior of joining and rename-joining exactly.
"""

import random

import pytest

from symppl.absdomain import (
    AEUnk,
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
