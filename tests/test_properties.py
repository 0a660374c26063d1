"""Property-based checks over randomly generated terms."""

import pytest
from hypothesis import example, given, settings, strategies as st

from symppl.absdomain import (
    AEUnk, ALst, UNK, aadd, adiv, aite, amul, asub, join_expr, leq_expr,
)
from symppl.lang import Annotation
from symppl.sym import (
    CONCRETE,
    DDelta,
    DNormal,
    DSampledDelta,
    EvalError,
    SymState,
    VAdd,
    VCmp,
    VConst,
    VDiv,
    VIte,
    VLst,
    VMul,
    VRV,
    VSub,
    VTup,
    add,
    children,
    cmp,
    div,
    free_rvs,
    ite,
    mul,
    rebuild,
    reset_intern,
    sub,
    subst_rv,
)


def abs_exprs(depth=3):
    leaves = st.one_of(
        st.integers(0, 3).map(lambda n: VConst(float(n))),
        st.just(UNK),
        st.integers(0, 2).map(VRV),
        st.sets(st.integers(0, 2), max_size=2).map(lambda s: AEUnk(frozenset(s))),
    )
    binop = st.sampled_from([aadd, asub, amul, adiv])

    def extend(children):
        return st.one_of(
            st.tuples(binop, children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, children, children).map(lambda t: aite(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=depth * 2)


@settings(max_examples=300, deadline=None)
@given(abs_exprs(), abs_exprs())
@example(  # joins to UNK: variable-free, top-free scalars lie below it
    a=aite(VAdd(UNK, AEUnk(frozenset())), VConst(0.0), VConst(0.0)),
    b=aite(VSub(VConst(0.0), AEUnk(frozenset())), VConst(0.0), UNK),
)
def test_join_is_upper_bound(a, b):
    j = join_expr(a, b)
    assert leq_expr(a, j) and leq_expr(b, j)


@settings(max_examples=300, deadline=None)
@given(abs_exprs())
def test_join_idempotent(a):
    assert join_expr(a, a) == a


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5).filter(lambda x: x == x), min_size=2, max_size=2))
def test_concrete_eval_idempotent(consts):
    g = SymState()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    y = g.fresh(Annotation.NONE, DSampledDelta(VConst(consts[0])))
    e = add(mul(VRV(x), VConst(consts[1])), VRV(y))
    once = g.eval_value(e)
    assert g.eval_value(once) == once


def reference_free_rvs(v):
    """First-occurrence variables by a plain depth-first walk, no caching."""
    out, seen, visited = [], set(), set()
    stack = [v]
    while stack:
        x = stack.pop()
        if id(x) in visited:
            continue
        visited.add(id(x))
        if isinstance(x, VRV):
            if x.rid not in seen:
                seen.add(x.rid)
                out.append(x.rid)
        elif isinstance(x, (VAdd, VSub, VMul, VDiv, VCmp)):
            stack += [x.right, x.left]
        elif isinstance(x, VIte):
            stack += [x.orelse, x.then, x.cond]
        elif isinstance(x, (VTup, VLst)):
            stack += reversed(x.items)
    return out


# Each step combines earlier nodes by index, so later nodes share subterms.
DAG_STEPS = st.lists(
    st.tuples(st.sampled_from(["+", "-", "*", "/", "<", "ite", "ite=", "tup", "lst"]),
              st.lists(st.integers(0, 10**6), min_size=1, max_size=4)),
    max_size=25,
)


def build_dag(steps):
    nodes = [VRV(i) for i in range(5)] + [VConst(float(c)) for c in (1, 2, 3)]
    for op, picks in steps:
        args = [nodes[i % len(nodes)] for i in picks]
        a, b, c = (args * 3)[:3]
        try:
            match op:
                case "+":
                    node = add(a, b)
                case "-":
                    node = sub(a, b)
                case "*":
                    node = mul(a, b)
                case "/":
                    node = div(a, b)
                case "<":
                    node = cmp("<", a, b)
                case "ite":
                    node = ite(cmp("<", a, VConst(2.0)), b, c)
                case "ite=":  # over equal but distinct constants or variables
                    k = picks[-1] % 8
                    leaf = (lambda: VRV(k)) if k < 5 else (lambda: VConst(float(k - 4)))
                    node = ite(cmp("<", a, VConst(2.0)), leaf(), leaf())
                case "tup":
                    node = VTup(tuple(args))
                case _:
                    node = VLst(tuple(args))
        except EvalError:  # a constant zero divisor
            continue
        nodes.append(node)
    return nodes


@settings(max_examples=300, deadline=None)
@given(DAG_STEPS, st.randoms(use_true_random=False))
def test_cached_free_rvs_match_reference_walk(steps, rnd):
    nodes = build_dag(steps)
    order = list(range(len(nodes)))
    rnd.shuffle(order)  # query order decides which caches fill first
    for i in order:
        assert free_rvs(nodes[i]) == reference_free_rvs(nodes[i])
    reset_intern()
    for i in order:
        assert free_rvs(nodes[i]) == reference_free_rvs(nodes[i])
    rebuilt = build_dag(steps)
    for i in order:
        assert free_rvs(rebuilt[i]) == reference_free_rvs(rebuilt[i])


def abs_values(depth=3):
    """Abstract values with the analysis's own forms: unknown expressions
    over variable sets and lists with an unknown suffix."""
    rid_sets = st.frozensets(st.integers(0, 12), max_size=4)
    leaves = st.one_of(
        st.integers(0, 3).map(lambda n: VConst(float(n))),
        st.just(UNK),
        st.integers(0, 12).map(VRV),
        rid_sets.map(AEUnk),
    )
    binop = st.sampled_from([aadd, asub, amul, adiv])

    def extend(children):
        items = st.lists(children, max_size=3).map(tuple)
        return st.one_of(
            st.tuples(binop, children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, children, children).map(lambda t: aite(*t)),
            items.map(VTup),
            items.map(VLst),
            st.tuples(items, rid_sets).map(lambda t: ALst(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=depth * 3)


def reference_abs_vars(v):
    """First-occurrence variables by a plain recursive walk: an unknown
    expression's set in ascending order, a list's items before its tail."""
    out = []

    def add_rid(rid):
        if rid not in out:
            out.append(rid)

    def go(x):
        if isinstance(x, VRV):
            add_rid(x.rid)
        elif isinstance(x, AEUnk):
            for rid in sorted(x.fv):
                add_rid(rid)
        elif isinstance(x, (VAdd, VSub, VMul, VDiv, VCmp)):
            go(x.left)
            go(x.right)
        elif isinstance(x, VIte):
            go(x.cond)
            go(x.then)
            go(x.orelse)
        elif isinstance(x, (VTup, VLst, ALst)):
            for i in x.items:
                go(i)
            for rid in sorted(getattr(x, "tail", ())):
                add_rid(rid)

    go(v)
    return out


@settings(max_examples=300, deadline=None)
@given(abs_values())
def test_free_vars_of_abstract_values_match_reference_walk(v):
    assert free_rvs(v) == reference_abs_vars(v)


SCALAR_NODES = (VAdd, VSub, VMul, VDiv, VCmp, VIte)


def reference_eval(g, v, memo):
    """The full substitution and rebuild of every node, without skipping
    the sub-DAGs that no realized variable reaches."""
    if isinstance(v, VRV):
        c = g.realized_value(v.rid)
        return c if c is not None else v
    if id(v) not in memo:
        memo[id(v)] = rebuild(v, [reference_eval(g, k, memo) for k in children(v)], CONCRETE)
    return memo[id(v)]


def state_over(realized):
    """Variables 0..4: a realized one holds its value as a sampled or an
    observed delta, the others are standard normals."""
    g = SymState()
    for rid in range(5):
        if rid in realized:
            value = realized[rid]
            d = DSampledDelta(VConst(value)) if rid % 2 else DDelta(VConst(value))
        else:
            d = DNormal(VConst(0.0), VConst(1.0))
        g.fresh(Annotation.NONE, d)
    return g


@settings(max_examples=300, deadline=None)
@given(DAG_STEPS, st.dictionaries(st.integers(0, 4), st.sampled_from([0.0, 1.0, 2.0, 3.0])))
def test_constructed_values_are_fixed_points_and_evaluate_like_a_full_rebuild(steps, realized):
    nodes = build_dag(steps)
    for v in nodes:
        if isinstance(v, SCALAR_NODES):
            assert rebuild(v, children(v), CONCRETE) is v
    unrealized = state_over({})
    for v in nodes:
        assert unrealized.eval_value(v) is v
    g = state_over(realized)
    for v in nodes:
        try:
            expected = reference_eval(g, v, {})
        except EvalError:  # a realized zero divisor
            with pytest.raises(EvalError):
                g.eval_value(v)
            continue
        assert g.eval_value(v) == expected
    for rid, value in realized.items():  # substitution of one variable
        one = state_over({rid: value})
        for v in nodes:
            try:
                expected = reference_eval(one, v, {})
            except EvalError:
                with pytest.raises(EvalError):
                    subst_rv(v, rid, VConst(value))
                continue
            assert subst_rv(v, rid, VConst(value)) == expected
