"""Symbolic values: evaluation, densities, sampling, state invariants."""

import math

import numpy as np
import pytest
from scipy import integrate

from symppl.lang import Annotation
from symppl.sym import (
    DIST_ARITIES,
    FAMILIES,
    DBernoulli,
    DBeta,
    DDelta,
    DInvGamma,
    DMixIte,
    DNormal,
    DSampledDelta,
    DStudentT,
    EvalError,
    SymState,
    VConst,
    VRV,
    add,
    cmp,
    distr_to_json,
    div,
    draw,
    ite,
    make_dist,
    mul,
    reachable,
    score,
    weak_eq,
)


def test_constant_folding():
    assert add(VConst(1.0), VConst(2.0)) == VConst(3.0)
    assert ite(cmp("<", VConst(1.0), VConst(2.0)), VConst(10.0), VRV(0)) == VConst(10.0)
    assert mul(VConst(0.0), VRV(3)) == VConst(0.0)
    with pytest.raises(EvalError):
        div(VConst(1.0), VConst(0.0))


def test_delta_substitution():
    g = SymState()
    x = g.fresh(Annotation.NONE, DSampledDelta(VConst(4.5)))
    assert g.eval_value(add(VRV(x), VConst(1.0))) == VConst(5.5)


def test_eval_idempotent():
    g = SymState()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    y = g.fresh(Annotation.NONE, DSampledDelta(VConst(2.0)))
    e = add(mul(VRV(x), VConst(2.0)), VRV(y))
    once = g.eval_value(e)
    assert g.eval_value(once) == once


@pytest.mark.parametrize("branch", [lambda: VConst(1.0), lambda: VRV(1)],
                         ids=["constant", "variable"])
def test_ite_of_equal_branches_is_the_branch(branch):
    # the branches are equal but distinct objects
    for c in (VRV(0), cmp("<", VRV(0), VConst(2.0))):
        assert ite(c, branch(), branch()) == branch()


def test_eval_returns_values_and_distributions_without_realized_variables_as_they_are():
    g = SymState()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    y = g.fresh(Annotation.NONE, DSampledDelta(VConst(2.0)))
    e = add(mul(VRV(x), VConst(3.0)), VConst(1.0))
    assert g.eval_value(e) is e
    d = DNormal(e, VConst(1.0))
    assert g.eval_distr(d) is d
    assert g.eval_distr(DNormal(add(e, VRV(y)), VConst(1.0))) == \
        DNormal(add(e, VConst(2.0)), VConst(1.0))


@pytest.mark.parametrize("guard", ["constant", "realized"])
def test_eval_distr_collapses_a_mixture_on_a_known_guard(guard):
    g = SymState()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    flag = g.fresh(Annotation.NONE, DSampledDelta(VConst(False)))
    then, orelse = DNormal(VRV(x), VConst(1.0)), DBernoulli(VConst(0.25))
    cond = VConst(False) if guard == "constant" else VRV(flag)
    assert g.eval_distr(DMixIte(cond, then, orelse)) is orelse
    # nested: the inner mixture collapses once the outer guard is unknown
    outer = DMixIte(VRV(x), DMixIte(cond, orelse, then), then)
    assert g.eval_distr(outer) == DMixIte(VRV(x), then, then)


def test_fresh_rv_rejects_unknown_reference():
    g = SymState()
    with pytest.raises(EvalError):
        g.fresh(Annotation.NONE, DNormal(VRV(9), VConst(1.0)))


def test_fresh_ids_increase_and_acyclic():
    g = SymState()
    a = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    b = g.fresh(Annotation.NONE, DNormal(VRV(a), VConst(1.0)))
    assert b > a
    check_acyclic(g)


def check_acyclic(g: SymState) -> None:
    """Raise ``EvalError`` on a dependency cycle among ``g``'s variables."""
    color: dict[int, int] = {}

    def visit(rid: int) -> None:
        state = color.get(rid, 0)
        if state == 1:
            raise EvalError(f"dependency cycle through variable {rid}")
        if state == 2:
            return
        color[rid] = 1
        for p in g.parents(rid):
            visit(p)
        color[rid] = 2

    for rid in g.entries:
        visit(rid)


def test_score_standard_gaussian():
    assert abs(score(DNormal(VConst(0.0), VConst(1.0)), 0.0) - math.log(1 / math.sqrt(2 * math.pi))) < 1e-12


def test_score_bernoulli_complement():
    assert abs(score(DBernoulli(VConst(0.25)), False) - math.log(0.75)) < 1e-12


def test_score_marginal_likelihood_value():
    # N(0,2) at 1: the marginal likelihood of observing 1 under N(0,1)+N(x,1)
    assert abs(math.exp(score(DNormal(VConst(0.0), VConst(2.0)), 1.0)) - 0.21969564473386122) < 1e-9


@pytest.mark.parametrize(
    "dist,lo,hi",
    [
        (DNormal(VConst(0.3), VConst(1.7)), -12.0, 13.0),
        (DInvGamma(VConst(3.0), VConst(2.0)), 1e-9, 120.0),
        (DBeta(VConst(2.5), VConst(1.5)), 1e-12, 1.0 - 1e-12),
        (DStudentT(VConst(0.5), VConst(5.0), VConst(1.2)), -220.0, 220.0),
    ],
)
def test_score_normalizes(dist, lo, hi):
    total, _ = integrate.quad(lambda x: math.exp(score(dist, x)), lo, hi, limit=400)
    assert abs(total - 1.0) < 1e-3


def test_draw_trivials():
    rng = np.random.default_rng(0)
    assert draw(DDelta(VConst(3.0)), rng) == 3.0
    assert draw(DBernoulli(VConst(1.0)), rng) is True


def test_draw_law_of_large_numbers():
    rng = np.random.default_rng(7)
    xs = [draw(DNormal(VConst(0.0), VConst(1.0)), rng) for _ in range(100000)]
    assert abs(float(np.mean(xs))) < 0.02


def test_reachable_and_weak_eq():
    g1 = SymState()
    a = g1.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    b = g1.fresh(Annotation.NONE, DNormal(VRV(a), VConst(1.0)))
    assert reachable([b], g1) == {a, b}
    assert reachable([], g1) == set()
    g2 = g1.copy()
    assert weak_eq(g1, g2, VRV(b))
    # an unreachable extra does not break weak equivalence
    g2.fresh(Annotation.NONE, DNormal(VConst(5.0), VConst(1.0)))
    assert weak_eq(g1, g2, VRV(b))
    # a reachable difference does
    g3 = g1.copy()
    g3.set_distr(a, DNormal(VConst(9.0), VConst(1.0)))
    assert not weak_eq(g1, g3, VRV(b))


def test_labels_are_per_particle():
    g = SymState()
    g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), label="x")
    a, b = g.copy(), g.copy()
    ra = a.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)), label="left")
    rb = b.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)), label="right")
    assert ra == rb
    assert a.label(ra) == f"left#{ra}" and b.label(rb) == f"right#{rb}"
    assert g.label(0) == a.label(0) == b.label(0) == "x#0"
    # the label survives distribution and node updates
    a.set_distr(ra, DSampledDelta(VConst(1.0)))
    a.set_node(ra, "node")
    assert a.label(ra) == f"left#{ra}"


@pytest.mark.parametrize("d,message", [
    (DNormal(VConst(0.0), VConst(0.0)), "gaussian variance must be positive, got 0.0"),
    (DBernoulli(VConst(1.5)), "bernoulli probability out of range: 1.5"),
    (DInvGamma(VConst(-1.0), VConst(1.0)), "invgamma parameters must be positive"),
    (DBeta(VConst(1.0), VConst(0.0)), "beta parameters must be positive"),
    (DStudentT(VConst(0.0), VConst(-2.0), VConst(1.0)), "student_t parameters must be positive"),
])
def test_one_parameter_check_for_score_draw_and_extraction(d, message):
    from symppl.sym import check_params

    for use in (check_params, lambda d: score(d, 0.5),
                lambda d: draw(d, np.random.default_rng(0))):
        with pytest.raises(EvalError, match=f"^{message}$"):
            use(d)
    # symbolic parameters are left to be checked once they are constant
    for ok in (DInvGamma(VConst(1.0), VRV(0)), DNormal(VConst(-1.0), VRV(0))):
        assert check_params(ok) is ok


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_family_is_declared_once(name):
    # the parser, the checker, construction and printing all read FAMILIES
    from symppl import check, parse

    cls, n = FAMILIES[name], DIST_ARITIES[name]
    assert (cls.name, n) == (name, len(cls.__match_args__))
    args = ", ".join(["1."] * n)
    assert check(parse(f"let x <- {name}({args}) in observe({name}({args}), 1.)")) == []
    for wrong in (n - 1, n + 1):
        args = ", ".join(["1."] * wrong)
        assert check(parse(f"let x <- {name}({args}) in x")) == [
            f"distribution {name} expects {n} argument(s)"]
    d = make_dist(name, tuple(VConst(float(i)) for i in range(n)))
    assert type(d) is cls
    assert list(distr_to_json(d)) == ["dist", *cls.__match_args__]
    assert distr_to_json(d) == {"dist": name, **{f: float(i) for i, f in enumerate(cls.__match_args__)}}


def test_sampled_and_observed_deltas_print_alike():
    import json

    g = SymState(np.random.default_rng(0))
    x = g.fresh(Annotation.NONE, DBernoulli(VConst(1.0)))
    sampled, c = g.forced(x)
    assert type(sampled) is DSampledDelta and sampled.v is c == VConst(True)
    observed = DDelta(c)
    assert sampled != observed  # kept apart in the state
    assert json.dumps(distr_to_json(sampled)) == json.dumps(distr_to_json(observed)) \
        == '{"dist": "delta", "v": true}'
