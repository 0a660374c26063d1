"""Numeric oracles for the four conjugate transformations.

Every swap must preserve the joint density of (parent, child); the
continuous cases are checked on a 50x50 grid against the factored joint,
the Bernoulli cases by exact enumeration.  Observe posteriors are checked
against grid-integration Bayes updates.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from symppl import conjugacy
from symppl.interface import CastLog
from symppl.lang import Annotation
from symppl.sym import (
    DBernoulli,
    DBeta,
    DInvGamma,
    DMixIte,
    DNormal,
    DStudentT,
    SymState,
    VConst,
    VRV,
    add,
    mul,
    score,
)
from symppl.ssi import SsiBackend, swap


def fresh_state():
    return SymState(np.random.default_rng(0), CastLog())


def density(d, x):
    return math.exp(score(d, x))


GRID = np.linspace(-4.0, 4.0, 50)


def factored_joint(g, x1, x2, a, b):
    """p(x1=a) * p(x2=b | x1=a) read off the current state."""
    from symppl.sym import DDelta

    g1 = g.copy()
    g1.set_distr(x2, DDelta(VConst(b)))
    p1 = density(g1.eval_distr(g.distr(x1)), a)
    g2 = g.copy()
    g2.set_distr(x1, DDelta(VConst(a)))
    p2 = density(g2.eval_distr(g.distr(x2)), b)
    return p1 * p2


def test_linear_gaussian_swap_preserves_joint():
    g = fresh_state()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(add(mul(VConst(2.0), VRV(x1)), VConst(3.0)), VConst(0.5)))
    before = np.array([[factored_joint(g, x1, x2, a, b) for b in GRID + 3.0] for a in GRID])
    assert swap(x1, x2, g)
    after = np.array([[factored_joint(g, x1, x2, a, b) for b in GRID + 3.0] for a in GRID])
    assert np.max(np.abs(before - after)) < 1e-6


def test_linear_gaussian_swap_unit_example():
    # x1 ~ N(0,1), x2 ~ N(x1, 1): marginal N(0,2), conditional N(x2/2, 1/2)
    g = fresh_state()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)))
    assert swap(x1, x2, g)
    m2 = g.eval_distr(g.distr(x2))
    assert isinstance(m2, DNormal)
    assert m2.mu == VConst(0.0)
    assert abs(m2.var.v - 2.0) < 1e-12
    from symppl.sym import DDelta

    g.set_distr(x2, DDelta(VConst(1.0)))
    c1 = g.eval_distr(g.distr(x1))
    assert abs(c1.mu.v - 0.5) < 1e-12 and abs(c1.var.v - 0.5) < 1e-12


def test_invgamma_variance_swap_preserves_joint():
    g = fresh_state()
    x1 = g.fresh(Annotation.NONE, DInvGamma(VConst(3.0), VConst(2.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VConst(1.0), VRV(x1)))
    vgrid = np.linspace(0.05, 6.0, 50)
    xgrid = np.linspace(-5.0, 7.0, 50)
    before = np.array([[factored_joint(g, x1, x2, a, b) for b in xgrid] for a in vgrid])
    assert swap(x1, x2, g)
    m2 = g.eval_distr(g.distr(x2))
    assert isinstance(m2, DStudentT)
    assert abs(m2.dof.v - 6.0) < 1e-12
    assert abs(m2.scale.v - math.sqrt(2.0 / 3.0)) < 1e-12
    after = np.array([[factored_joint(g, x1, x2, a, b) for b in xgrid] for a in vgrid])
    assert np.max(np.abs(before - after)) < 1e-6


def test_beta_bernoulli_swap_exact():
    g = fresh_state()
    x1 = g.fresh(Annotation.NONE, DBeta(VConst(1.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DBernoulli(VRV(x1)))
    # exact joint check on a grid over x1 with both x2 outcomes
    pgrid = np.linspace(0.01, 0.99, 50)
    before = {
        t: np.array([factored_joint(g, x1, x2, p, t) for p in pgrid]) for t in (True, False)
    }
    assert swap(x1, x2, g)
    m2 = g.eval_distr(g.distr(x2))
    assert isinstance(m2, DBernoulli) and abs(m2.p.v - 0.5) < 1e-12
    post = g.distr(x1)
    assert isinstance(post, DMixIte)
    for t in (True, False):
        cond = post.then if t else post.orelse
        p2 = density(m2, t)
        after = np.array([density(cond, p) * p2 for p in pgrid])
        assert np.max(np.abs(before[t] - after)) < 1e-12


def test_bernoulli_bernoulli_swap_exact():
    from symppl.sym import ite

    g = fresh_state()
    x1 = g.fresh(Annotation.NONE, DBernoulli(VConst(0.3)))
    x2 = g.fresh(Annotation.NONE, DBernoulli(ite(VRV(x1), VConst(0.9), VConst(0.2))))
    before = {
        (a, b): factored_joint(g, x1, x2, a, b) for a in (True, False) for b in (True, False)
    }
    assert swap(x1, x2, g)
    marg = g.eval_distr(g.distr(x2))
    post = g.distr(x1)
    assert isinstance(post, DMixIte)
    for a in (True, False):
        for b in (True, False):
            cond = post.then if b else post.orelse
            after = density(cond, a) * density(marg, b)
            assert abs(before[(a, b)] - after) < 1e-12
    # exact marginal: 0.3*0.9 + 0.7*0.2 = 0.41
    assert abs(marg.p.v - 0.41) < 1e-12


@pytest.mark.parametrize("obs", [1.0, -0.7])
def test_observe_posterior_matches_grid_bayes_gaussian(obs):
    g = fresh_state()
    backend = SsiBackend()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)))
    w = backend.observe(x2, obs, g)
    # independent numerical Bayes: prior N(0,1), likelihood N(x, 1)
    prior = stats.norm(0.0, 1.0)
    like = lambda x: stats.norm(x, 1.0).pdf(obs)
    grid = np.linspace(-10, 10, 4001)
    unnorm = prior.pdf(grid) * like(grid)
    z = integrate.trapezoid(unnorm, grid)
    post_mean = integrate.trapezoid(grid * unnorm, grid) / z
    post_var = integrate.trapezoid(grid ** 2 * unnorm, grid) / z - post_mean ** 2
    d1 = g.eval_distr(g.distr(x1))
    assert abs(math.exp(w) - z) < 1e-4
    assert abs(d1.mu.v - post_mean) < 1e-4
    assert abs(d1.var.v - post_var) < 1e-4


def test_observe_weight_standard_example():
    # prior N(0,1), likelihood N(x,1), observation 1.0: marginal N(0,2) at 1
    g = fresh_state()
    backend = SsiBackend()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)))
    w = backend.observe(x2, 1.0, g)
    assert abs(math.exp(w) - 0.21969564473386122) < 1e-12


def test_observe_posterior_invgamma_matches_grid_bayes():
    g = fresh_state()
    backend = SsiBackend()
    x1 = g.fresh(Annotation.NONE, DInvGamma(VConst(2.0), VConst(1.5)))
    x2 = g.fresh(Annotation.NONE, DNormal(VConst(0.5), VRV(x1)))
    obs = 1.3
    w = backend.observe(x2, obs, g)
    unnorm = lambda v: stats.invgamma(2.0, scale=1.5).pdf(v) * stats.norm(0.5, math.sqrt(v)).pdf(obs)
    z, _ = integrate.quad(unnorm, 0.0, np.inf)
    first, _ = integrate.quad(lambda v: v * unnorm(v), 0.0, np.inf)
    post_mean = first / z
    d1 = g.eval_distr(g.distr(x1))
    got_mean = d1.b.v / (d1.a.v - 1.0)
    assert abs(math.exp(w) - z) < 1e-4
    assert abs(got_mean - post_mean) < 1e-4


def test_observe_posterior_beta_matches_enumeration():
    g = fresh_state()
    backend = SsiBackend()
    x1 = g.fresh(Annotation.NONE, DBeta(VConst(2.0), VConst(3.0)))
    x2 = g.fresh(Annotation.NONE, DBernoulli(VRV(x1)))
    w = backend.observe(x2, True, g)
    assert abs(math.exp(w) - 0.4) < 1e-12  # E[Beta(2,3)] = 2/5
    d1 = g.eval_distr(g.distr(x1))
    assert isinstance(d1, DBeta) and d1.a.v == 3.0 and d1.b.v == 3.0


# --- one rule table, two value algebras ---

X, Y, CHILD = 0, 1, 2  # the parent, another live variable, the child


def _abstract(v):
    """The abstract value standing for exactly the concrete value ``v``:
    the same nodes, built raw as the analysis builds them."""
    from symppl.sym import VIte

    match v:
        case VConst(c):
            return VConst(c)
        case VRV(rid):
            return VRV(rid)
        case VIte(c, t, o):
            return VIte(_abstract(c), _abstract(t), _abstract(o))
    return type(v)(_abstract(v.left), _abstract(v.right))


def _pairs(alg, ite):
    c, rv = VConst, VRV
    return {
        "linear-gaussian": (DNormal(c(0.5), c(1.0)),
                            DNormal(alg.add(alg.mul(c(2.0), rv(X)), c(3.0)), c(0.5))),
        "linear-gaussian, live coefficient": (DNormal(c(0.0), c(2.0)),
                                              DNormal(alg.add(alg.mul(rv(Y), rv(X)), c(1.0)), c(1.0))),
        "beta-bernoulli": (DBeta(c(2.0), c(3.0)), DBernoulli(rv(X))),
        "invgamma-variance": (DInvGamma(c(3.0), c(2.0)), DNormal(c(1.0), rv(X))),
        "bernoulli-bernoulli": (DBernoulli(c(0.3)), DBernoulli(ite(rv(X), c(0.9), c(0.2)))),
        "bernoulli-bernoulli, live parent probability": (
            DBernoulli(rv(Y)), DBernoulli(ite(rv(X), c(0.9), c(0.2)))),
        "quadratic mean": (DNormal(c(0.0), c(1.0)), DNormal(alg.mul(rv(X), rv(X)), c(1.0))),
        "live child variance": (DNormal(c(0.0), c(1.0)), DNormal(rv(X), rv(Y))),
    }


def test_rule_table_agrees_across_algebras():
    from symppl import absdomain as ad
    from symppl.sym import ite, map_params

    concrete = _pairs(conjugacy.CONCRETE, ite)
    abstract = _pairs(ad.ALGEBRA, ad.aite)
    cases = {}
    for name, (prior, cond) in concrete.items():
        a_prior, a_cond = abstract[name]
        assert (map_params(prior, _abstract), map_params(cond, _abstract)) == (a_prior, a_cond)
        cases[name] = tuple(conjugacy.match_case(prior, cond, X, allow)
                            for allow in (frozenset(), frozenset({Y})))
        assert cases[name] == tuple(conjugacy.match_case(a_prior, a_cond, X, allow, ad.ALGEBRA)
                                    for allow in (frozenset(), frozenset({Y}))), name
        marg = conjugacy.marginal(prior, cond, X)
        post = conjugacy.posterior(prior, cond, X, VRV(CHILD))
        a_marg = conjugacy.marginal(a_prior, a_cond, X, ad.ALGEBRA)
        a_post = conjugacy.posterior(a_prior, a_cond, X, VRV(CHILD), ad.ALGEBRA)
        for got, want in ((a_marg, marg), (a_post, post)):
            assert got == (want if want is None else map_params(want, _abstract)), name
    bb = conjugacy.BERNOULLI_BERNOULLI
    assert cases["bernoulli-bernoulli, live parent probability"] == (bb, bb)
    assert cases["quadratic mean"] == (None, None)
    assert cases["live child variance"] == (None, conjugacy.LINEAR_GAUSSIAN)
