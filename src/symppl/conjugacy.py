"""Conjugate-pair detection and the marginal/posterior transformations.

Four supported pairs:

* linear-Gaussian: Gaussian parent, Gaussian child whose mean is affine in
  the parent and whose variances are free of random variables;
* beta-bernoulli: Beta parent, Bernoulli child with the parent as its
  probability;
* invgamma-variance: InvGamma parent appearing exactly as the variance of a
  Gaussian child with variable-free mean (marginal is a location-scale t);
* bernoulli-bernoulli: Bernoulli parent inside the child's probability,
  resolved by enumerating the parent.

``posterior`` expressions reference the child through ``child_ref``, which
is the child variable during a swap and a realized constant during a
delayed-sampling realize.
"""

from __future__ import annotations

import math

from .sym import (
    DBernoulli,
    DBeta,
    DInvGamma,
    DMixIte,
    DNormal,
    DStudentT,
    Distr,
    EvalError,
    VAdd,
    VConst,
    VDiv,
    VMul,
    VRV,
    VSub,
    Val,
    add,
    div,
    free_vars,
    is_const,
    mul,
    sub,
    subst_rv,
)


def rv_free(v: Val, allow: frozenset[int] = frozenset()) -> bool:
    return all(r in allow for r in free_vars(v))


def affine_of(e: Val, rid: int) -> tuple[Val, Val] | None:
    """Decompose ``e`` as ``a * rid + b`` with ``a``, ``b`` free of ``rid``.

    Coefficients may reference other live variables.
    """
    if rid not in free_vars(e):
        return (VConst(0.0), e)
    match e:
        case VRV(r) if r == rid:
            return (VConst(1.0), VConst(0.0))
        case VAdd(l, r):
            cl, cr = affine_of(l, rid), affine_of(r, rid)
            if cl is None or cr is None:
                return None
            return (add(cl[0], cr[0]), add(cl[1], cr[1]))
        case VSub(l, r):
            cl, cr = affine_of(l, rid), affine_of(r, rid)
            if cl is None or cr is None:
                return None
            return (sub(cl[0], cr[0]), sub(cl[1], cr[1]))
        case VMul(l, r):
            cl, cr = affine_of(l, rid), affine_of(r, rid)
            if cl is None or cr is None:
                return None
            (a1, b1), (a2, b2) = cl, cr
            if a1 == VConst(0.0):
                return (mul(b1, a2), mul(b1, b2))
            if a2 == VConst(0.0):
                return (mul(a1, b2), mul(b1, b2))
            return None  # quadratic in rid
        case VDiv(l, r):
            cl, cr = affine_of(l, rid), affine_of(r, rid)
            if cl is None or cr is None:
                return None
            (a1, b1), (a2, b2) = cl, cr
            if a2 == VConst(0.0):
                return (div(a1, b2), div(b1, b2))
            return None
        case _:
            return None


LINEAR_GAUSSIAN = "linear_gaussian"
BETA_BERNOULLI = "beta_bernoulli"
INVGAMMA_VARIANCE = "invgamma_variance"
BERNOULLI_BERNOULLI = "bernoulli_bernoulli"


def match_case(prior: Distr, cond: Distr, par: int,
               allow: frozenset[int] = frozenset()) -> str | None:
    """Which conjugacy case applies for ``cond`` as a child of ``par``.

    Both distributions must be pre-evaluated.  ``allow`` lists variables to
    treat as constants (used when choosing which extra parents to force).
    """
    match prior, cond:
        case DNormal(_, var0), DNormal(mu, var):
            if (
                rv_free(var0, allow)
                and rv_free(var, allow)
                and par in free_vars(mu)
                and affine_of(mu, par) is not None
            ):
                return LINEAR_GAUSSIAN
        case DBeta(a, b), DBernoulli(p):
            if p == VRV(par) and rv_free(a, allow) and rv_free(b, allow):
                return BETA_BERNOULLI
        case DInvGamma(a, b), DNormal(mu, var):
            if var == VRV(par) and rv_free(mu, allow) and rv_free(a, allow) and rv_free(b, allow):
                return INVGAMMA_VARIANCE
        case DBernoulli(p1), DBernoulli(p2):
            # the parent's own probability may reference other live
            # variables; enumeration only substitutes the parent
            if par in free_vars(p2):
                return BERNOULLI_BERNOULLI
    return None


def _safe_div(num: Val, den: Val) -> Val:
    try:
        return div(num, den)
    except EvalError:
        return VConst(0.0)  # conditioning on a zero-probability branch


def _gaussian_parts(prior: DNormal, cond: DNormal, par: int) -> tuple[Val, Val, Val, Val, Val]:
    coefs = affine_of(cond.mu, par)
    assert coefs is not None
    a, b = coefs
    mu01 = add(mul(a, prior.mu), b)
    var01 = mul(mul(a, a), prior.var)
    return a, b, mu01, var01, cond.var


def marginal(prior: Distr, cond: Distr, par: int) -> Distr | None:
    """Marginal distribution of the child after integrating out the parent."""
    case = match_case(prior, cond, par)
    if case is None:
        return None
    if case == LINEAR_GAUSSIAN:
        _, _, mu01, var01, var = _gaussian_parts(prior, cond, par)
        return DNormal(mu01, add(var01, var))
    if case == BETA_BERNOULLI:
        a, b = prior.a, prior.b
        return DBernoulli(div(a, add(a, b)))
    if case == INVGAMMA_VARIANCE:
        a, b = prior.a, prior.b
        if not (is_const(a) and is_const(b)):
            return None
        return DStudentT(cond.mu, mul(VConst(2.0), a), VConst(math.sqrt(b.v / a.v)))
    if case == BERNOULLI_BERNOULLI:
        p1, p2 = prior.p, cond.p
        p_t = subst_rv(p2, par, VConst(True))
        p_f = subst_rv(p2, par, VConst(False))
        return DBernoulli(add(mul(p1, p_t), mul(sub(VConst(1.0), p1), p_f)))
    return None


def posterior(prior: Distr, cond: Distr, par: int, child_ref: Val) -> Distr | None:
    """Parent's distribution conditioned on the child taking ``child_ref``."""
    case = match_case(prior, cond, par)
    if case is None:
        return None
    if case == LINEAR_GAUSSIAN:
        a, b, mu01, var01, var = _gaussian_parts(prior, cond, par)
        var02 = div(VConst(1.0), add(div(VConst(1.0), var01), div(VConst(1.0), var)))
        mu02 = mul(add(div(mu01, var01), div(child_ref, var)), var02)
        return DNormal(div(sub(mu02, b), a), div(var02, mul(a, a)))
    if case == BETA_BERNOULLI:
        a, b = prior.a, prior.b
        one = VConst(1.0)
        return DMixIte(child_ref, DBeta(add(a, one), b), DBeta(a, add(b, one)))
    if case == INVGAMMA_VARIANCE:
        a, b = prior.a, prior.b
        resid = sub(child_ref, cond.mu)
        return DInvGamma(add(a, VConst(0.5)), add(b, div(mul(resid, resid), VConst(2.0))))
    if case == BERNOULLI_BERNOULLI:
        p1, p2 = prior.p, cond.p
        p_t = subst_rv(p2, par, VConst(True))
        p_f = subst_rv(p2, par, VConst(False))
        marg = add(mul(p1, p_t), mul(sub(VConst(1.0), p1), p_f))
        pos_t = _safe_div(mul(p1, p_t), marg)
        pos_f = _safe_div(mul(p1, sub(VConst(1.0), p_t)), sub(VConst(1.0), marg))
        return DMixIte(child_ref, DBernoulli(pos_t), DBernoulli(pos_f))
    return None
