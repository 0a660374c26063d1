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

This is the only rule table.  Both sides build and read ``sym``'s value
nodes; the runtime applies the rules through its smart constructors
(``sym.CONCRETE``, the default) and the analysis through its own
(``absdomain.ALGEBRA``), each a ``sym.Algebra``, so the analysis accepts
exactly the pairs the runtime does.  The backends take the algebra from
their state (``g.alg``).

Each application of a rule matches it once: ``swap`` gives an SSI swap
both halves from one match, and ``marginal`` and ``posterior`` each match on
their own, since delayed sampling needs them at different times and output
extraction needs only the marginal.  ``match_case`` is the one matcher; the
affine decomposition it finds for a linear-Gaussian child is handed to the
rule's shared parts (``_parts``), so the child's mean is decomposed once
per application.

``posterior`` expressions reference the child through ``child_ref``, which
is the child variable during a swap and a realized constant during a
delayed-sampling realize.
"""

from __future__ import annotations

from .sym import (
    ARITH,
    CONCRETE,
    Algebra,
    DBernoulli,
    DBeta,
    DInvGamma,
    DMixIte,
    DNormal,
    DStudentT,
    Distr,
    VConst,
    VRV,
    free_vars,
)


ZERO, ONE = VConst(0.0), VConst(1.0)


def _free(v, allow: frozenset[int], alg: Algebra) -> bool:
    return isinstance(v, VConst) or (allow.issuperset(free_vars(v)) and not alg.has_top(v))


def affine_of(e, rid: int, alg: Algebra = CONCRETE):
    """Decompose ``e`` as ``a * rid + b`` with ``a``, ``b`` free of ``rid``.

    Coefficients may reference other live variables.
    """
    if rid not in free_vars(e):
        return None if alg.has_top(e) else (ZERO, e)
    op = ARITH.get(type(e))
    if op is None:
        # a variable with ``rid`` free is ``rid`` itself
        return (ONE, ZERO) if isinstance(e, VRV) else None
    cl, cr = affine_of(e.left, rid, alg), affine_of(e.right, rid, alg)
    if cl is None or cr is None:
        return None
    (a1, b1), (a2, b2) = cl, cr
    if op == "+":
        return (alg.add(a1, a2), alg.add(b1, b2))
    if op == "-":
        return (alg.sub(a1, a2), alg.sub(b1, b2))
    if op == "*":
        if a1 == ZERO:
            return (alg.mul(b1, a2), alg.mul(b1, b2))
        if a2 == ZERO:
            return (alg.mul(a1, b2), alg.mul(b1, b2))
        return None  # quadratic in rid
    if a2 == ZERO:
        return (alg.div(a1, b2), alg.div(b1, b2))
    return None


LINEAR_GAUSSIAN = "linear_gaussian"
BETA_BERNOULLI = "beta_bernoulli"
INVGAMMA_VARIANCE = "invgamma_variance"
BERNOULLI_BERNOULLI = "bernoulli_bernoulli"


def match_case(prior: Distr, cond: Distr, par: int,
               allow: frozenset[int] = frozenset(), alg: Algebra = CONCRETE,
               found: list | None = None) -> str | None:
    """Which conjugacy case applies for ``cond`` as a child of ``par``.

    Both distributions must be pre-evaluated.  ``allow`` lists variables to
    treat as constants (used when choosing which extra parents to force).
    A linear-Gaussian match appends the affine decomposition ``(a, b)`` of
    the child's mean to ``found``, when given, for the rule to apply.
    """
    match prior, cond:
        case DNormal(_, var0), DNormal(mu, var):
            if _free(var0, allow, alg) and _free(var, allow, alg) and par in free_vars(mu):
                ab = affine_of(mu, par, alg)
                if ab is not None:
                    if found is not None:
                        found.append(ab)
                    return LINEAR_GAUSSIAN
        case DBeta(a, b), DBernoulli(p):
            if (isinstance(p, VRV) and p.rid == par and _free(a, allow, alg)
                    and _free(b, allow, alg)):
                return BETA_BERNOULLI
        case DInvGamma(a, b), DNormal(mu, var):
            if (isinstance(var, VRV) and var.rid == par and _free(mu, allow, alg)
                    and _free(a, allow, alg) and _free(b, allow, alg)):
                return INVGAMMA_VARIANCE
        case DBernoulli(_), DBernoulli(p2):
            # the parent's own probability may reference other live
            # variables; enumeration only substitutes the parent
            if par in free_vars(p2):
                return BERNOULLI_BERNOULLI
    return None


def _parts(prior: Distr, cond: Distr, par: int, alg: Algebra):
    """The case for ``cond`` as a child of ``par``, and what both its
    marginal and its posterior read: the affine decomposition of a Gaussian
    child's mean, as the match found it, and the parent-scaled mean and
    variance, or the enumerated child probabilities."""
    found = []
    case = match_case(prior, cond, par, alg=alg, found=found)
    if case == LINEAR_GAUSSIAN:
        a, b = found[0]
        mu01 = alg.add(alg.mul(a, prior.mu), b)
        var01 = alg.mul(alg.mul(a, a), prior.var)
        return case, (a, b, mu01, var01)
    if case == BERNOULLI_BERNOULLI:
        # the child's probability given a true parent, and its marginal
        p1 = prior.p
        p_t = alg.subst_rv(cond.p, par, VConst(True))
        p_f = alg.subst_rv(cond.p, par, VConst(False))
        return case, (p_t, alg.add(alg.mul(p1, p_t), alg.mul(alg.sub(ONE, p1), p_f)))
    return case, None


def _marginal(case: str | None, prior: Distr, cond: Distr, alg: Algebra, parts) -> Distr | None:
    if case == LINEAR_GAUSSIAN:
        _, _, mu01, var01 = parts
        return DNormal(mu01, alg.add(var01, cond.var))
    if case == BETA_BERNOULLI:
        a, b = prior.a, prior.b
        return DBernoulli(alg.div(a, alg.add(a, b)))
    if case == INVGAMMA_VARIANCE:
        scale = alg.t_scale(prior.a, prior.b)
        if scale is None:
            return None
        return DStudentT(cond.mu, alg.mul(VConst(2.0), prior.a), scale)
    if case == BERNOULLI_BERNOULLI:
        return DBernoulli(parts[1])
    return None


def _posterior(case: str | None, prior: Distr, cond: Distr, child_ref, alg: Algebra,
               parts) -> Distr | None:
    if case == LINEAR_GAUSSIAN:
        a, b, mu01, var01 = parts
        var = cond.var
        var02 = alg.div(ONE, alg.add(alg.div(ONE, var01), alg.div(ONE, var)))
        mu02 = alg.mul(alg.add(alg.div(mu01, var01), alg.div(child_ref, var)), var02)
        return DNormal(alg.div(alg.sub(mu02, b), a), alg.div(var02, alg.mul(a, a)))
    if case == BETA_BERNOULLI:
        a, b = prior.a, prior.b
        return DMixIte(child_ref, DBeta(alg.add(a, ONE), b), DBeta(a, alg.add(b, ONE)))
    if case == INVGAMMA_VARIANCE:
        resid = alg.sub(child_ref, cond.mu)
        return DInvGamma(alg.add(prior.a, VConst(0.5)),
                         alg.add(prior.b, alg.div(alg.mul(resid, resid), VConst(2.0))))
    if case == BERNOULLI_BERNOULLI:
        p_t, marg = parts
        pos_t = alg.div_total(alg.mul(prior.p, p_t), marg)
        pos_f = alg.div_total(alg.mul(prior.p, alg.sub(ONE, p_t)), alg.sub(ONE, marg))
        return DMixIte(child_ref, DBernoulli(pos_t), DBernoulli(pos_f))
    return None


def marginal(prior: Distr, cond: Distr, par: int, alg: Algebra = CONCRETE) -> Distr | None:
    """Marginal distribution of the child after integrating out the parent."""
    case, parts = _parts(prior, cond, par, alg)
    return _marginal(case, prior, cond, alg, parts)


def posterior(prior: Distr, cond: Distr, par: int, child_ref,
              alg: Algebra = CONCRETE) -> Distr | None:
    """Parent's distribution conditioned on the child taking ``child_ref``."""
    case, parts = _parts(prior, cond, par, alg)
    return _posterior(case, prior, cond, child_ref, alg, parts)


def swap(prior: Distr, cond: Distr, par: int, child_ref,
         alg: Algebra = CONCRETE) -> tuple[Distr, Distr] | None:
    """``(marginal, posterior)`` from one rule match, or None when no rule
    applies or the marginal has no closed form."""
    case, parts = _parts(prior, cond, par, alg)
    marg = _marginal(case, prior, cond, alg, parts)
    if marg is None:
        return None
    return marg, _posterior(case, prior, cond, child_ref, alg, parts)
