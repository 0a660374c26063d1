"""Swap/hoist backend behavior beyond the numeric conjugacy oracles."""

import math

import numpy as np
import pytest

from symppl.conjugacy import affine_of
from symppl.interface import CastError, CastLog, distribution, value_star
from symppl.lang import Annotation
from symppl.sym import (
    DDelta,
    DInvGamma,
    DMixIte,
    DNormal,
    DSampledDelta,
    EvalError,
    SymState,
    VConst,
    VLst,
    VRV,
    add,
    distr_rvs,
    mul,
    reachable,
    sub,
)
from symppl.ssi import SsiBackend, intervene, swap, topo_sort


def rng():
    return np.random.default_rng(0)


def test_affine_forms():
    assert affine_of(VRV(1), 1) == (VConst(1.0), VConst(0.0))
    a, b = affine_of(add(mul(VConst(2.0), VRV(1)), VConst(3.0)), 1)
    assert a == VConst(2.0) and b == VConst(3.0)
    assert affine_of(mul(VRV(1), VRV(1)), 1) is None
    # coefficients may carry other live variables
    a, b = affine_of(sub(VRV(1), mul(VConst(2.0), VRV(2))), 1)
    assert a == VConst(1.0)
    assert b == sub(VConst(0.0), mul(VConst(2.0), VRV(2)))


def test_swap_non_affine_returns_false():
    g = SymState()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(mul(VRV(x1), VRV(x1)), VConst(1.0)))
    before = dict(g.entries)
    assert not swap(x1, x2, g)
    assert g.entries == before


def test_hoist_chain_variance_addition():
    casts = CastLog()
    g = SymState(rng(), casts)
    backend = SsiBackend()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)))
    x3 = g.fresh(Annotation.NONE, DNormal(VRV(x2), VConst(1.0)))
    backend.hoist(x3, g)
    d = g.eval_distr(g.distr(x3))
    assert isinstance(d, DNormal)
    assert abs(d.mu.v - 0.0) < 1e-12 and abs(d.var.v - 3.0) < 1e-12
    assert len(casts) == 0  # fully conjugate chains never sample


def test_hoist_already_root_is_identity():
    g = SymState(rng(), CastLog())
    backend = SsiBackend()
    x = g.fresh(Annotation.NONE, DNormal(VConst(1.0), VConst(2.0)))
    before = dict(g.entries)
    backend.hoist(x, g)
    assert g.entries == before


def test_hoist_forces_nonconjugate_parent_with_cast():
    # variance is a sum of two invgammas: not conjugate, one parent forced
    casts = CastLog()
    g = SymState(rng(), casts)
    backend = SsiBackend()
    r = g.fresh(Annotation.SYMBOLIC, DInvGamma(VConst(1.0), VConst(1.0)), label="r")
    other = g.fresh(Annotation.NONE, DInvGamma(VConst(1.0), VConst(10.0)))
    obs = g.fresh(Annotation.NONE, DNormal(VConst(0.0), add(VRV(r), VRV(other))))
    backend.hoist(obs, g)
    assert any(rid == r for rid, _ in casts.events)  # symbolic r was sampled
    d = g.eval_distr(g.distr(obs))
    assert not any(True for _ in ()) or isinstance(d, DNormal)


def test_strict_mode_raises_cast_error():
    g = SymState(rng(), CastLog(strict=True))
    backend = SsiBackend()
    x = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)), label="x")
    with pytest.raises(CastError):
        backend.value(x, g)


def test_value_logs_cast_only_for_symbolic():
    casts = CastLog()
    g = SymState(rng(), casts)
    backend = SsiBackend()
    x = g.fresh(Annotation.SYMBOLIC, DNormal(VConst(0.0), VConst(1.0)))
    y = g.fresh(Annotation.SAMPLE, DNormal(VConst(0.0), VConst(1.0)))
    backend.value(x, g)
    backend.value(y, g)
    assert [rid for rid, _ in casts.events] == [x]


def test_value_on_realized_returns_constant():
    casts = CastLog()
    g = SymState(rng(), casts)
    backend = SsiBackend()
    x = g.fresh(Annotation.SYMBOLIC, DSampledDelta(VConst(2.0)))
    before = dict(g.entries)
    assert backend.value(x, g) == VConst(2.0)
    assert g.entries == before and len(casts) == 0


def test_intervene_requires_root():
    g = SymState()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)))
    with pytest.raises(EvalError):
        intervene(x2, DDelta(VConst(0.0)), g)
    intervene(x1, DSampledDelta(VConst(0.3)), g)
    assert g.distr(x1) == DSampledDelta(VConst(0.3))
    assert g.eval_distr(g.distr(x2)) == DNormal(VConst(0.3), VConst(1.0))


def test_observe_after_intervene_delta_child():
    g = SymState()
    backend = SsiBackend()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    child = g.fresh(Annotation.NONE, DNormal(VRV(x), VConst(1.0)))
    intervene(x, DDelta(VConst(2.0)), g)
    assert g.eval_distr(g.distr(child)) == DNormal(VConst(2.0), VConst(1.0))


def test_a_read_stores_its_evaluated_distribution():
    # observing y leaves x's posterior conditioned on y, which is now realized
    g = SymState(rng(), CastLog())
    backend = SsiBackend()
    x = backend.assume(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)), g)
    y = backend.assume(Annotation.NONE, DNormal(VRV(x), VConst(1.0)), g)
    backend.observe(y, 1.0, g)
    d = g.distr(x)
    assert all(g.realized_value(r) is None for r in distr_rvs(d))
    assert g.entries[x].distr is d
    assert g.distr(x) is d


def test_observe_on_delta_scores_zero():
    g = SymState()
    backend = SsiBackend()
    x = g.fresh(Annotation.NONE, DDelta(VConst(2.0)))
    # observe through the interface would reject realized variables; score directly
    from symppl.sym import score

    assert score(g.distr(x), 2.0) == 0.0
    assert score(g.distr(x), 2.5) == -math.inf


def test_topo_sort_orders_ancestors_first():
    g = SymState()
    a = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    b = g.fresh(Annotation.NONE, DNormal(VRV(a), VConst(1.0)))
    c = g.fresh(Annotation.NONE, DNormal(add(VRV(a), VRV(b)), VConst(1.0)))
    assert topo_sort([b, a], g) == [a, b]
    assert topo_sort([c, b, a], g) == [a, b, c]


def full_closure_topo_sort(rids, g):
    """Reference order: full ancestor closures, smallest ready id first."""
    anc = {r: reachable(g.parents(r), g) for r in rids}
    remaining = sorted(rids)
    out = []
    while remaining:
        r = next(r for r in remaining if not any(q in anc[r] for q in remaining if q != r))
        out.append(r)
        remaining.remove(r)
    return out


def test_topo_sort_matches_full_closure_order():
    # dependencies follow a random rank, not the ids, as they do after swaps
    gen = np.random.default_rng(5)
    for _ in range(200):
        n = int(gen.integers(2, 9))
        g = SymState()
        rids = [g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0))) for _ in range(n)]
        rank = list(gen.permutation(n))
        for r in rids:
            older = [q for q in rids if rank[q] < rank[r] and gen.random() < 0.4]
            mu = VConst(0.0)
            for q in older:
                mu = add(mu, VRV(q))
            g.set_distr(r, DNormal(mu, VConst(1.0)))
        subset = [int(r) for r in gen.choice(rids, size=int(gen.integers(1, n + 1)), replace=False)]
        assert topo_sort(subset, g) == full_closure_topo_sort(subset, g)


def test_value_star_forces_ascending():
    g = SymState(rng(), CastLog())
    backend = SsiBackend()
    x = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    c = value_star(add(VRV(x), VConst(1.0)), g, backend)
    assert isinstance(c, VConst)
    assert g.realized_value(x) is not None


def test_distribution_of_two_node_chain():
    g = SymState(rng(), CastLog())
    backend = SsiBackend()
    x1 = g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))
    x2 = g.fresh(Annotation.NONE, DNormal(VRV(x1), VConst(1.0)))
    d = distribution(VRV(x2), g, backend)
    assert isinstance(d, DNormal)
    assert abs(d.mu.v) < 1e-12 and abs(d.var.v - 2.0) < 1e-12


def test_distribution_of_constant():
    g = SymState(rng(), CastLog())
    backend = SsiBackend()
    assert distribution(VConst(3.0), g, backend) == DDelta(VConst(3.0))


def test_mixture_posterior_collapses_on_realized_guard():
    # beta-bernoulli posterior selects a branch once the child is realized
    g = SymState(rng(), CastLog())
    backend = SsiBackend()
    from symppl.sym import DBeta, DBernoulli

    p = g.fresh(Annotation.NONE, DBeta(VConst(1.0), VConst(1.0)))
    flag = g.fresh(Annotation.SAMPLE, DBernoulli(VRV(p)))
    v = backend.value(flag, g)
    d = g.eval_distr(g.distr(p))
    assert isinstance(d, DBeta)
    expect = (2.0, 1.0) if v.v else (1.0, 2.0)
    assert (d.a.v, d.b.v) == expect


def _rts_smoother(zs, q, r, f=1.001, h=2.0):
    """Independent Rauch-Tung-Striebel smoother for noise.si with q and r
    known: x_0 = 0, x_t ~ N(f x_{t-1}, q), z_t ~ N(h x_t, r).  Returns the
    smoothed (mean, variance) of x_1 .. x_T."""
    m, P = 0.0, 0.0
    filt, pred = [], []
    for z in zs:
        mp, Pp = f * m, f * f * P + q
        K = Pp * h / (h * h * Pp + r)
        m, P = mp + K * (z - h * mp), (1.0 - K * h) * Pp
        pred.append((mp, Pp))
        filt.append((m, P))
    out = [filt[-1]]
    for t in range(len(zs) - 2, -1, -1):
        (mt, Pt), (mp, Pp), (ms, Ps) = filt[t], pred[t + 1], out[-1]
        G = Pt * f / Pp
        out.append((mt + G * (ms - mp), Pt + G * G * (Ps - Pp)))
    return out[::-1]


def rts_oracle_error(timesteps, particles=4, seed=0):
    """Largest relative deviation of noise plan 3 (x symbolic, q and r
    sampled) SSI output marginals from the RTS smoother fed each particle's
    sampled q and r.  A mean's error is taken relative to the larger of its
    magnitude and its standard deviation."""
    from symppl.benchmarks import BENCHMARKS, data_for
    from symppl.checker import apply_plan
    from symppl.runtime import run_model

    program = apply_plan(BENCHMARKS["noise"].program(), 3)
    data, _ = data_for("noise", seed, timesteps)
    zs = [z.v for z in data.items]
    mix = run_model(program, particles, seed, SsiBackend(), data)
    assert not mix.casts and mix.output_casts == 0
    worst = 0.0
    for _, (xs, q, r) in mix.components:
        assert isinstance(q, DDelta) and isinstance(r, DDelta)
        oracle = _rts_smoother(zs, q.v.v, r.v.v)
        assert len(xs) == len(oracle) == timesteps
        for d, (m, P) in zip(xs, oracle):
            assert isinstance(d, DNormal)
            worst = max(worst, abs(d.mu.v - m) / max(abs(m), math.sqrt(P)),
                        abs(d.var.v - P) / P)
    return worst


@pytest.mark.parametrize("timesteps", [8, 50, 200])
def test_output_marginals_match_rts_smoother(timesteps):
    assert rts_oracle_error(timesteps) <= 1e-10



def terminated(program, data=None, seed=0):
    """A single SSI particle of ``program`` run to termination."""
    from symppl.runtime import Evaluator, Particle, subst

    ev = Evaluator(program, SsiBackend())
    main = program.main if data is None else subst(program.main, {"data": data})
    p = Particle(main, SymState(np.random.default_rng(seed), CastLog()), 0.0, False)
    while True:
        ev.eval_particle(p)
        if not p.flag:
            return p
        p.flag = False


def hoist_marginals(values, g, rng):
    """Each output's marginal by hoisting it, as extraction did before the
    read-only pass: the reference for the fallback."""
    g.rng, g.casts = rng, CastLog()
    out = []
    for v in values:
        if not isinstance(v, VRV):
            out.append(DDelta(value_star(v, g, SsiBackend())))
        elif (c := g.realized_value(v.rid)) is not None:
            out.append(DDelta(c))
        else:
            SsiBackend().hoist(v.rid, g)
            out.append(g.eval_distr(g.distr(v.rid)))
    return out


def forbid_state_changes(monkeypatch):
    import symppl.ssi as ssi

    def forbidden(*args, **kwargs):
        raise AssertionError("extraction changed the state")

    monkeypatch.setattr(ssi, "swap", forbidden)
    monkeypatch.setattr(SsiBackend, "hoist", forbidden)


def test_extraction_leaves_the_state_untouched(monkeypatch):
    from symppl.benchmarks import BENCHMARKS, data_for
    from symppl.checker import apply_plan

    data, _ = data_for("noise", 0, 30)
    p = terminated(apply_plan(BENCHMARKS["noise"].program(), 3), data)
    g = p.state
    for rid in list(g.entries):
        g.distr(rid)  # a read stores its evaluated result
    before = dict(g.entries)
    forbid_state_changes(monkeypatch)
    g.casts = casts = CastLog()
    xs, q, r = distribution(p.value, g, SsiBackend())
    assert g.entries == before and len(casts) == 0
    assert len(xs) == 30 and all(isinstance(d, DNormal) for d in xs)


def test_extraction_of_a_long_chain_needs_no_stack(monkeypatch):
    # each variable conditioned on the next one, as filtering leaves them
    g = SymState(rng(), CastLog())
    rids = [g.fresh(Annotation.NONE, DNormal(VConst(0.0), VConst(1.0)))]
    for _ in range(1499):
        rids.append(g.fresh(Annotation.NONE,
                            DNormal(add(mul(VConst(0.9), VRV(rids[-1])), VConst(0.1)),
                                    VConst(0.5))))
    forbid_state_changes(monkeypatch)
    out = distribution(VLst(tuple(VRV(r) for r in reversed(rids))), g, SsiBackend())
    assert len(out) == 1500
    assert all(math.isfinite(d.mu.v) and math.isfinite(d.var.v) for d in out)
    assert abs(out[0].var.v - (0.5 / (1 - 0.81) + 0.81 ** 1499 * (1 - 0.5 / 0.19))) < 1e-9


def test_two_parent_output_takes_the_hoist_path(monkeypatch):
    from symppl import parse

    p = terminated(parse("let a <- gaussian(0., 1.) in\n"
                         "let b <- gaussian(a, 1.) in\n"
                         "let c <- gaussian(a + b, 1.) in\n"
                         "c\n"))
    expected = hoist_marginals([p.value], p.state.copy(), rng())
    hoisted = []
    hoist = SsiBackend.hoist
    monkeypatch.setattr(SsiBackend, "hoist",
                        lambda self, rid, *args: hoisted.append(rid) or hoist(self, rid, *args))
    p.state.rng = rng()
    d = distribution(p.value, p.state, SsiBackend())
    assert hoisted == [p.value.rid]
    assert [d] == expected
    assert abs(d.mu.v) < 1e-12 and abs(d.var.v - 6.0) < 1e-12


@pytest.mark.parametrize("middle", [
    "let c <- gaussian(a * a, 1.) in (b, c, b)",  # c's fallback hoist samples a
    "(b, a + 1., b)",  # the expression output samples a
])
def test_forcing_clears_the_memo(middle):
    from symppl import parse

    p = terminated(parse(f"let a <- gaussian(0., 1.) in let b <- gaussian(a, 1.) in {middle}\n"))
    expected = hoist_marginals(p.value.items, p.state.copy(), rng())
    p.state.rng = rng()
    first, mid, last = distribution(p.value, p.state, SsiBackend())
    assert first == DNormal(VConst(0.0), VConst(2.0))
    a = p.state.realized_value(0)
    assert a is not None and last == DNormal(a, VConst(1.0))  # b given the sampled a
    assert mid == expected[1]
    for got, want in ((first, expected[0]), (last, expected[2])):
        assert abs(got.mu.v - want.mu.v) < 1e-12 and abs(got.var.v - want.var.v) < 1e-12
