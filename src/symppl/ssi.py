"""Semi-symbolic backend: swap-based conjugacy with hoisting.

``hoist`` makes a variable a root by hoisting its parents in topological
order and then reversing each parent edge with ``swap`` (Atkinson et al.,
OOPSLA 2022).  A failed swap forces the offending parent to a sample and
retries; forcing a symbolic-annotated variable is a dynamic encoding cast.

This is the only implementation of hoist, swap and the parent order.
``SsiBackend`` runs it over a particle's ``SymState``; the analysis binds
the same functions on ``analysis.AbsSsi`` and runs them over an
``absdomain.AbsState``.  The state supplies the domain: the rules'
algebra (``g.alg``), free variables, casts, forced samples, observations,
and ``give_up`` where an invariant is broken (the runtime raises, the
analysis over-approximates).

Hoisting runs on an explicit stack, and ordering a single parent needs no
ancestor search, so hoisting through a chain of length T costs O(T) time
and no Python stack.

Output marginals are read without changing the state (``chain_marginal``):
one loop up a single-parent chain and one ``conjugacy.marginal`` per
variable on the way down.  ``SsiBackend.marginal_of`` hoists only where
that pass does not apply.
"""

from __future__ import annotations

from . import conjugacy
from .lang import Annotation
from .sym import DDelta, Distr, EvalError, SymState, VConst, VRV, reachable


def topo_sort(rids: list[int], g: SymState) -> list[int]:
    """Ancestors-first order over a set of variables, ids breaking ties.

    Each time, takes the smallest remaining id with no ancestor among the
    remaining ids.  Each ancestor search stops once it has found every
    other member of ``rids``.  Members on a dependency cycle, which only
    the analysis's joins can make, keep id order; ``hoist`` meets the
    cycle itself.
    """
    if len(rids) <= 1:
        return list(rids)
    members = set(rids)
    anc = {r: reachable(g.parents(r), g, until=members - {r}) for r in rids}
    remaining = sorted(rids)
    out: list[int] = []
    while remaining:
        for r in remaining:
            if not any(q in anc[r] for q in remaining if q != r):
                out.append(r)
                remaining.remove(r)
                break
        else:
            return out + remaining
    return out


def swap(x1: int, x2: int, g: SymState) -> bool:
    """Reverse the dependency of ``x2`` on ``x1``, preserving the joint.

    On success ``x2`` holds the marginal and ``x1`` the conditional given
    ``x2``; returns False (state untouched, unless ``x1``'s distribution is
    unknown and the state gives up on it) when no conjugacy applies.
    """
    prior = g.distr(x1)
    cond = g.distr(x2)
    if prior.unknown:
        g.give_up([x1], f"unknown distribution of {x1}")
        return False
    pair = conjugacy.swap(prior, cond, x1, VRV(x2), g.alg)
    if pair is None:
        return False
    marg, post = pair
    g.set_distr(x2, marg)
    g.set_distr(x1, post)
    return True


def intervene(rid: int, d: Distr, g: SymState) -> None:
    """Replace a root's distribution with a (sampled) delta."""
    if g.parents(rid):
        raise EvalError(f"intervene on non-root variable {rid}")
    g.set_distr(rid, d)


def _make_root(rid: int, g: SymState) -> int | None:
    """Make ``rid`` a root: hoist its parents, ancestors first, then
    reverse each parent edge with ``swap``.  Returns the parent of the
    first failed swap, or None.

    A frame is ``[cur, roots, parents, inner_roots, next]``: ``roots`` are
    the variables the enclosing frames have already made roots, and
    ``inner_roots`` adds those this frame has hoisted so far.  A parent
    already on the stack closes a dependency cycle: the state gives up on
    it and it counts as hoisted.
    """
    stack = [[rid, [], topo_sort(g.parents(rid), g), [], 0]]
    on_stack = {rid}
    while stack:
        frame = stack[-1]
        cur, roots, parents, inner_roots, i = frame
        if i < len(parents):
            frame[4] = i + 1
            p = parents[i]
            if p in roots:
                continue
            if p in on_stack:
                g.give_up([p], f"dependency cycle through variable {p}")
                inner_roots.append(p)
                continue
            on_stack.add(p)
            stack.append([p, inner_roots, topo_sort(g.parents(p), g), list(inner_roots), 0])
            continue
        for p in reversed(parents):
            if p not in roots and not swap(p, cur, g):
                return p
        stack.pop()
        on_stack.discard(cur)
        if stack:
            stack[-1][3].append(cur)
    return None


def chain_marginal(rid: int, g: SymState, memo: dict[int, Distr]) -> Distr | None:
    """Marginal of ``rid`` without changing the state, or None.

    Walks up from ``rid`` through variables with exactly one live parent
    to a root or a memoized variable, then back down: a root's marginal is
    its distribution and a child's is ``conjugacy.marginal`` of its
    parent's marginal and its own conditional.  Filtering leaves each
    state variable conditioned on its successor, so this is the
    Rauch-Tung-Striebel smoother order.  Every marginal computed goes into
    ``memo``.  Returns None when a variable on the walk has two or more
    parents or no rule applies.
    """
    path = []
    r = rid
    while r not in memo:
        d = g.distr(r)
        parents = [p for p in g.distr_fv(d) if p != r]
        if not parents:
            memo[r] = d
            break
        if len(parents) > 1:
            return None
        path.append((r, d, parents[0]))
        r = parents[0]
    for r, d, p in reversed(path):
        m = conjugacy.marginal(memo[p], d, p, g.alg)
        if m is None:
            return None
        memo[r] = m
    return memo[rid]


class SsiBackend:
    name = "ssi"

    def assume(self, ann: Annotation, dist: Distr, g: SymState,
               label: str = "", site: str = "") -> int:
        return g.fresh(ann, dist, None, label=label, site=site)

    def value(self, rid: int, g: SymState) -> VConst:
        c = g.realized_value(rid)
        if c is not None:
            return c
        if g.ann(rid) is Annotation.SYMBOLIC:
            g.cast(rid)
        self.hoist(rid, g)
        d, v = g.forced(rid)
        intervene(rid, d, g)
        return v

    def observe(self, rid: int, value: float | bool, g: SymState) -> float:
        self.hoist(rid, g)
        w, d = g.observed(rid, value)
        intervene(rid, d, g)
        return w

    def marginal_of(self, rid: int, g: SymState, memo: dict[int, Distr]) -> Distr:
        """Marginal of ``rid``, read off the state by ``chain_marginal``
        where it applies; otherwise ``rid`` is hoisted, which may force
        variables and so condition the state: ``memo`` is cleared then."""
        c = g.realized_value(rid)
        if c is not None:
            return DDelta(c)
        d = chain_marginal(rid, g, memo)
        if d is not None:
            return d
        self.hoist(rid, g)
        memo.clear()
        return g.distr(rid)

    def hoist(self, rid: int, g: SymState) -> None:
        """Make ``rid`` a root, forcing each parent whose swap fails.

        Each retry realizes the failing parent (or raises), and
        ``parents`` drops realized variables, so the retries end.
        """
        while (parent := _make_root(rid, g)) is not None:
            self.value(parent, g)
