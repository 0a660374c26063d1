"""Semi-symbolic backend: swap-based conjugacy with hoisting.

``hoist`` makes a variable a root by hoisting its parents in topological
order and then reversing each parent edge with ``swap``.  A failed swap
forces the offending parent to a sample and retries; forcing a
symbolic-annotated variable is a dynamic encoding cast.

Hoisting runs on an explicit stack, and ordering a single parent needs no
ancestor search, so hoisting through a chain of length T costs O(T) time
and no Python stack.
"""

from __future__ import annotations

import numpy as np

from . import conjugacy
from .interface import CastLog
from .lang import Annotation
from .sym import (
    DDelta,
    DSampledDelta,
    Distr,
    EvalError,
    SymState,
    VConst,
    VRV,
    draw,
    reachable,
    score,
)


class SwapFailed(Exception):
    def __init__(self, parent: int, child: int):
        super().__init__(f"no conjugacy between {parent} and {child}")
        self.parent = parent
        self.child = child


def topo_sort(rids: list[int], g: SymState) -> list[int]:
    """Ancestors-first order over a set of variables, ids breaking ties.

    Each time, takes the smallest remaining id with no ancestor among the
    remaining ids.  Each ancestor search stops once it has found every
    other member of ``rids``.
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
            raise EvalError("cycle among parents")
    return out


def swap(x1: int, x2: int, g: SymState) -> bool:
    """Reverse the dependency of ``x2`` on ``x1``, preserving the joint.

    On success ``x2`` holds the marginal and ``x1`` the conditional given
    ``x2``; returns False (state untouched) when no conjugacy applies.
    """
    prior = g.eval_distr(g.distr(x1))
    cond = g.eval_distr(g.distr(x2))
    marg = conjugacy.marginal(prior, cond, x1)
    if marg is None:
        return False
    post = conjugacy.posterior(prior, cond, x1, VRV(x2))
    if post is None:
        return False
    g.set_distr(x2, marg)
    g.set_distr(x1, post)
    return True


def intervene(rid: int, d: Distr, g: SymState) -> None:
    """Replace a root's distribution with a (sampled) delta."""
    if g.parents(rid):
        raise EvalError(f"intervene on non-root variable {rid}")
    g.set_distr(rid, d)


class SsiBackend:
    name = "ssi"

    def assume(self, ann: Annotation, dist: Distr, g: SymState,
               rng: np.random.Generator, casts: CastLog, label: str = "") -> int:
        return g.fresh(ann, g.eval_distr(dist), node=None, label=label)

    def value(self, rid: int, g: SymState,
              rng: np.random.Generator, casts: CastLog) -> VConst:
        c = g.realized_value(rid)
        if c is not None:
            return c
        if g.ann(rid) is Annotation.SYMBOLIC:
            casts.record(rid, g.label(rid))
        self.hoist(rid, g, rng, casts)
        v = draw(g.eval_distr(g.distr(rid)), rng)
        intervene(rid, DSampledDelta(v), g)
        return VConst(v)

    def observe(self, rid: int, value: float | bool, g: SymState,
                rng: np.random.Generator, casts: CastLog) -> float:
        self.hoist(rid, g, rng, casts)
        w = score(g.eval_distr(g.distr(rid)), value)
        intervene(rid, DDelta(VConst(value)), g)
        return w

    def marginal_of(self, rid: int, g: SymState,
                    rng: np.random.Generator, casts: CastLog) -> Distr:
        c = g.realized_value(rid)
        if c is not None:
            return DDelta(c)
        self.hoist(rid, g, rng, casts)
        return g.eval_distr(g.distr(rid))

    def hoist(self, rid: int, g: SymState,
              rng: np.random.Generator, casts: CastLog) -> None:
        while True:
            try:
                self._hoist_helper(rid, g)
                return
            except SwapFailed as fail:
                self.value(fail.parent, g, rng, casts)
                g.refresh(fail.child)

    def _hoist_helper(self, rid: int, g: SymState) -> None:
        """Make ``rid`` a root: hoist its parents, ancestors first, then
        reverse each parent edge with ``swap``.

        A frame is ``[cur, roots, parents, inner_roots, next]``: ``roots``
        are the variables the enclosing frames have already made roots, and
        ``inner_roots`` adds those this frame has hoisted so far.
        """
        stack = [[rid, [], topo_sort(g.parents(rid), g), [], 0]]
        while stack:
            frame = stack[-1]
            cur, roots, parents, inner_roots, i = frame
            if i < len(parents):
                frame[4] = i + 1
                p = parents[i]
                if p not in roots:
                    stack.append([p, inner_roots, topo_sort(g.parents(p), g),
                                  list(inner_roots), 0])
                continue
            for p in reversed(parents):
                if p not in roots:
                    if not swap(p, cur, g):
                        raise SwapFailed(p, cur)
            stack.pop()
            if stack:
                stack[-1][3].append(cur)
