"""Delayed-sampling backend: a forest of typed nodes.

Each variable is Initialized (conditional on one conjugate parent),
Marginalized (marginal available; optional original parent retained so a
later realize can condition it), or Realized.  ``graft`` turns a variable
into a terminal marginalized node, pruning marginalized subtrees by
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    distr_rvs,
    draw,
    score,
)


@dataclass(frozen=True, slots=True)
class MargRootN:
    children: frozenset[int]


@dataclass(frozen=True, slots=True)
class MargN:
    parent: int
    prior: Distr  # conditional distribution recorded at marginalize time
    children: frozenset[int]


@dataclass(frozen=True, slots=True)
class InitN:
    parent: int
    children: frozenset[int]


@dataclass(frozen=True, slots=True)
class RealizedN:
    pass


DsNode = MargRootN | MargN | InitN | RealizedN


def _children(node: DsNode) -> frozenset[int]:
    return node.children if not isinstance(node, RealizedN) else frozenset()


def _with_children(node: DsNode, children: frozenset[int]) -> DsNode:
    match node:
        case MargRootN(_):
            return MargRootN(children)
        case MargN(p, d, _):
            return MargN(p, d, children)
        case InitN(p, _):
            return InitN(p, children)
        case RealizedN():
            return node
    raise TypeError(node)


def _add_child(g: SymState, parent: int, child: int) -> None:
    node = g.node(parent)
    g.set_node(parent, _with_children(node, _children(node) | {child}))


def _drop_child(g: SymState, parent: int, child: int) -> None:
    node = g.node(parent)
    g.set_node(parent, _with_children(node, _children(node) - {child}))


def marginalized_child(g: SymState, node: DsNode) -> int | None:
    marg = [c for c in _children(node) if isinstance(g.node(c), MargN)]
    if len(marg) > 1:
        raise EvalError("multiple marginalized children (forest invariant broken)")
    return marg[0] if marg else None


def validate_forest(g: SymState) -> None:
    """Check the one-parent and single-marginalized-path invariants."""
    for rid, entry in g.entries.items():
        node = entry.node
        if node is None:
            continue
        marginalized_child(g, node)
        match node:
            case MargN(parent, _, _) | InitN(parent, _):
                pnode = g.node(parent)
                if isinstance(pnode, RealizedN):
                    raise EvalError(f"{rid} linked under realized parent {parent}")
                if rid not in _children(pnode):
                    raise EvalError(f"{rid} missing from parent {parent} child set")
            case _:
                pass


class DsBackend:
    name = "ds"

    def assume(self, ann: Annotation, dist: Distr, g: SymState,
               rng: np.random.Generator, casts: CastLog, label: str = "") -> int:
        dist, parent = self._conjugate_dist(dist, g, rng, casts)
        rid = g.fresh(ann, dist, node=None, label=label)
        if parent is None:
            g.set_node(rid, MargRootN(frozenset()))
        else:
            g.set_node(rid, InitN(parent, frozenset()))
            _add_child(g, parent, rid)
        return rid

    def _conjugate_dist(self, dist: Distr, g: SymState,
                        rng: np.random.Generator, casts: CastLog) -> tuple[Distr, int | None]:
        """Force parents until at most one conjugate parent remains."""
        dist = g.eval_distr(dist)
        parents = sorted(distr_rvs(dist))
        if not parents:
            return dist, None
        keeper = None
        for p in parents:
            others = frozenset(q for q in parents if q != p)
            prior = g.eval_distr(g.distr(p))
            if conjugacy.match_case(prior, dist, p, allow=others) is not None:
                keeper = p
                break
        for p in parents:
            if p != keeper:
                self.value(p, g, rng, casts)
        dist = g.eval_distr(dist)
        if keeper is not None:
            prior = g.eval_distr(g.distr(keeper))
            if conjugacy.match_case(prior, dist, keeper) is None:
                self.value(keeper, g, rng, casts)
                dist = g.eval_distr(dist)
                keeper = None
        return dist, keeper

    def value(self, rid: int, g: SymState,
              rng: np.random.Generator, casts: CastLog) -> VConst:
        c = g.realized_value(rid)
        if c is not None:
            return c
        if g.ann(rid) is Annotation.SYMBOLIC:
            casts.record(rid, g.label(rid))
        self.graft(rid, g, rng, casts)
        v = draw(g.eval_distr(g.distr(rid)), rng)
        self.realize(rid, DSampledDelta(v), g)
        return VConst(v)

    def observe(self, rid: int, value: float | bool, g: SymState,
                rng: np.random.Generator, casts: CastLog) -> float:
        self.graft(rid, g, rng, casts)
        w = score(g.eval_distr(g.distr(rid)), value)
        self.realize(rid, DDelta(VConst(value)), g)
        return w

    def marginal_of(self, rid: int, g: SymState,
                    rng: np.random.Generator, casts: CastLog) -> Distr:
        c = g.realized_value(rid)
        if c is not None:
            return DDelta(c)
        if isinstance(g.node(rid), InitN):
            self.graft(rid, g, rng, casts)
        return g.eval_distr(g.distr(rid))

    def graft(self, rid: int, g: SymState,
              rng: np.random.Generator, casts: CastLog) -> None:
        node = g.node(rid)
        match node:
            case MargRootN(_) | MargN(_, _, _):
                mc = marginalized_child(g, node)
                if mc is not None:
                    self.prune(mc, g, rng, casts)
            case InitN(parent, _):
                self.graft(parent, g, rng, casts)
                self.marginalize(rid, g)
            case _:
                raise EvalError(f"graft on realized variable {rid}")

    def prune(self, rid: int, g: SymState,
              rng: np.random.Generator, casts: CastLog) -> None:
        node = g.node(rid)
        if not isinstance(node, MargN):
            raise EvalError(f"prune on non-marginalized variable {rid}")
        mc = marginalized_child(g, node)
        if mc is not None:
            self.prune(mc, g, rng, casts)
        self.value(rid, g, rng, casts)

    def marginalize(self, rid: int, g: SymState) -> None:
        node = g.node(rid)
        if not isinstance(node, InitN):
            raise EvalError(f"marginalize on non-initialized variable {rid}")
        prior = g.eval_distr(g.distr(node.parent))
        cond = g.eval_distr(g.distr(rid))
        marg = conjugacy.marginal(prior, cond, node.parent)
        if marg is None:
            raise EvalError(f"conjugacy lost marginalizing {rid}")
        g.set_distr(rid, g.eval_distr(marg))
        g.set_node(rid, MargN(node.parent, cond, node.children))

    def realize(self, rid: int, d: Distr, g: SymState) -> None:
        node = g.node(rid)
        if isinstance(node, (InitN, RealizedN)):
            raise EvalError(f"realize on non-terminal variable {rid}")
        if marginalized_child(g, node) is not None:
            raise EvalError(f"realize on variable {rid} with marginalized child")
        g.set_distr(rid, d)
        g.set_node(rid, RealizedN())
        if isinstance(node, MargN):
            parent = node.parent
            prior = g.eval_distr(g.distr(parent))
            post = conjugacy.posterior(prior, g.eval_distr(node.prior), parent,
                                       g.realized_value(rid))
            if post is None:
                raise EvalError(f"conjugacy lost realizing {rid}")
            g.set_distr(parent, g.eval_distr(post))
            _drop_child(g, parent, rid)
        for c in _children(node):
            cnode = g.node(c)
            if isinstance(cnode, InitN):
                g.refresh(c)
                g.set_node(c, MargRootN(cnode.children))
