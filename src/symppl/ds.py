"""Delayed-sampling backend: a forest of typed nodes.

Each variable is Initialized (conditional on one conjugate parent),
Marginalized (marginal available; optional original parent retained so a
later realize can condition it), or Realized.  ``graft`` turns a variable
into a terminal marginalized node, pruning marginalized subtrees by
sampling (Murray et al., AISTATS 2018).

This is the only implementation of graft, prune, marginalize, realize and
the choice of a conjugate parent.  ``DsBackend`` runs it over a particle's
``SymState``; the analysis binds the same functions on ``analysis.AbsDs``
and runs them over an ``absdomain.AbsState``, whose node lattice adds only
``ATopN``.  The state supplies the domain: the rules' algebra (``g.alg``),
free variables, casts, forced samples, observations, and ``give_up``
where an invariant is broken (the runtime raises, the analysis
over-approximates).  Graft and prune walk the forest with loops, so a
chain of any length costs no Python stack.
"""

from __future__ import annotations

from typing import ClassVar

from . import conjugacy
from .lang import Annotation, immutable
from .sym import DDelta, Distr, EvalError, SymState, VConst


@immutable
class MargRootN:
    children: frozenset[int]

    def with_children(self, children: frozenset[int]) -> "MargRootN":
        return MargRootN(children)


@immutable
class MargN:
    parent: int
    prior: Distr  # conditional distribution recorded at marginalize time
    children: frozenset[int]

    def with_children(self, children: frozenset[int]) -> "MargN":
        return MargN(self.parent, self.prior, children)


@immutable
class InitN:
    parent: int
    children: frozenset[int]

    def with_children(self, children: frozenset[int]) -> "InitN":
        return InitN(self.parent, children)


@immutable
class RealizedN:
    children: ClassVar[frozenset[int]] = frozenset()

    def with_children(self, children: frozenset[int]) -> "RealizedN":
        return self


DsNode = MargRootN | MargN | InitN | RealizedN


def _add_child(g: SymState, parent: int, child: int) -> None:
    node = g.node(parent)
    g.set_node(parent, node.with_children(node.children | {child}))


def marginalized_child(g: SymState, node: DsNode) -> int | None:
    """The node's one marginalized child; with several, gives up on them."""
    marg = [c for c in node.children if c in g.entries and isinstance(g.node(c), MargN)]
    if len(marg) > 1:
        g.give_up(marg, "multiple marginalized children (forest invariant broken)")
        return None
    return marg[0] if marg else None


class DsBackend:
    name = "ds"

    def assume(self, ann: Annotation, dist: Distr, g: SymState,
               label: str = "", site: str = "") -> int:
        dist, parent = self._conjugate_dist(dist, g)
        node = MargRootN(frozenset()) if parent is None else InitN(parent, frozenset())
        rid = g.fresh(ann, dist, node, label=label, site=site)
        if parent is not None:
            _add_child(g, parent, rid)
        return rid

    def _conjugate_dist(self, dist: Distr, g: SymState) -> tuple[Distr, int | None]:
        """Force parents until at most one conjugate parent remains."""
        dist = g.eval_distr(dist)
        parents = sorted(p for p in g.distr_fv(dist) if p in g.entries)
        if not parents:
            return dist, None
        keeper = None
        for p in parents:
            others = frozenset(q for q in parents if q != p)
            if conjugacy.rule(g.distr(p), dist, p, others, g.alg)[0] is not None:
                keeper = p
                break
        if keeper is not None and len(parents) == 1:
            return dist, keeper  # nothing forced: matching again gives the same case
        for p in parents:
            if p != keeper:
                self.value(p, g)
        dist = g.eval_distr(dist)
        if keeper is not None:
            if conjugacy.rule(g.distr(keeper), dist, keeper, alg=g.alg)[0] is None:
                self.value(keeper, g)
                dist = g.eval_distr(dist)
                keeper = None
        return dist, keeper

    def value(self, rid: int, g: SymState) -> VConst:
        c = g.realized_value(rid)
        if c is not None:
            return c
        if g.ann(rid) is Annotation.SYMBOLIC:
            g.cast(rid)
        self.graft(rid, g)
        d, v = g.forced(rid)
        self.realize(rid, d, g)
        return v

    def observe(self, rid: int, value: float | bool, g: SymState) -> float:
        self.graft(rid, g)
        w, d = g.observed(rid, value)
        self.realize(rid, d, g)
        return w

    def marginal_of(self, rid: int, g: SymState, memo: dict[int, Distr]) -> Distr:
        """Marginal of ``rid`` by grafting; ``memo`` is not used."""
        c = g.realized_value(rid)
        if c is not None:
            return DDelta(c)
        if isinstance(g.node(rid), InitN):
            self.graft(rid, g)
        return g.distr(rid)

    def graft(self, rid: int, g: SymState) -> None:
        """Make ``rid`` a terminal marginalized node: climb its initialized
        ancestors, prune the marginalized child of the first marginalized
        one, then marginalize back down."""
        chain = []
        node = g.node(rid)
        while isinstance(node, InitN):
            chain.append(rid)
            rid = node.parent
            node = g.node(rid)
        if isinstance(node, (MargRootN, MargN)):
            mc = marginalized_child(g, node)
            if mc is not None:
                self.prune(mc, g)
        else:
            g.give_up([rid], f"graft on realized variable {rid}")
        for c in reversed(chain):
            self.marginalize(c, g)

    def prune(self, rid: int, g: SymState) -> None:
        """Sample the marginalized path below and including ``rid``,
        deepest first."""
        path = []
        while rid is not None:
            node = g.node(rid)
            if not isinstance(node, MargN):
                raise EvalError(f"prune on non-marginalized variable {rid}")
            path.append(rid)
            rid = marginalized_child(g, node)
        for r in reversed(path):
            self.value(r, g)

    def marginalize(self, rid: int, g: SymState) -> None:
        node = g.node(rid)
        if not isinstance(node, InitN):
            raise EvalError(f"marginalize on non-initialized variable {rid}")
        prior = g.distr(node.parent)
        cond = g.distr(rid)
        marg = conjugacy.marginal(prior, cond, node.parent, g.alg)
        if marg is None:
            g.give_up([rid, node.parent], f"conjugacy lost marginalizing {rid}")
            return
        g.set_distr(rid, marg, MargN(node.parent, cond, node.children))

    def realize(self, rid: int, d: Distr, g: SymState) -> None:
        node = g.node(rid)
        if isinstance(node, (InitN, RealizedN)):
            raise EvalError(f"realize on non-terminal variable {rid}")
        if marginalized_child(g, node) is not None:
            raise EvalError(f"realize on variable {rid} with marginalized child")
        g.set_distr(rid, d, RealizedN())
        if isinstance(node, MargN):
            parent = node.parent
            post = conjugacy.posterior(g.distr(parent), g.eval_distr(node.prior), parent,
                                       g.realized_value(rid), g.alg)
            if post is None:
                g.give_up([parent], f"conjugacy lost realizing {rid}")
            pnode = g.node(parent)
            pnode = pnode.with_children(pnode.children - {rid})
            if post is None:
                g.set_node(parent, pnode)
            else:
                g.set_distr(parent, post, pnode)  # one write of the parent's entry
        for c in node.children:
            cnode = g.node(c)
            if isinstance(cnode, InitN):
                g.set_node(c, MargRootN(cnode.children))
