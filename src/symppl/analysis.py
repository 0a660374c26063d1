"""Satisfiability analysis: abstract interpretation of annotation plans.

The analysis is the runtime's evaluation loop (``runtime.Evaluator._run``)
run over the domain of ``absdomain``.  ``AbsInterp`` supplies only that
domain: value constructors, operators, pattern binding, the join of both
branches of an ``if`` whose forced condition stays unknown, the fixpoint
of a fold over a list of unknown length, and the abstract backends.
``main`` is closed over an unknown ``data`` with ``runtime.subst``, as
``run_model`` closes it over the data, and one abstract particle runs it;
``resample`` is a no-op and there are no weights.  Forcing a variable
whose abstract annotation is SYMBOLIC aborts with failure, as does any
lattice escalation that touches a symbolic variable.  The verdict is
deterministic.  A program the analysis cannot interpret raises
``AnalysisError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import absdomain as ad
from . import conjugacy
from .absdomain import (
    ALGEBRA,
    AbsState,
    AbsVal,
    AConst,
    AEUnk,
    ALst,
    AMarg,
    AMargRoot,
    AInit,
    ARealized,
    ARV,
    ATopE,
    ATopN,
    ATup,
    AnalysisFail,
    ADSampledDelta,
    ADUnk,
    ATopD,
    TOP_E,
    UNK,
    aadd,
    acmp,
    adiv,
    aite,
    amul,
    asub,
    abs_weak_eq,
    contains_top,
    fv,
    fv_distr,
    rename_join,
    rv_free,
)
from .lang import Annotation, Expr, Pattern, Program, PTuple, PUnit, PVar, PWild
from .runtime import Evaluator, subst as esubst
from .sym import DDelta, Distr, EvalError

FOLD_ITER_LIMIT = 1000


class AnalysisError(EvalError):
    """A program the analysis cannot interpret (a limit, not a verdict)."""


@dataclass(frozen=True, slots=True)
class Verdict:
    satisfiable: bool
    witnesses: tuple[tuple[str, str], ...] = ()
    elapsed_ms: float = 0.0


def set_top(g: AbsState, rid: int) -> None:
    """Over-approximate a variable and its ancestry to the top elements.

    Fails if any touched variable carries a symbolic annotation.
    """
    worklist = [rid]
    seen: set[int] = set()
    while worklist:
        r = worklist.pop()
        if r in seen or r not in g.entries:
            continue
        seen.add(r)
        entry = g.entries[r]
        if entry.ann is Annotation.SYMBOLIC:
            raise AnalysisFail([g.witness(r)])
        worklist.extend(p for p in fv_distr(entry.distr) if p != r)
        worklist.extend(p for p in ad.node_fv(entry.node) if p != r)
        node = entry.node
        if node is not None:
            for c in ad._node_children(node):
                ce = g.entries.get(c)
                if ce is not None and isinstance(ce.node, AMarg):
                    worklist.append(c)
            g.set_node(r, ATopN(ad._node_children(node)))
        g.set_distr(r, ATopD())


class AbsSwapFailed(Exception):
    def __init__(self, parent: int, child: int):
        self.parent = parent
        self.child = child


class AbsSsi:
    name = "ssi"

    def assume(self, ann: Annotation, dist: Distr, g: AbsState, site: str, label: str) -> int:
        return g.fresh(ann, ad.widen_distr(g.eval_distr(dist)), None, site, label)

    def value(self, rid: int, g: AbsState) -> AbsVal:
        c = g.realized_value(rid)
        if c is not None:
            return c
        if g.ann(rid) is Annotation.SYMBOLIC:
            raise AnalysisFail([g.witness(rid)])
        self.hoist(rid, g)
        g.set_distr(rid, ADSampledDelta(UNK))
        return UNK

    def observe(self, rid: int, value: AbsVal, g: AbsState) -> None:
        self.hoist(rid, g)
        g.set_distr(rid, DDelta(value if rv_free(value) else UNK))

    def swap(self, x1: int, x2: int, g: AbsState) -> bool:
        prior = g.eval_distr(g.distr(x1))
        cond = g.eval_distr(g.distr(x2))
        if isinstance(prior, (ADUnk, ATopD)):
            set_top(g, x1)
            return False
        marg = conjugacy.marginal(prior, cond, x1, ALGEBRA)
        if marg is None:
            return False
        post = conjugacy.posterior(prior, cond, x1, ARV(x2), ALGEBRA)
        if post is None:
            return False
        g.set_distr(x2, marg)
        g.set_distr(x1, post)
        return True

    def hoist(self, rid: int, g: AbsState) -> None:
        for _ in range(10000):
            try:
                self._hoist_helper(rid, [], g, frozenset())
                return
            except AbsSwapFailed as fail:
                self.value(fail.parent, g)
                g.refresh(fail.child)
        raise AnalysisFail([g.witness(rid)])  # hoist did not converge

    def _hoist_helper(self, cur: int, roots: list[int], g: AbsState,
                      visiting: frozenset[int]) -> None:
        if cur in visiting:
            # dependency cycle introduced by a merging join; over-approximate
            set_top(g, cur)
            return
        parents = _abs_topo(g.parents(cur), g)
        inner = list(roots)
        for p in parents:
            if p not in roots:
                self._hoist_helper(p, inner, g, visiting | {cur})
                inner.append(p)
        for p in reversed(parents):
            if p not in roots:
                if not self.swap(p, cur, g):
                    raise AbsSwapFailed(p, cur)


def _abs_topo(rids: list[int], g: AbsState) -> list[int]:
    anc = {r: ad.abs_reachable(g.parents(r), g) for r in rids}
    remaining = sorted(rids)
    out: list[int] = []
    while remaining:
        for r in remaining:
            if not any(q in anc[r] for q in remaining if q != r):
                out.append(r)
                remaining.remove(r)
                break
        else:  # cycle introduced by joins; fall back to id order
            out.extend(remaining)
            break
    return out


class AbsDs:
    name = "ds"

    def assume(self, ann: Annotation, dist: Distr, g: AbsState, site: str, label: str) -> int:
        dist, keeper = self._conjugate_dist(dist, g)
        rid = g.fresh(ann, ad.widen_distr(dist), None, site, label)
        if keeper is None:
            g.set_node(rid, AMargRoot(frozenset()))
        else:
            g.set_node(rid, AInit(keeper, frozenset()))
            ke = g.entries[keeper]
            if ke.node is not None and not isinstance(ke.node, ARealized):
                g.set_node(keeper, _node_with_children(ke.node, ad._node_children(ke.node) | {rid}))
        return rid

    def _conjugate_dist(self, dist: Distr, g: AbsState) -> tuple[Distr, int | None]:
        dist = g.eval_distr(dist)
        parents = sorted(p for p in fv_distr(dist) if p in g.entries and g.realized_value(p) is None)
        if not parents:
            return dist, None
        keeper = None
        for p in parents:
            others = frozenset(q for q in parents if q != p)
            prior = g.eval_distr(g.distr(p))
            if isinstance(prior, (ADUnk, ATopD)):
                continue
            if conjugacy.match_case(prior, dist, p, allow=others, alg=ALGEBRA) is not None:
                keeper = p
                break
        for p in parents:
            if p != keeper:
                self.value(p, g)
        dist = g.eval_distr(dist)
        if keeper is not None:
            prior = g.eval_distr(g.distr(keeper))
            if conjugacy.match_case(prior, dist, keeper, alg=ALGEBRA) is None:
                self.value(keeper, g)
                dist = g.eval_distr(dist)
                keeper = None
        return dist, keeper

    def value(self, rid: int, g: AbsState) -> AbsVal:
        c = g.realized_value(rid)
        if c is not None:
            return c
        if g.ann(rid) is Annotation.SYMBOLIC:
            raise AnalysisFail([g.witness(rid)])
        self.graft(rid, g)
        self.realize(rid, ADSampledDelta(UNK), g)
        return UNK

    def observe(self, rid: int, value: AbsVal, g: AbsState) -> None:
        self.graft(rid, g)
        self.realize(rid, DDelta(value if rv_free(value) else UNK), g)

    def graft(self, rid: int, g: AbsState) -> None:
        node = g.node(rid)
        match node:
            case AMargRoot(_) | AMarg(_, _, _):
                marg_children = [c for c in node.children
                                 if c in g.entries and isinstance(g.node(c), AMarg)]
                if len(marg_children) > 1:
                    for c in marg_children:
                        set_top(g, c)
                elif marg_children:
                    self.prune(marg_children[0], g)
            case AInit(parent, _):
                self.graft(parent, g)
                self.marginalize(rid, g)
            case ATopN(_):
                set_top(g, rid)
            case ARealized():
                raise AnalysisFail([g.witness(rid)])
            case None:
                pass

    def prune(self, rid: int, g: AbsState) -> None:
        node = g.node(rid)
        if isinstance(node, AMarg):
            marg_children = [c for c in node.children
                             if c in g.entries and isinstance(g.node(c), AMarg)]
            if len(marg_children) > 1:
                for c in marg_children:
                    set_top(g, c)
            elif marg_children:
                self.prune(marg_children[0], g)
        self.value(rid, g)

    def marginalize(self, rid: int, g: AbsState) -> None:
        node = g.node(rid)
        if not isinstance(node, AInit):
            return
        prior = g.eval_distr(g.distr(node.parent))
        cond = g.eval_distr(g.distr(rid))
        marg = conjugacy.marginal(prior, cond, node.parent, ALGEBRA)
        if marg is None:
            set_top(g, rid)
            set_top(g, node.parent)
            return
        g.set_distr(rid, g.eval_distr(marg))
        g.set_node(rid, AMarg(node.parent, cond, node.children))

    def realize(self, rid: int, d: Distr, g: AbsState) -> None:
        node = g.node(rid)
        g.set_distr(rid, d)
        g.set_node(rid, ARealized())
        if isinstance(node, AMarg):
            parent = node.parent
            if parent in g.entries:
                prior = g.eval_distr(g.distr(parent))
                value = g.realized_value(rid) or UNK
                if isinstance(prior, (ADUnk, ATopD)):
                    set_top(g, parent)
                else:
                    post = conjugacy.posterior(prior, g.eval_distr(node.prior), parent, value, ALGEBRA)
                    if post is None:
                        set_top(g, parent)
                    else:
                        g.set_distr(parent, g.eval_distr(post))
                pe = g.entries[parent]
                if pe.node is not None and not isinstance(pe.node, ARealized):
                    g.set_node(parent, _node_with_children(pe.node, ad._node_children(pe.node) - {rid}))
        if node is not None and not isinstance(node, ARealized):
            for c in ad._node_children(node):
                ce = g.entries.get(c)
                if ce is not None and isinstance(ce.node, AInit):
                    g.refresh(c)
                    g.set_node(c, AMargRoot(ce.node.children))


def _node_with_children(node, children: frozenset[int]):
    match node:
        case AMargRoot(_):
            return AMargRoot(children)
        case AMarg(p, d, _):
            return AMarg(p, d, children)
        case AInit(p, _):
            return AInit(p, children)
        case ATopN(_):
            return ATopN(children)
        case _:
            return node


# --- abstract interpreter ---


def _abs_match(pat: Pattern, v: AbsVal) -> dict[str, AbsVal]:
    """Bind a pattern against an abstract value, projecting unknowns."""
    out: dict[str, AbsVal] = {}

    def go(p: Pattern, x: AbsVal) -> None:
        match p:
            case PVar(name):
                out[name] = x
            case PWild() | PUnit():
                pass
            case PTuple(items):
                match x:
                    case ATup(vals) if len(vals) == len(items):
                        for q, y in zip(items, vals):
                            go(q, y)
                    case AEUnk(s):
                        for q in items:
                            go(q, AEUnk(s))
                    case ATopE():
                        for q in items:
                            go(q, TOP_E)
                    case _:
                        raise AnalysisError(f"pattern arity mismatch: {p} vs {x}")
    go(pat, v)
    return out


@dataclass(slots=True)
class AbsParticle:
    """The analysis's one particle: a state, with no weight and no pause."""

    state: AbsState


class AbsInterp(Evaluator):
    """The runtime's evaluation loop over the abstract domain."""

    Const = AConst
    Tup = ATup
    Lst = ALst
    RV = ARV
    ite = staticmethod(aite)
    fv = staticmethod(fv)
    bind = staticmethod(_abs_match)

    def _force(self, v: AbsVal, p: AbsParticle) -> AbsVal:
        """``value_star``: force each variable, then fold; ``UNK`` if still unknown."""
        g = p.state
        e = g.eval_value(v)
        if isinstance(e, AConst):
            return e
        for rid in sorted(fv(e)):
            if rid in g.entries:
                self.backend.value(rid, g)
        e = g.eval_value(e)
        return e if isinstance(e, AConst) else UNK

    def _join_branches(self, te: Expr, oe: Expr, env: dict, p: AbsParticle) -> AbsVal:
        """Both branches from copies of the state, joined."""
        p1 = AbsParticle(p.state.copy())
        tv, _ = self._run(te, env, p1)
        p2 = AbsParticle(p.state.copy())
        ov, _ = self._run(oe, env, p2)
        joined, gj = rename_join(tv, ov, p1.state, p2.state, in_fold=False)
        p.state.entries = gj.entries
        return joined

    def _assume(self, ann: Annotation, d: Distr, p: AbsParticle, label: str,
                site: int | None) -> int:
        return self.backend.assume(ann, d, p.state, site="obs" if site is None else f"rv:{site}",
                                   label=label)

    def _value(self, rid: int, p: AbsParticle) -> AbsVal:
        return self.backend.value(rid, p.state)

    def _observe(self, rid: int, c: AbsVal, p: AbsParticle) -> None:
        self.backend.observe(rid, c, p.state)

    def _resample(self, site: int, p: AbsParticle):
        return AConst(None), False

    def _map_items(self, lst: AbsVal, p: AbsParticle) -> tuple[AbsVal, ...]:
        lst = p.state.eval_value(lst)
        if not isinstance(lst, ALst) or lst.tail is not None:
            raise AnalysisError("map over an unknown list is unsupported")
        return lst.items

    def _fold(self, fname: str, lst: AbsVal, init: AbsVal, p: AbsParticle):
        if isinstance(lst, ALst) and lst.tail is None:
            return self._fold_from(fname, lst.items, 0, init, p)
        return self.fold_fixpoint(fname, lst, init, p), False

    def _eval_op(self, op: str, args: list[AbsVal], p: AbsParticle) -> AbsVal:
        a = [p.state.eval_value(x) for x in args]
        match op:
            case "+":
                return aadd(a[0], a[1])
            case "-":
                return asub(a[0], a[1])
            case "*":
                return amul(a[0], a[1])
            case "/":
                return adiv(a[0], a[1])
            case "=" | "!=" | "<" | "<=":
                return acmp(op, a[0], a[1])
            case "not":
                return aite(a[0], AConst(False), AConst(True))
            case "cons":
                hd, tl = a[0], a[1]
                match tl:
                    case ALst(items, tail):
                        return ALst((hd,) + items, tail)
                    case AEUnk(s):
                        return ALst((hd,), s)
                    case ATopE():
                        return TOP_E
                    case _:
                        return AEUnk(fv(hd) | fv(tl))
            case "hd":
                match a[0]:
                    case ALst(items, tail):
                        if items:
                            return items[0]
                        return AEUnk(tail or frozenset())
                    case AEUnk(s):
                        return AEUnk(s)
                    case _:
                        return TOP_E
            case "tl":
                match a[0]:
                    case ALst(items, tail):
                        if items:
                            return ALst(items[1:], tail)
                        return a[0]
                    case AEUnk(s):
                        return AEUnk(s)
                    case _:
                        return TOP_E
            case "rev":
                match a[0]:
                    case ALst(items, None):
                        return ALst(tuple(reversed(items)), None)
                    case _:
                        return AEUnk(fv(a[0])) if not contains_top(a[0]) else TOP_E
            case "len":
                match a[0]:
                    case ALst(items, None):
                        return AConst(float(len(items)))
                    case _:
                        return UNK
            case "range":
                lo, hi = a[0], a[1]
                if isinstance(lo, AConst) and isinstance(hi, AConst):
                    return ALst(tuple(AConst(float(i)) for i in range(int(lo.v), int(hi.v))), None)
                return AEUnk(frozenset())
        raise EvalError(f"unknown operator {op}")

    def fold_fixpoint(self, fname: str, lst: AbsVal, acc: AbsVal, p: AbsParticle) -> AbsVal:
        """A fold over a list of unknown length: the step joined into the
        accumulator until the accumulator and the state stop changing."""
        g = p.state
        elem: AbsVal = TOP_E if contains_top(lst) else AEUnk(fv(lst))
        f = self.program.function(fname)
        for _ in range(FOLD_ITER_LIMIT):
            it = AbsParticle(g.copy())
            vf, _ = self._run(f.body, _abs_match(f.param, ATup((elem, acc))), it)
            vj, gj = rename_join(acc, vf, g, it.state, in_fold=True)
            if vj == acc and abs_weak_eq(g, gj, ATup((lst, vj))):
                return acc
            acc = vj
            g.entries = gj.entries
        raise AnalysisError("fold fixpoint did not converge")


def analyze(program: Program, method: str) -> Verdict:
    """Satisfiability verdict for one annotated program under one backend."""
    backend = AbsSsi() if method == "ssi" else AbsDs()
    started = time.perf_counter()
    interp = AbsInterp(program, backend)
    main = esubst(program.main, {"data": AEUnk(frozenset())})
    try:
        interp._run(main, {}, AbsParticle(AbsState()))
    except AnalysisFail as fail:
        elapsed = (time.perf_counter() - started) * 1000.0
        return Verdict(False, tuple(fail.witnesses), elapsed)
    elapsed = (time.perf_counter() - started) * 1000.0
    return Verdict(True, (), elapsed)
