"""Satisfiability analysis: abstract interpretation of annotation plans.

One abstract particle interprets the program; ``resample`` is a no-op and
there are no weights.  Forcing a variable whose abstract annotation is
SYMBOLIC aborts with failure, as does any lattice escalation that touches a
symbolic variable.  The verdict is deterministic.
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
from .checker import impure_functions, is_pure
from .lang import (
    Annotation,
    ECall,
    EConst,
    EFold,
    EIf,
    EList,
    ELet,
    ELetRV,
    EObserve,
    EOp,
    EResample,
    ETuple,
    EVal,
    EVar,
    Expr,
    Program,
)
from .lang import Pattern, PTuple, PUnit, PVar, PWild
from .runtime import subst as esubst
from .sym import DDelta, Distr, make_dist

FOLD_ITER_LIMIT = 1000


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


def _abs_const(c: float | bool | None) -> AbsVal:
    return AConst(c)


class AbsInterp:
    def __init__(self, program: Program, backend: AbsSsi | AbsDs):
        self.program = program
        self.backend = backend
        self.impure = impure_functions(program)
        self._fresh = 0

    def _fresh_name(self) -> str:
        self._fresh += 1
        return f"__a{self._fresh}"

    def value_star(self, v: AbsVal, g: AbsState) -> AbsVal:
        e = g.eval_value(v)
        if isinstance(e, AConst):
            return e
        for rid in sorted(fv(e)):
            if rid in g.entries:
                self.backend.value(rid, g)
        e = g.eval_value(e)
        return e if isinstance(e, AConst) else UNK

    def _eval_op(self, op: str, args: list[AbsVal], g: AbsState) -> AbsVal:
        a = [g.eval_value(x) for x in args]
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
        raise ValueError(op)

    def run(self, e: Expr, g: AbsState) -> AbsVal:
        while True:
            match e:
                case EVal(v):
                    return v
                case EConst(c):
                    return _abs_const(c)
                case EVar("data"):
                    return AEUnk(frozenset())
                case EVar(name):
                    raise ValueError(f"unbound variable {name}")
                case ETuple(items):
                    return ATup(tuple(self.run(x, g) for x in items))
                case EList(items):
                    return ALst(tuple(self.run(x, g) for x in items), None)
                case EOp("map", (EVar(fname), lst_e)):
                    lst = g.eval_value(self.run(lst_e, g))
                    if not isinstance(lst, ALst) or lst.tail is not None:
                        raise ValueError("map over an unknown list is unsupported")
                    f = self.program.function(fname)
                    out = []
                    for el in lst.items:
                        out.append(self.run(esubst(f.body, _abs_match(f.param, el)), g))
                    return ALst(tuple(out), None)
                case EOp(op, args):
                    vals = [self.run(x, g) for x in args]
                    return self._eval_op(op, vals, g)
                case ECall(fname, arg):
                    v = self.run(arg, g)
                    f = self.program.function(fname)
                    e = esubst(f.body, _abs_match(f.param, v))
                case EIf(ce, te, oe):
                    cv = g.eval_value(self.run(ce, g))
                    if isinstance(cv, AConst):
                        e = te if cv.v else oe
                        continue
                    if fv(cv) and is_pure(te, self.impure) and is_pure(oe, self.impure):
                        tv = self.run(te, g)
                        ov = self.run(oe, g)
                        return aite(cv, tv, ov)
                    c = self.value_star(cv, g)
                    if isinstance(c, AConst):
                        e = te if c.v else oe
                        continue
                    g1 = g.copy()
                    tv = self.run(te, g1)
                    g2 = g.copy()
                    ov = self.run(oe, g2)
                    joined, gj = rename_join(tv, ov, g1, g2, in_fold=False)
                    g.entries = gj.entries
                    return joined
                case ELet(pat, bound, body):
                    v = self.run(bound, g)
                    e = esubst(body, _abs_match(pat, v))
                case ELetRV(ann, name, dist, args, body, site):
                    argv = [g.eval_value(self.run(x, g)) for x in args]
                    d = make_dist(dist, tuple(argv))
                    rid = self.backend.assume(ann, d, g, site=f"rv:{site}", label=name)
                    if ann is Annotation.SAMPLE:
                        bound_v = self.backend.value(rid, g)
                    else:
                        bound_v = ARV(rid)
                    e = esubst(body, {name: bound_v})
                case EObserve(dist, args, value_e):
                    argv = [g.eval_value(self.run(x, g)) for x in args]
                    d = make_dist(dist, tuple(argv))
                    rid = self.backend.assume(Annotation.NONE, d, g, site="obs", label="obs")
                    ve = self.run(value_e, g)
                    c = self.value_star(ve, g)
                    self.backend.observe(rid, c, g)
                    return AConst(None)
                case EResample():
                    return AConst(None)
                case EFold(fname, lst_e, init_e):
                    lst = g.eval_value(self.run(lst_e, g))
                    init = self.run(init_e, g)
                    if isinstance(lst, ALst) and lst.tail is None:
                        if not lst.items:
                            return init
                        acc = self._fresh_name()
                        e = ELet(
                            PVar(acc),
                            ECall(fname, ETuple((EVal(lst.items[0]), EVal(init)))),
                            EFold(fname, EVal(ALst(lst.items[1:], None)), EVar(acc)),
                        )
                        continue
                    return self.fold_fixpoint(fname, lst, init, g)
                case _:
                    raise TypeError(e)

    def fold_fixpoint(self, fname: str, lst: AbsVal, acc: AbsVal, g: AbsState) -> AbsVal:
        elem: AbsVal = TOP_E if contains_top(lst) else AEUnk(fv(lst))
        for _ in range(FOLD_ITER_LIMIT):
            g_iter = g.copy()
            vf = self.run(ECall(fname, ETuple((EVal(elem), EVal(acc)))), g_iter)
            vj, gj = rename_join(acc, vf, g, g_iter, in_fold=True)
            if vj == acc and abs_weak_eq(g, gj, ATup((lst, vj))):
                return acc
            acc = vj
            g.entries = gj.entries
        raise ValueError("fold fixpoint did not converge")


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
                        raise ValueError(f"pattern arity mismatch: {p} vs {x}")
    go(pat, v)
    return out


def analyze(program: Program, method: str) -> Verdict:
    """Satisfiability verdict for one annotated program under one backend."""
    backend = AbsSsi() if method == "ssi" else AbsDs()
    started = time.perf_counter()
    interp = AbsInterp(program, backend)
    g = AbsState()
    try:
        interp.run(program.main, g)
    except AnalysisFail as fail:
        elapsed = (time.perf_counter() - started) * 1000.0
        return Verdict(False, tuple(fail.witnesses), elapsed)
    elapsed = (time.perf_counter() - started) * 1000.0
    return Verdict(True, (), elapsed)
