"""Satisfiability analysis: abstract interpretation of annotation plans.

The analysis is the runtime's evaluation loop (``runtime.Evaluator._run``)
run over the domain of ``absdomain``.  ``AbsInterp`` supplies only that
domain: value constructors, operators, pattern binding, the join of both
branches of an ``if`` whose forced condition stays unknown, the fixpoint
of a fold over a list of unknown length, and the abstract backends.
``main`` is closed over an unknown ``data`` with ``runtime.subst``, as
``run_model`` closes it over the data, and one abstract particle runs it;
``resample`` is a no-op and there are no weights.

The abstract backends are the runtime's: ``AbsSsi`` and ``AbsDs`` bind
``ssi``'s and ``ds``'s own functions, which run over an
``absdomain.AbsState`` whose hooks make a forced sample some constant, a
cast a failure, and a broken backend invariant an over-approximation.  So
forcing a variable whose abstract annotation is SYMBOLIC aborts with
failure, as does any lattice escalation that touches a symbolic variable.
The verdict is deterministic.  A program the analysis cannot interpret
raises ``AnalysisError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .absdomain import (
    AbsState,
    AbsVal,
    AConst,
    AEUnk,
    ALst,
    ARV,
    ATopE,
    ATup,
    AnalysisFail,
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
    rename_join,
)
from .ds import DsBackend
from .lang import Annotation, Expr, Pattern, Program, PTuple, PUnit, PVar, PWild
from .runtime import Evaluator, pattern_mismatch, subst as esubst
from .ssi import SsiBackend
from .sym import Distr, EvalError

FOLD_ITER_LIMIT = 1000


class AnalysisError(EvalError):
    """A program the analysis cannot interpret (a limit, not a verdict)."""


@dataclass(frozen=True, slots=True)
class Verdict:
    satisfiable: bool
    witnesses: tuple[tuple[str, str], ...] = ()
    elapsed_ms: float = 0.0


class AbsSsi:
    """The SSI backend over the abstract state: ``ssi``'s functions, bound
    under this class's own names so the analysis never calls through
    ``SsiBackend``."""

    name = "ssi"
    assume = SsiBackend.assume
    value = SsiBackend.value
    observe = SsiBackend.observe
    hoist = SsiBackend.hoist


class AbsDs:
    """The delayed-sampling backend over the abstract state: ``ds``'s
    functions, bound under this class's own names."""

    name = "ds"
    assume = DsBackend.assume
    _conjugate_dist = DsBackend._conjugate_dist
    value = DsBackend.value
    observe = DsBackend.observe
    graft = DsBackend.graft
    prune = DsBackend.prune
    marginalize = DsBackend.marginalize
    realize = DsBackend.realize


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
                        raise AnalysisError(pattern_mismatch(p, x, ATup, ALst))
    go(pat, v)
    return out


@dataclass(slots=True)
class AbsParticle:
    """The analysis's one particle: a state, with no weight, no pause, no
    generator and no cast log."""

    state: AbsState
    rng = None
    casts = None


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
        return self.backend.assume(ann, d, p.state, label=label,
                                   site="obs" if site is None else f"rv:{site}")

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
