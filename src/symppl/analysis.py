"""Satisfiability analysis: abstract interpretation of annotation plans.

The analysis is the runtime's evaluation loop (``runtime.Evaluator._run``)
run over the domain of ``absdomain``.  Values are ``sym``'s nodes, built
through the state's smart constructors (``absdomain.ALGEBRA``), so
``AbsInterp`` supplies only the rest of that domain: the list operators,
pattern binding, the join of both branches of an ``if`` whose forced
condition stays unknown, the fixpoint of a fold over a list of unknown
length (a ``map`` is one: the parser writes it as a fold), and the
abstract backends.  Values are forced by the runtime's
``interface.value_star``; one that stays unknown is some constant.
``main`` is closed over an unknown ``data`` by ``runtime.subst`` (an
``ELetK`` binding it), as ``run_model`` closes it over the data, and one
abstract particle runs it; ``resample`` is a no-op and there are no weights.

The abstract backends are the runtime's: ``AbsSsi`` and ``AbsDs`` bind
``ssi``'s and ``ds``'s own functions, which run over an
``absdomain.AbsState``, the runtime's ``SymState`` with hooks that make a
forced sample some constant, a cast a failure, and a broken backend
invariant an over-approximation.  A fold's fixpoint is reached when the
accumulator and everything it reaches in the state (``sym.weak_eq``) stop
changing.  So
forcing a variable whose abstract annotation is SYMBOLIC aborts with
failure, as does any lattice escalation that touches a symbolic variable.
The verdict is deterministic.  A program the analysis cannot interpret
raises ``AnalysisError``.
"""

from __future__ import annotations

import functools
import time

from .absdomain import (
    AbsState,
    AEUnk,
    ALst,
    ATopE,
    AnalysisFail,
    TOP_E,
    UNK,
    contains_top,
    fv,
    rename_join,
    suffix_vars,
)
from .ds import DsBackend
from .lang import Expr, Program, PTuple, immutable
from .runtime import Evaluator, match_pattern, pattern_mismatch, subst as esubst
from .ssi import SsiBackend
from .sym import UNIT, EvalError, VConst, VLst, VTup, Val, _List, weak_eq

FOLD_ITER_LIMIT = 1000


class AnalysisError(EvalError):
    """A program the analysis cannot interpret (a limit, not a verdict)."""


@immutable
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


def _abs_items(pat: PTuple, v: Val) -> tuple[Val, ...]:
    """``runtime.tuple_items`` over abstract values, where an unknown tuple
    binds each item to the same unknown."""
    if isinstance(v, (AEUnk, ATopE)):
        return (v,) * len(pat.items)
    if isinstance(v, VTup) and len(v.items) == len(pat.items):
        return v.items
    raise AnalysisError(pattern_mismatch(pat, v))


_abs_match = functools.partial(match_pattern, items=_abs_items)


class AbsParticle:
    """The analysis's one particle: a state, with no weight and no pause."""

    __slots__ = ("state",)

    def __init__(self, state: AbsState) -> None:
        self.state = state


class AbsInterp(Evaluator):
    """The runtime's evaluation loop over the abstract domain: the same
    value nodes, built through the state's ``ALGEBRA``."""

    bind = staticmethod(_abs_match)

    def _join_branches(self, te: Expr, oe: Expr, env: dict, p: AbsParticle) -> Val:
        """Both branches from the same state, joined: the then-branch runs
        on a copy of the state, the else-branch on the state itself."""
        p1 = AbsParticle(p.state.copy())
        tv, _ = self._run(te, env, p1)
        ov, _ = self._run(oe, env, p)
        joined, gj = rename_join(tv, ov, p1.state, p.state, in_fold=False)
        p.state.entries = gj.entries
        return joined

    def _observe(self, rid: int, c: Val, p: AbsParticle) -> None:
        self.backend.observe(rid, c, p.state)

    def _resample(self, site: int, p: AbsParticle):
        return UNIT, False

    def _fold(self, fname: str, lst: Val, init: Val, p: AbsParticle):
        if isinstance(lst, VLst):
            return self._fold_from(fname, lst.items, 0, init, p)
        return self.fold_fixpoint(fname, lst, init, p), False

    def _list_op(self, op: str, args: tuple[Val, ...], p: AbsParticle) -> Val:
        """The list operators, over lists whose length may be unknown."""
        a = [p.state.eval_value(x) for x in args]
        lst = a[0]
        match op:
            case "cons":
                hd, tl = a
                if isinstance(tl, _List):
                    return tl.with_items((hd,) + tl.items)
                if isinstance(tl, AEUnk):
                    return ALst((hd,), tl.fv)
                return TOP_E if isinstance(tl, ATopE) else AEUnk(fv(hd) | fv(tl))
            case "hd" if isinstance(lst, _List):
                if lst.items:
                    return lst.items[0]
                return AEUnk(suffix_vars(lst))
            case "tl" if isinstance(lst, _List):
                return lst.with_items(lst.items[1:])
            case "hd" | "tl":
                return lst if isinstance(lst, AEUnk) else TOP_E
            case "rev" if isinstance(lst, VLst):
                return VLst(tuple(reversed(lst.items)))
            case "rev":
                return TOP_E if contains_top(lst) else AEUnk(fv(lst))
            case "len":
                return VConst(float(len(lst.items))) if isinstance(lst, VLst) else UNK
        lo, hi = a  # range
        if isinstance(lo, VConst) and isinstance(hi, VConst):
            return VLst(tuple(VConst(float(i)) for i in range(int(lo.v), int(hi.v))))
        return AEUnk(frozenset())

    def fold_fixpoint(self, fname: str, lst: Val, acc: Val, p: AbsParticle) -> Val:
        """A fold over a list of unknown length: the step joined into the
        accumulator until the accumulator and the state stop changing."""
        g = p.state
        elem: Val = TOP_E if contains_top(lst) else AEUnk(fv(lst))
        f = self.functions[fname]
        for _ in range(FOLD_ITER_LIMIT):
            it = AbsParticle(g.copy())
            vf, _ = self._run(f.body, self.bind(f.param, VTup((elem, acc))), it)
            vj, gj = rename_join(acc, vf, g, it.state, in_fold=True)
            if vj == acc and weak_eq(g, gj, VTup((lst, vj))):
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
