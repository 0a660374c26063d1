"""The backend contract shared by the inference algorithms.

A backend provides ``assume``/``observe``/``value``; the particle runtime is
written against this interface only.  ``value_star`` forces an expression to
a constant, for the runtime and the analysis alike; ``distribution``
extracts per-output marginals at termination, through the backend's
``marginal_of`` and a memo of marginals by variable id kept for the
particle.
"""

from __future__ import annotations

from typing import Protocol

from .lang import Annotation
from .sym import (
    DDelta,
    Distr,
    SymState,
    Val,
    VConst,
    VLst,
    VRV,
    VTup,
    check_params,
    free_rvs,
)


class CastError(Exception):
    """A symbolic-annotated variable had to be sampled under strict mode."""


class CastLog:
    """Append-only record of dynamic encoding casts within a particle."""

    __slots__ = ("events", "strict")

    def __init__(self, strict: bool = False):
        self.events: list[tuple[int, str]] = []
        self.strict = strict

    def record(self, rid: int, label: str) -> None:
        if self.strict:
            raise CastError(f"unsatisfiable annotation on {label or rid}")
        self.events.append((rid, label))

    def __len__(self) -> int:
        return len(self.events)


class Backend(Protocol):
    """``ssi.SsiBackend`` and ``ds.DsBackend``.  Each method runs over one
    particle's state, which holds its generator and cast log; the analysis
    runs the same methods over an abstract state."""

    name: str

    def assume(self, ann: Annotation, dist: Distr, g: SymState, label: str = "",
               site: str = "") -> int: ...

    def observe(self, rid: int, value: float | bool, g: SymState) -> float: ...

    def value(self, rid: int, g: SymState) -> VConst: ...

    def marginal_of(self, rid: int, g: SymState, memo: dict[int, Distr]) -> Distr: ...


def value_star(v: Val, g: SymState, backend: Backend) -> Val:
    """Force every random variable of ``v`` in the state (ascending id),
    then fold; what is still no constant goes to the state's ``unreduced``."""
    e = g.eval_value(v)
    for rid in sorted(free_rvs(e)):
        if rid in g.entries:
            backend.value(rid, g)
    e = g.eval_value(e)
    return e if isinstance(e, VConst) else g.unreduced(e)


def distribution(v: Val, g: SymState, backend: Backend,
                 memo: dict[int, Distr] | None = None):
    """Distribution of a terminated particle's output value.

    Returns a tree mirroring the value: tuples/lists of ``Distr``.  Any
    sampling needed to extract output marginals is recorded in ``g.casts``,
    which callers keep separate from the semantic cast log.  A marginal
    with a constant parameter outside its domain is an ``EvalError``.
    ``memo`` holds the marginals by variable id that the backend has
    computed so far for this particle's outputs.
    """
    if memo is None:
        memo = {}
    match v:
        case VConst(_):
            return DDelta(v)
        case VTup(items):
            return tuple(distribution(x, g, backend, memo) for x in items)
        case VLst(items):
            return [distribution(x, g, backend, memo) for x in items]
        case VRV(rid):
            return check_params(backend.marginal_of(rid, g, memo))
        case _:
            c = value_star(v, g, backend)
            memo.clear()  # forcing conditions the state
            return DDelta(c)
