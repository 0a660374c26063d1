"""Surface language: AST, patterns, and program representation.

Programs are first-order: a sequence of top-level function declarations
followed by a main expression.  ``fold`` is the only iteration construct
and functions may not recurse.

``children`` and ``rebuild`` are the one child map of expressions: every
structural walk (``walk``, ``runtime.subst``, ``checker.apply_plan`` and
``checker.check``) keeps only its own cases and recurses through them for
the rest, as ``sym.children``/``rebuild`` do for values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter, is_


class Annotation(enum.Enum):
    NONE = "none"
    SYMBOLIC = "symbolic"
    SAMPLE = "sample"

    def __str__(self) -> str:
        return "" if self is Annotation.NONE else self.value


# Built-in operators (besides infix arithmetic/comparison) and arities.
BUILTIN_ARITIES = {
    "hd": 1,
    "tl": 1,
    "rev": 1,
    "len": 1,
    "cons": 2,
    "map": 2,
    "range": 2,
    "not": 1,
}


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class EConst(Expr):
    value: float | bool | None  # None is unit


@dataclass(frozen=True, slots=True)
class EVal(Expr):
    """Runtime-substituted value leaf; never produced by the parser."""

    v: object


@dataclass(frozen=True, slots=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class ETuple(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class EList(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class EOp(Expr):
    """Built-in operator application: arithmetic, comparisons, list ops."""

    op: str
    args: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class ECall(Expr):
    """Application of a declared top-level function."""

    func: str
    arg: Expr


@dataclass(frozen=True, slots=True)
class EIf(Expr):
    cond: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True, slots=True)
class ELet(Expr):
    pat: "Pattern"
    bound: Expr
    body: Expr


@dataclass(frozen=True, slots=True)
class ELetRV(Expr):
    annotation: Annotation
    name: str
    dist: str
    args: tuple[Expr, ...]
    body: Expr
    site: int = field(default=-1, compare=False)  # source order of the declaration


@dataclass(frozen=True, slots=True)
class EObserve(Expr):
    dist: str
    args: tuple[Expr, ...]
    value: Expr


@dataclass(frozen=True, slots=True)
class EResample(Expr):
    site: int = field(default=-1, compare=False)


@dataclass(frozen=True, slots=True)
class EFold(Expr):
    func: str
    lst: Expr
    init: Expr


@dataclass(frozen=True, slots=True)
class EFoldRest(Expr):
    """Residual of a fold paused inside a step: ``acc`` is the paused
    step's residual, whose value is the accumulator, and ``items[pos:]`` are
    still to be consumed.

    Only the evaluator builds it; the list was evaluated once on entry to
    the fold, and each element is evaluated again as it is consumed.
    """

    func: str
    items: tuple[object, ...]  # the list's values
    pos: int
    acc: Expr


class Pattern:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PVar(Pattern):
    name: str


@dataclass(frozen=True, slots=True)
class PWild(Pattern):
    pass


@dataclass(frozen=True, slots=True)
class PUnit(Pattern):
    pass


@dataclass(frozen=True, slots=True)
class PTuple(Pattern):
    items: tuple[Pattern, ...]


@dataclass(frozen=True, slots=True)
class FunDecl:
    name: str
    param: Pattern
    body: Expr


@dataclass(frozen=True, slots=True)
class Program:
    functions: tuple[FunDecl, ...]
    main: Expr

    def function(self, name: str) -> FunDecl:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


def pattern_vars(p: Pattern) -> list[str]:
    match p:
        case PVar(name):
            return [name]
        case PTuple(items):
            out: list[str] = []
            for q in items:
                out.extend(pattern_vars(q))
            return out
        case _:
            return []


# The subexpressions of each compound form, left to right.
_CHILDREN = {
    ETuple: attrgetter("items"),
    EList: attrgetter("items"),
    EOp: attrgetter("args"),
    ECall: lambda e: (e.arg,),
    EFoldRest: lambda e: (e.acc,),
    EIf: attrgetter("cond", "then", "orelse"),
    ELet: attrgetter("bound", "body"),
    EFold: attrgetter("lst", "init"),
    ELetRV: lambda e: e.args + (e.body,),
    EObserve: lambda e: e.args + (e.value,),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """An expression's subexpressions, left to right; ``()`` for a leaf."""
    get = _CHILDREN.get(type(e))
    return () if get is None else get(e)


def rebuild(e: Expr, kids) -> Expr:
    """``e`` over new subexpressions, given in ``children``'s order; ``e``
    itself when they are its own (a leaf always)."""
    if all(map(is_, kids, children(e))):
        return e
    match e:
        case ETuple():
            return ETuple(tuple(kids))
        case EList():
            return EList(tuple(kids))
        case EOp(op, _):
            return EOp(op, tuple(kids))
        case ECall(func, _):
            return ECall(func, *kids)
        case EFoldRest(func, items, pos, _):
            return EFoldRest(func, items, pos, *kids)
        case EIf():
            return EIf(*kids)
        case ELet(pat, _, _):
            return ELet(pat, *kids)
        case EFold(func, _, _):
            return EFold(func, *kids)
        case ELetRV(ann, name, dist, _, _, site):
            return ELetRV(ann, name, dist, tuple(kids[:-1]), kids[-1], site=site)
        case EObserve(dist, _, _):
            return EObserve(dist, tuple(kids[:-1]), kids[-1])
    return e


def walk(e: Expr):
    """Pre-order traversal of an expression, on an explicit stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))
