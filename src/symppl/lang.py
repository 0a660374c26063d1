"""Surface language: AST, patterns, and program representation.

Programs are first-order: a sequence of top-level function declarations
followed by a main expression.  ``fold`` is the only iteration construct
(the parser writes ``List.map`` and ``fold_resample`` as folds) and
functions may not recurse.

``children`` and ``rebuild`` are the one child map of expressions: every
structural walk (``walk``, ``checker.apply_plan`` and ``checker.check``)
keeps only its own cases and recurses through them for the rest, as
``sym.children``/``rebuild`` do for values.  No walk substitutes values:
the evaluator reads them from environments, which ``ELetK`` captures.

``immutable`` declares every node class of the package: expressions here,
values, distributions and state entries in ``sym``, delayed-sampling nodes
in ``ds`` and the abstract forms in ``absdomain``.  It builds the methods
``dataclass(frozen=True, slots=True)`` would, without that decorator's
per-class cost, which was half of the package's import time.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, Field, FrozenInstanceError, field
from operator import attrgetter, is_

# The fields of each immutable class, in order: name -> (default, compared).
_FIELDS: dict[type, dict[str, tuple[object, bool]]] = {}


def immutable(cls):
    """``cls`` rebuilt as an immutable slotted class.

    Its fields are an immutable base's, then its own annotated names; a
    ``ClassVar`` or un-annotated attribute stays a class attribute.  A
    field's value in the class body is its default, and a
    ``dataclasses.field`` marker gives its ``default`` and ``compare``.
    One compiled source gives ``__init__``, which stores each field through
    its slot's member descriptor (half the cost of ``object.__setattr__``)
    and then calls any ``__post_init__``; ``__eq__`` and ``__hash__`` over
    the tuple of compared fields; and ``__repr__``.  Setting or deleting
    any attribute raises ``FrozenInstanceError``.
    """
    ns = dict(cls.__dict__)
    own = {}
    for name, annotation in ns.get("__annotations__", {}).items():
        if not str(annotation).startswith(("ClassVar", "typing.ClassVar")):
            value = ns.pop(name, MISSING)
            own[name] = ((value.default, value.compare) if isinstance(value, Field)
                         else (value, True))
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(_FIELDS.get(base, {}))
    fields.update(own)
    ns["__slots__"] = tuple(own)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    qualname = cls.__qualname__
    compared = "".join(f"self.{name}," for name, (_, c) in fields.items() if c)
    env, params, stores = {}, [], []
    for name, (default, _) in fields.items():
        if default is MISSING:
            params.append(name)
        else:
            env[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        stores.append(f"    _set_{name}(self, {name})\n")
    if hasattr(cls, "__post_init__"):
        stores.append("    self.__post_init__()\n")
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in fields)
    source = (
        f"def __init__(self, {', '.join(params)}):\n{''.join(stores) or '    pass'}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({compared}) == ({compared.replace('self.', 'other.')})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({compared}))\n"
        f"def __repr__(self):\n    return f\"{qualname}({shown})\"\n")
    exec(compile(source, f"<{qualname}>", "exec"), env)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        ns[method] = env[method]
        env[method].__qualname__ = f"{qualname}.{method}"
    ns["__match_args__"] = tuple(fields)
    ns["__setattr__"] = ns["__delattr__"] = _frozen
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    for name in fields:
        env[f"_set_{name}"] = getattr(cls, name).__set__  # the slot's member descriptor
    _FIELDS[cls] = fields
    return cls


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


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
    "map": 2,  # parsed as a fold; a malformed map stays an ``EOp`` for ``check``
    "range": 2,
    "not": 1,
}


class Expr:
    __slots__ = ()


@immutable
class EConst(Expr):
    value: float | bool | None  # None is unit


@immutable
class EVar(Expr):
    name: str


@immutable
class ETuple(Expr):
    items: tuple[Expr, ...]


@immutable
class EList(Expr):
    items: tuple[Expr, ...]


@immutable
class EOp(Expr):
    """Built-in operator application: arithmetic, comparisons, list ops."""

    op: str
    args: tuple[Expr, ...]


@immutable
class ECall(Expr):
    """Application of a declared top-level function."""

    func: str
    arg: Expr


@immutable
class EIf(Expr):
    cond: Expr
    then: Expr
    orelse: Expr


@immutable
class ELet(Expr):
    pat: "Pattern"
    bound: Expr
    body: Expr


@immutable
class ELetRV(Expr):
    annotation: Annotation
    name: str
    dist: str
    args: tuple[Expr, ...]
    body: Expr
    site: int = field(default=-1, compare=False)  # source order of the declaration


@immutable
class EObserve(Expr):
    dist: str
    args: tuple[Expr, ...]
    value: Expr


@immutable
class EResample(Expr):
    site: int = field(default=-1, compare=False)


@immutable
class EFold(Expr):
    func: str
    lst: Expr
    init: Expr


@immutable
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


@immutable
class ELetK(Expr):
    """Residual of a ``let`` paused in its bound: ``bound`` is the paused
    bound's residual, and ``body`` runs under ``env``, the environment of
    the paused frame, extended by ``pat``.

    Only the evaluator builds it.  Environments are never mutated, so
    resampled copies share the captured ``env``.
    """

    pat: "Pattern"
    bound: Expr
    body: Expr
    env: dict[str, object]


class Pattern:
    __slots__ = ()


@immutable
class PVar(Pattern):
    name: str


@immutable
class PWild(Pattern):
    pass


@immutable
class PUnit(Pattern):
    pass


@immutable
class PTuple(Pattern):
    items: tuple[Pattern, ...]


@immutable
class FunDecl:
    name: str
    param: Pattern
    body: Expr


@immutable
class Program:
    functions: tuple[FunDecl, ...]
    main: Expr


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
    ELetK: attrgetter("bound", "body"),
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
        case ELetK(pat, _, _, env):
            return ELetK(pat, *kids, env)
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
