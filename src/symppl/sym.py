"""Symbolic values, distributions, and the per-particle state.

Values double as symbolic expressions over random variables.  The node
classes serve the runtime and the analysis alike: ``children`` and
``rebuild`` are the one child map every structural walk recurses through,
and ``free_vars`` is the one free-variable walk.  Each value domain builds
nodes through its own smart constructors, an ``Algebra``: the concrete ones
(``add`` .. ``ite``) fold constants, drop arithmetic identities and
hash-cons, so stored expressions stay small; the analysis's are
``absdomain.ALGEBRA``.  ``eval_value`` additionally substitutes realized
random variables.

The concrete constructors are canonical: every node they build is a fixed
point of ``rebuild``.  So evaluation is the identity on a value none of
whose variables is realized, and substitution on a value without the
variable: both return it without rebuilding.
"""

from __future__ import annotations

import math
from dataclasses import field
from itertools import chain
from operator import attrgetter
from typing import Callable

import numpy as np

from .lang import Annotation, immutable


class EvalError(Exception):
    pass


class Val:
    __slots__ = ()


class _Node(Val):
    """A compound value.  Nodes are immutable, so each caches its free
    variables (``_fv``, set on first use by ``free_vars``, or when built for
    the analysis's nodes that hide variables)."""

    __slots__ = ("_fv",)


class _List(_Node):
    """A list value: ``VLst``, or the analysis's list with an unknown
    suffix.  ``with_items`` rebuilds it around new items."""

    __slots__ = ()


@immutable
class VConst(Val):
    v: float | bool | None


@immutable
class VRV(Val):
    rid: int


@immutable
class VAdd(_Node):
    left: Val
    right: Val


@immutable
class VSub(_Node):
    left: Val
    right: Val


@immutable
class VMul(_Node):
    left: Val
    right: Val


@immutable
class VDiv(_Node):
    left: Val
    right: Val


@immutable
class VIte(_Node):
    cond: Val
    then: Val
    orelse: Val


@immutable
class VCmp(_Node):
    op: str  # "=", "!=", "<", "<="
    left: Val
    right: Val


@immutable
class VTup(_Node):
    items: tuple[Val, ...]


@immutable
class VLst(_List):
    """A list of known length."""

    items: tuple[Val, ...]

    def with_items(self, items: tuple[Val, ...]) -> "VLst":
        return VLst(items)


# The values that are not scalars.
CONTAINERS = (VTup, _List)

UNIT = VConst(None)
TRUE = VConst(True)
FALSE = VConst(False)


# Hash-consing: the smart constructors intern their results so structurally
# equal subgraphs share identity.  Position-lookup towers built over a
# handful of coin flips then stay polynomial (equal branches unify), and
# identity checks double as structural equality for interned nodes.
_INTERN: dict = {}
_INTERN_LIMIT = 1_000_000


def reset_intern() -> None:
    """Drop the hash-consing table (safe: interning is an optimization)."""
    _INTERN.clear()


def _canon(v: Val) -> Val:
    if isinstance(v, VConst):
        return _intern((VConst, type(v.v).__name__, v.v), v)
    if isinstance(v, VRV):
        return _intern((VRV, v.rid), v)
    return v


def _intern(key, node):
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    if len(_INTERN) > _INTERN_LIMIT:
        _INTERN.clear()
    _INTERN[key] = node
    return node


def _node2(cls, l: Val, r: Val) -> Val:
    l, r = _canon(l), _canon(r)
    return _intern((cls, id(l), id(r)), cls(l, r))


def _node_cmp(op: str, l: Val, r: Val) -> Val:
    l, r = _canon(l), _canon(r)
    return _intern((VCmp, op, id(l), id(r)), VCmp(op, l, r))


def _node_ite(c: Val, t: Val, o: Val) -> Val:
    c, t, o = _canon(c), _canon(t), _canon(o)
    return _intern((VIte, id(c), id(t), id(o)), VIte(c, t, o))


def _push_ite(make, l: Val, r: Val) -> Val | None:
    """Distribute a strict scalar operation into conditional branches.

    Applied when one operand is a constant or both share the same guard
    node; keeps position-lookup towers (nested selects over constants)
    foldable instead of opaque.
    """
    if isinstance(l, VIte) and isinstance(r, VIte) and l.cond is r.cond:
        return ite(l.cond, make(l.then, r.then), make(l.orelse, r.orelse))
    if isinstance(l, VIte) and isinstance(r, VConst):
        return ite(l.cond, make(l.then, r), make(l.orelse, r))
    if isinstance(r, VIte) and isinstance(l, VConst):
        return ite(r.cond, make(l, r.then), make(l, r.orelse))
    return None


def add(l: Val, r: Val) -> Val:
    if isinstance(l, VConst) and isinstance(r, VConst):
        return VConst(l.v + r.v)
    if isinstance(l, VConst) and l.v == 0:
        return r
    if isinstance(r, VConst) and r.v == 0:
        return l
    pushed = _push_ite(add, l, r)
    return pushed if pushed is not None else _node2(VAdd, l, r)


def sub(l: Val, r: Val) -> Val:
    if isinstance(l, VConst) and isinstance(r, VConst):
        return VConst(l.v - r.v)
    if isinstance(r, VConst) and r.v == 0:
        return l
    pushed = _push_ite(sub, l, r)
    return pushed if pushed is not None else _node2(VSub, l, r)


def mul(l: Val, r: Val) -> Val:
    if isinstance(l, VConst) and isinstance(r, VConst):
        return VConst(l.v * r.v)
    if isinstance(l, VConst):
        if l.v == 1:
            return r
        if l.v == 0:
            return VConst(0.0)
    if isinstance(r, VConst):
        if r.v == 1:
            return l
        if r.v == 0:
            return VConst(0.0)
    pushed = _push_ite(mul, l, r)
    return pushed if pushed is not None else _node2(VMul, l, r)


def div(l: Val, r: Val) -> Val:
    if isinstance(r, VConst):
        if r.v == 0:
            raise EvalError("division by zero")
        if r.v == 1:
            return l
        if isinstance(l, VConst):
            return VConst(l.v / r.v)
    pushed = _push_ite(div, l, r)
    return pushed if pushed is not None else _node2(VDiv, l, r)


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def cmp(op: str, l: Val, r: Val) -> Val:
    if isinstance(l, VConst) and isinstance(r, VConst):
        return VConst(_CMP[op](l.v, r.v))
    pushed = _push_ite(lambda a, b: cmp(op, a, b), l, r)
    return pushed if pushed is not None else _node_cmp(op, l, r)


def ite(c: Val, t: Val, o: Val) -> Val:
    if isinstance(c, VConst):
        return t if c.v else o
    # canonical first, so equal constant or variable branches are identical;
    # identity, not structural comparison, which would walk shared sub-DAGs
    t, o = _canon(t), _canon(o)
    if t is o:
        return t
    if isinstance(c, VIte) and isinstance(t, VConst) and isinstance(o, VConst):
        return ite(c.cond, ite(c.then, t, o), ite(c.orelse, t, o))
    return _node_ite(c, t, o)


# The child fields of each scalar node class, left to right.
_CHILD_FIELDS = {cls: attrgetter("left", "right") for cls in (VAdd, VSub, VMul, VDiv, VCmp)}
_CHILD_FIELDS[VIte] = attrgetter("cond", "then", "orelse")


def children(v: Val) -> tuple[Val, ...]:
    """A node's child values, left to right; ``()`` for a leaf."""
    fields = _CHILD_FIELDS.get(type(v))
    if fields is not None:
        return fields(v)
    return v.items if isinstance(v, (VTup, _List)) else ()


def rebuild(v: Val, kids, alg: "Algebra") -> Val:
    """``v`` over new children, built by ``alg``'s constructors; a leaf as
    it is.  Tuples and lists are rebuilt as they are."""
    match v:
        case VAdd():
            return alg.add(*kids)
        case VSub():
            return alg.sub(*kids)
        case VMul():
            return alg.mul(*kids)
        case VDiv():
            return alg.div(*kids)
        case VCmp(op):
            return alg.cmp(op, *kids)
        case VIte():
            return alg.ite(*kids)
        case VTup():
            return VTup(tuple(kids))
        case _List():
            return v.with_items(tuple(kids))
    return v


def shape(v: Val) -> str:
    """How diagnostics name a value: by its shape, not its contents."""
    if isinstance(v, VTup):
        return f"a {len(v.items)}-tuple"
    return "a list" if isinstance(v, _List) else "a scalar"


def free_vars(v: Val) -> tuple[int, ...]:
    """Random variables referenced by a value, in first-occurrence order.

    The order is that of a depth-first, left-to-right walk.  Each compound
    node computes its tuple once, from its children's, and keeps it, so
    shared sub-DAGs are never walked twice.
    """
    if isinstance(v, VRV):
        return (v.rid,)
    if not isinstance(v, _Node):
        return ()
    try:
        return v._fv
    except AttributeError:
        pass
    fv = _union([free_vars(k) for k in children(v)])
    _set_fv(v, fv)
    return fv


_set_fv = _Node._fv.__set__  # a slot store past the frozen ``__setattr__``


def _union(parts: list[tuple[int, ...]]) -> tuple[int, ...]:
    """First-occurrence union; reuses the first tuple when nothing is new."""
    parts = [p for p in parts if p]
    if not parts:
        return ()
    head = parts[0]
    if len(parts) == 1:
        return head
    merged = tuple(dict.fromkeys(chain.from_iterable(parts)))
    return head if len(merged) == len(head) else merged


def free_rvs(v: Val) -> list[int]:
    """``free_vars`` as a list."""
    return list(free_vars(v))


def subst_rv(v: Val, rid: int, replacement: Val, _memo: dict | None = None) -> Val:
    """``v`` with variable ``rid`` replaced, rebuilt by the concrete
    constructors; a sub-DAG without ``rid`` is kept as it is, since
    rebuilding it would give it back."""
    if isinstance(v, VRV):
        return replacement if v.rid == rid else v
    if not isinstance(v, _Node) or rid not in free_vars(v):
        return v
    if _memo is None:
        _memo = {}
    out = _memo.get(id(v))
    if out is None:
        out = _memo[id(v)] = rebuild(
            v, [subst_rv(k, rid, replacement, _memo) for k in children(v)], CONCRETE)
    return out


# --- distributions ---


class Distr:
    """A distribution form.  A family carries its surface ``name``, and its
    fields, in order, are its arguments and its JSON keys.  ``unknown``
    marks the analysis's forms that stand for some distribution it cannot
    name; the rules read none."""

    __slots__ = ()
    unknown = False


@immutable
class DNormal(Distr):
    name = "gaussian"
    mu: Val
    var: Val


@immutable
class DBernoulli(Distr):
    name = "bernoulli"
    p: Val


@immutable
class DInvGamma(Distr):
    name = "invgamma"
    a: Val
    b: Val


@immutable
class DBeta(Distr):
    name = "beta"
    a: Val
    b: Val


@immutable
class DStudentT(Distr):
    name = "student_t"
    loc: Val
    dof: Val
    scale: Val


@immutable
class DDelta(Distr):
    name = "delta"
    v: Val


@immutable
class DSampledDelta(DDelta):
    """A variable forced to a sample: a delta on the drawn value, kept
    apart from an observed one."""


# The distribution families of the surface language, by name.
FAMILIES = {cls.name: cls for cls in (DNormal, DInvGamma, DBeta, DBernoulli, DStudentT, DDelta)}
DIST_ARITIES = {name: len(cls.__match_args__) for name, cls in FAMILIES.items()}


@immutable
class DMixIte(Distr):
    """Conditional posterior: one of two distributions selected by a guard."""

    cond: Val
    then: Distr
    orelse: Distr


def distr_params(d: Distr) -> tuple[Val, ...]:
    match d:
        case DNormal(mu, var):
            return (mu, var)
        case DBernoulli(p):
            return (p,)
        case DInvGamma(a, b) | DBeta(a, b):
            return (a, b)
        case DStudentT(loc, dof, scale):
            return (loc, dof, scale)
        case DDelta(v):
            return (v,)
        case DMixIte(c, d1, d2):
            return (c,) + distr_params(d1) + distr_params(d2)
    if d.unknown:
        return ()
    raise TypeError(d)


def map_params(d: Distr, f) -> Distr:
    """The same distribution with ``f`` applied to each parameter.

    The runtime and the analysis both rebuild distributions through this
    one function.  A delta keeps its class (a sampled delta is a
    subclass), and a distribution the analysis cannot name has no
    parameters.
    """
    match d:
        case DNormal(mu, var):
            return DNormal(f(mu), f(var))
        case DBernoulli(p):
            return DBernoulli(f(p))
        case DInvGamma(a, b):
            return DInvGamma(f(a), f(b))
        case DBeta(a, b):
            return DBeta(f(a), f(b))
        case DStudentT(loc, dof, scale):
            return DStudentT(f(loc), f(dof), f(scale))
        case DDelta(v):
            return type(d)(f(v))
        case DMixIte(c, d1, d2):
            return DMixIte(f(c), map_params(d1, f), map_params(d2, f))
    if d.unknown:
        return d
    raise TypeError(d)


def distr_rvs(d: Distr) -> list[int]:
    return list(_union([free_vars(p) for p in distr_params(d)]))


def make_dist(name: str, args: tuple[Val, ...]) -> Distr:
    return FAMILIES[name](*args)


# --- the value operations of the conjugacy rules ---


@immutable
class Algebra:
    """The smart constructors of one value domain, and the value operations
    the conjugacy rules need beyond the shared node classes.

    ``add`` .. ``ite`` build nodes (``rebuild`` calls them), and
    ``div_total`` is a division that never fails (it conditions on a
    zero-probability branch).  ``has_top`` says whether a value may hide
    unknown variables, ``subst_rv(v, rid, c)`` replaces a variable, and
    ``t_scale(a, b)`` is the Student-t scale of an invgamma-variance
    marginal, or None when it has no closed form.
    """

    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    cmp: Callable
    ite: Callable
    div_total: Callable
    has_top: Callable
    subst_rv: Callable
    t_scale: Callable


# The operator of each arithmetic node class; each has fields ``left``/``right``.
ARITH = {VAdd: "+", VSub: "-", VMul: "*", VDiv: "/"}


def _safe_div(num: Val, den: Val) -> Val:
    try:
        return div(num, den)
    except EvalError:
        return VConst(0.0)  # conditioning on a zero-probability branch


def t_scale(a: Val, b: Val) -> Val | None:
    if isinstance(a, VConst) and isinstance(b, VConst):
        return VConst(math.sqrt(b.v / a.v))
    return None


CONCRETE = Algebra(
    add=add, sub=sub, mul=mul, div=div, cmp=cmp, ite=ite, div_total=_safe_div,
    has_top=lambda v: False, subst_rv=subst_rv, t_scale=t_scale,
)


# --- symbolic state ---


@immutable
class Entry:
    ann: Annotation
    distr: Distr
    node: object | None = None  # backend-specific data
    label: str = field(default="", compare=False)  # "<name>#<rid>" for cast reports


class SymState:
    """Finite map from random-variable ids to entries.

    Entries are immutable; the mapping itself is owned by one particle and
    mutated in place.  ``copy`` is a cheap shallow copy of the same class:
    its entries map is its own, and every slot in ``_shared`` is taken over
    as it is.

    The backends (``ssi``, ``ds``) run over this state, and the analysis
    runs them over its subclass ``absdomain.AbsState``.  A state supplies
    its domain through ``alg``, ``distr_fv``, ``deps``, ``realized_value``,
    ``cast``, ``forced``, ``observed``, ``give_up`` and ``unreduced``;
    evaluation, parents and the entry accessors serve both.  The particle's
    generator ``rng`` and cast log ``casts`` are the state's, for ``forced``
    and ``cast``.
    """

    __slots__ = ("entries", "_next", "rng", "casts")
    _shared = ("_next", "rng", "casts")

    alg = CONCRETE  # the smart constructors, and the rules' value operations
    distr_fv = staticmethod(distr_rvs)

    def __init__(self, rng: np.random.Generator | None = None, casts=None) -> None:
        self.entries: dict[int, Entry] = {}
        self._next = 0
        self.rng = rng
        self.casts = casts

    def copy(self) -> "SymState":
        g = object.__new__(type(self))
        g.entries = dict(self.entries)
        for name in self._shared:
            setattr(g, name, getattr(self, name))
        return g

    def fresh(self, ann: Annotation, distr: Distr, node: object | None = None,
              label: str = "", site: str = "") -> int:
        """A new variable.  ``site``, its program point, is kept only by
        the analysis's state, for witnesses."""
        for rid in distr_rvs(distr):
            if rid not in self.entries:
                raise EvalError(f"distribution references unknown variable {rid}")
        rid = self._next
        self._next += 1
        self.entries[rid] = Entry(ann, distr, node, f"{label}#{rid}" if label else "")
        return rid

    def __contains__(self, rid: int) -> bool:
        return rid in self.entries

    def ann(self, rid: int) -> Annotation:
        return self.entries[rid].ann

    def distr(self, rid: int) -> Distr:
        """The stored distribution, evaluated.  A changed result is stored
        back, so each realized variable is substituted into an entry once."""
        e = self.entries[rid]
        d = self.eval_distr(e.distr)
        if d is not e.distr:
            self.entries[rid] = Entry(e.ann, d, e.node, e.label)
        return d

    def node(self, rid: int):
        return self.entries[rid].node

    def label(self, rid: int) -> str:
        return self.entries[rid].label

    def set_distr(self, rid: int, d: Distr, node: object | None = None) -> None:
        """Store ``d`` as the distribution of ``rid``, and ``node``, when
        given, as its node in the same entry."""
        e = self.entries[rid]
        self.entries[rid] = Entry(e.ann, d, e.node if node is None else node, e.label)

    def set_node(self, rid: int, node) -> None:
        e = self.entries[rid]
        self.entries[rid] = Entry(e.ann, e.distr, node, e.label)

    def realized_value(self, rid: int) -> Val | None:
        d = self.entries[rid].distr
        return d.v if isinstance(d, DDelta) and isinstance(d.v, VConst) else None

    def parents(self, rid: int) -> list[int]:
        """Live random variables referenced by this entry's distribution."""
        return [p for p in self.distr_fv(self.distr(rid)) if p != rid]

    def deps(self, rid: int):
        """The variables an entry depends on, for ``reachable``: those of
        its stored distribution."""
        return self.distr_fv(self.entries[rid].distr)

    # --- the backends' domain hooks ---

    def cast(self, rid: int) -> None:
        """A symbolic-annotated variable is about to be forced."""
        self.casts.record(rid, self.label(rid))

    def forced(self, rid: int) -> tuple[Distr, Val]:
        """A sample of a root: its delta and its value."""
        c = VConst(draw(self.distr(rid), self.rng))
        return DSampledDelta(c), c

    def observed(self, rid: int, value: float | bool) -> tuple[float, Distr]:
        """A root observed at ``value``: the log-weight and its delta."""
        return score(self.distr(rid), value), DDelta(VConst(value))

    def give_up(self, rids: list[int], why: str) -> None:
        """A backend invariant is broken; the analysis over-approximates
        ``rids`` here instead."""
        raise EvalError(why)

    def unreduced(self, v: Val) -> Val:
        """``value_star`` forced every variable of ``v`` and it is still no
        constant: an error here, some constant for the analysis."""
        raise EvalError(f"expression did not reduce to a constant: {shape(v)}")

    # --- evaluation ---

    def _touches_realized(self, v: Val) -> bool:
        """Whether some variable of ``v`` is realized: ``realized_value``'s
        test inlined for the runtime's deltas, which the analysis's state
        replaces with its own."""
        if isinstance(v, VRV):
            rids = (v.rid,)
        elif isinstance(v, _Node):
            rids = free_vars(v)
        else:
            return False
        entries = self.entries
        for rid in rids:
            d = entries[rid].distr
            if isinstance(d, DDelta) and isinstance(d.v, VConst):
                return True
        return False

    def eval_value(self, v: Val, _memo: dict | None = None) -> Val:
        """``v`` with its realized variables substituted, rebuilt by the
        state's constructors; ``v`` itself, by canonicity, when none of its
        variables is realized."""
        if not self._touches_realized(v):
            return v
        if isinstance(v, VRV):
            return self.realized_value(v.rid)
        if _memo is None:
            _memo = {}
        out = _memo.get(id(v))
        if out is None:
            out = _memo[id(v)] = rebuild(
                v, [self.eval_value(k, _memo) for k in children(v)], self.alg)
        return out

    def eval_distr(self, d: Distr) -> Distr:
        """``d`` with its parameters evaluated, and each mixture whose guard
        is constant collapsed to the selected branch; ``d`` itself when
        nothing changes."""
        if isinstance(d, DMixIte):
            c = self.eval_value(d.cond)
            if isinstance(c, VConst):
                return self.eval_distr(d.then if c.v else d.orelse)
            t, o = self.eval_distr(d.then), self.eval_distr(d.orelse)
            if c is d.cond and t is d.then and o is d.orelse:
                return d
            return DMixIte(c, t, o)
        for p in distr_params(d):
            if not isinstance(p, VConst) and self._touches_realized(p):
                return map_params(d, self.eval_value)
        return d


def reachable(roots, *states: SymState, until: set[int] | None = None) -> set[int]:
    """Transitive closure of variable references through each state's
    ``deps``: stored distributions, and for the analysis's state also the
    delayed-sampling node edges.

    With ``until``, the search stops as soon as it has seen every variable
    in that set, so the result is then only guaranteed to hold those.
    """
    frontier: list[int] = []
    for r in roots:
        if isinstance(r, int):
            frontier.append(r)
        else:
            frontier.extend(free_vars(r))
    seen: set[int] = set()
    missing = len(until) if until is not None else -1
    while frontier and missing:
        rid = frontier.pop()
        if rid in seen:
            continue
        seen.add(rid)
        if until is not None and rid in until:
            missing -= 1
        for g in states:
            if rid in g.entries:
                frontier.extend(g.deps(rid))
    return seen


def weak_eq(g1: SymState, g2: SymState, e: Val) -> bool:
    """States agree on every variable reachable from ``e``."""
    for rid in reachable([e], g1, g2):
        if g1.entries.get(rid) != g2.entries.get(rid):
            return False
    return True


# --- densities and sampling ---


LOG_2PI = math.log(2.0 * math.pi)


def _nonpositive(*params: Val) -> bool:
    return any(isinstance(x, VConst) and x.v <= 0 for x in params)


def check_params(d: Distr) -> Distr:
    """``d`` itself, unless a constant parameter lies outside its domain:
    then ``EvalError``.  Scoring, sampling and output extraction all check
    through here."""
    match d:
        case DNormal(_, VConst(var)) if var <= 0:
            raise EvalError(f"gaussian variance must be positive, got {var}")
        case DBernoulli(VConst(p)) if not 0.0 <= p <= 1.0:
            raise EvalError(f"bernoulli probability out of range: {p}")
        case DInvGamma(a, b) if _nonpositive(a, b):
            raise EvalError("invgamma parameters must be positive")
        case DBeta(a, b) if _nonpositive(a, b):
            raise EvalError("beta parameters must be positive")
        case DStudentT(_, dof, scale) if _nonpositive(dof, scale):
            raise EvalError("student_t parameters must be positive")
    return d


def score(d: Distr, value: float | bool) -> float:
    """Natural-log density (or mass) of a constant-parameter distribution."""
    match check_params(d):
        case DNormal(VConst(mu), VConst(var)):
            return -0.5 * (LOG_2PI + math.log(var)) - (value - mu) ** 2 / (2.0 * var)
        case DBernoulli(VConst(p)):
            if value:
                return math.log(p) if p > 0 else -math.inf
            return math.log1p(-p) if p < 1 else -math.inf
        case DInvGamma(VConst(a), VConst(b)):
            if value <= 0:
                return -math.inf
            return a * math.log(b) - math.lgamma(a) - (a + 1.0) * math.log(value) - b / value
        case DBeta(VConst(a), VConst(b)):
            if not 0.0 < value < 1.0:
                return -math.inf
            logbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            return (a - 1.0) * math.log(value) + (b - 1.0) * math.log1p(-value) - logbeta
        case DStudentT(VConst(loc), VConst(dof), VConst(scale)):
            z = (value - loc) / scale
            return (
                math.lgamma((dof + 1.0) / 2.0)
                - math.lgamma(dof / 2.0)
                - 0.5 * math.log(dof * math.pi)
                - math.log(scale)
                - (dof + 1.0) / 2.0 * math.log1p(z * z / dof)
            )
        case DDelta(VConst(c)):
            return 0.0 if value == c else -math.inf
    raise EvalError(f"cannot score {d}")


def draw(d: Distr, rng: np.random.Generator) -> float | bool:
    """Sample from a constant-parameter distribution."""
    match check_params(d):
        case DNormal(VConst(mu), VConst(var)):
            return float(rng.normal(mu, math.sqrt(var)))
        case DBernoulli(VConst(p)):
            return bool(rng.random() < p)
        case DInvGamma(VConst(a), VConst(b)):
            return float(1.0 / rng.gamma(a, 1.0 / b))
        case DBeta(VConst(a), VConst(b)):
            return float(rng.beta(a, b))
        case DStudentT(VConst(loc), VConst(dof), VConst(scale)):
            return float(loc + scale * rng.standard_t(dof))
        case DDelta(VConst(c)):
            return c
    raise EvalError(f"cannot draw from {d}")


def moments(d: Distr) -> tuple[float, float]:
    """(mean, variance); infinite variance reported as ``inf``."""
    match d:
        case DNormal(VConst(mu), VConst(var)):
            return float(mu), float(var)
        case DBernoulli(VConst(p)):
            return float(p), float(p * (1.0 - p))
        case DInvGamma(VConst(a), VConst(b)):
            mean = b / (a - 1.0) if a > 1 else math.inf
            var = b * b / ((a - 1.0) ** 2 * (a - 2.0)) if a > 2 else math.inf
            return mean, var
        case DBeta(VConst(a), VConst(b)):
            return a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))
        case DStudentT(VConst(loc), VConst(dof), VConst(scale)):
            mean = float(loc) if dof > 1 else math.inf
            var = scale * scale * dof / (dof - 2.0) if dof > 2 else math.inf
            return mean, var
        case DDelta(VConst(c)):
            return float(c), 0.0
    raise EvalError(f"no closed-form moments for {d}")


def distr_to_json(d: Distr):
    """A family as its name and its fields; a mixture as its guard and
    branches."""
    if isinstance(d, DMixIte):
        return {"dist": "mixture", "cond": val_to_json(d.cond),
                "then": distr_to_json(d.then), "else": distr_to_json(d.orelse)}
    out = {"dist": d.name}
    for f in d.__match_args__:
        out[f] = val_to_json(getattr(d, f))
    return out


def val_to_json(v: Val):
    match v:
        case VConst(x):
            return x
        case VRV(rid):
            return {"rv": rid}
        case VTup(items):
            return {"tuple": [val_to_json(i) for i in items]}
        case VLst(items):
            return [val_to_json(i) for i in items]
    op = v.op if isinstance(v, VCmp) else "ite" if isinstance(v, VIte) else ARITH[type(v)]
    return {"op": op, "args": [val_to_json(k) for k in children(v)]}
