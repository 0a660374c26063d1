"""Abstract values, distributions, states, and their lattice operations.

Abstract values are ``sym``'s value nodes plus four forms the runtime has
no equivalent for: ``AUnkC`` (some constant), ``AEUnk(S)`` (some
expression over a variable set), ``ATopE`` (any expression) and
``ALst(items, tail)`` (a list with an unknown suffix over the variables
``tail``).  ``AUnkC`` counts as a constant.  The analysis builds nodes
through ``ALGEBRA``, its smart constructors: ``sym``'s arithmetic rules
with an abstract node step that builds plain nodes, not interned ones,
and its own ``acmp`` and ``aite`` (an abstract ``ite`` must not collapse
equal branches, which stand for possibly different values).  It walks
nodes through ``sym``'s child map (``children``/``rebuild``) and
``sym.free_vars``; each walk here keeps only its leaf and abstract-only
cases.
Distributions are the runtime's forms over abstract parameters plus
``ADUnk(S)``/``ATopD``, and the delayed-sampling nodes are ``ds``'s plus
``ATopN``.  Joins recurse through matching heads, collapse mismatches to
``AEUnk`` over the free variables of both sides, widen scalar expressions
deeper than ``DEPTH_LIMIT``, and (inside fold fixpoints) widen ``AEUnk``
sets with ``SET_LIMIT`` or more variables to ``ATopE``.

``AbsState`` is ``sym.SymState`` over this domain, the state the ``ssi``
and ``ds`` backends run over during the analysis: its entries, copies,
evaluation and parents are the runtime's.  It adds only the analysis's
shared id counter, sites and labels, widening as distributions are
stored, and the abstract side of the domain hooks: ``ALGEBRA`` for the
conjugacy rules, ``fv_distr`` (which knows ``ADUnk``), ``deps`` (which
adds the delayed-sampling node edges), realized values that are some
constant, a cast that fails, a forced sample (``sym.DSampledDelta``), an
observation and a forced value that stays unknown (``unreduced``) that
are each some constant, and ``give_up``, which over-approximates with
``set_top``.
"""

from __future__ import annotations

from .ds import InitN, MargN, MargRootN, RealizedN
from .lang import Annotation, immutable
from .sym import (
    _CMP,
    CONTAINERS,
    Algebra,
    DDelta,
    DMixIte,
    DSampledDelta,
    Distr,
    Entry,
    SymState,
    VCmp,
    VConst,
    VIte,
    VLst,
    VRV,
    VTup,
    Val,
    _List,
    _Node,
    _union,
    add,
    children,
    distr_params,
    div,
    free_vars,
    map_params,
    mul,
    rebuild,
    sub,
    t_scale,
)

DEPTH_LIMIT = 5
SET_LIMIT = 4


class AnalysisFail(Exception):
    """Aborts the interpretation: some execution may cast a symbolic variable."""

    def __init__(self, witnesses: list[tuple[str, str]]):
        super().__init__(f"plan unsatisfiable: {witnesses}")
        self.witnesses = witnesses


# Abstract-only values; the others are ``sym``'s ``VConst`` .. ``VLst``.


@immutable
class AUnkC(Val):
    """Some constant."""


@immutable
class ATopE(Val):
    """Any expression."""


@immutable
class AEUnk(_Node):
    """Some expression over the variables ``fv``."""

    fv: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_fv", tuple(sorted(self.fv)))


@immutable
class ALst(_List):
    """A list of known leading ``items`` and an unknown suffix over the
    variables ``tail``."""

    items: tuple[Val, ...]
    tail: frozenset[int]

    def __post_init__(self) -> None:
        fv = _union([free_vars(i) for i in self.items] + [tuple(sorted(self.tail))])
        object.__setattr__(self, "_fv", fv)

    def with_items(self, items: tuple[Val, ...]) -> "ALst":
        return ALst(items, self.tail)


UNK = AUnkC()
TOP_E = ATopE()


# Abstract-only distributions; the others are ``sym``'s ``DNormal`` ...
# ``DMixIte`` with abstract parameters.


@immutable
class ADUnk(Distr):
    fv: frozenset[int]
    unknown = True


@immutable
class ATopD(Distr):
    unknown = True


TOP_D = ATopD()


# The delayed-sampling node lattice: ``ds``'s nodes and a top.


@immutable
class ATopN:
    children: frozenset[int]

    def with_children(self, children: frozenset[int]) -> "ATopN":
        return ATopN(children)


AbsNode = MargRootN | MargN | InitN | RealizedN | ATopN


# --- the smart constructors (reached only through ``ALGEBRA``) ---


def _is_constish(v: Val) -> bool:
    return isinstance(v, (VConst, AUnkC))


def _some_constant(c: Val) -> bool:
    """A guard that is some constant: it selects neither branch."""
    return _is_constish(c) or (isinstance(c, AEUnk) and not c.fv)


def _abstract(cls, make, l: Val, r: Val) -> Val:
    """The abstract node step of ``sym``'s arithmetic constructors: a top
    operand gives top, two constant-like ones some constant, and any other
    pair a plain node, not interned, so an analysis leaves nothing in
    ``sym``'s intern table."""
    if isinstance(l, ATopE) or isinstance(r, ATopE):
        return TOP_E
    if _is_constish(l) and _is_constish(r):
        return UNK
    return cls(l, r)


def aadd(l: Val, r: Val) -> Val:
    return add(l, r, _abstract)


def asub(l: Val, r: Val) -> Val:
    return sub(l, r, _abstract)


def amul(l: Val, r: Val) -> Val:
    return mul(l, r, _abstract)


def adiv(l: Val, r: Val) -> Val:
    if isinstance(r, VConst) and r.v == 0:
        return UNK  # a concrete run would fail; keep the analysis total
    return div(l, r, _abstract)


def acmp(op: str, l: Val, r: Val) -> Val:
    if isinstance(l, ATopE) or isinstance(r, ATopE):
        return TOP_E
    if isinstance(l, VConst) and isinstance(r, VConst):
        return VConst(_CMP[op](l.v, r.v))
    if _is_constish(l) and _is_constish(r):
        return UNK
    return VCmp(op, l, r)


def aite(c: Val, t: Val, o: Val) -> Val:
    # ite over equal abstract branches must not collapse: the branches
    # stand for possibly-different concrete values, and dropping the
    # guard would hide its variables from the forcing analysis.
    if isinstance(c, VConst):
        return t if c.v else o
    if isinstance(c, ATopE):
        return TOP_E
    if _some_constant(c):
        return join_expr(t, o)
    return VIte(c, t, o)


# --- free variables, substitution, depth ---


def fv(v: Val) -> frozenset[int]:
    """``sym.free_vars`` as a set."""
    return frozenset(free_vars(v))


def fv_distr(d: Distr) -> frozenset[int]:
    if isinstance(d, ADUnk):
        return d.fv
    out: frozenset[int] = frozenset()
    for p in distr_params(d):
        out |= fv(p)
    return out


def contains_top(v: Val) -> bool:
    return isinstance(v, ATopE) or (isinstance(v, _Node) and any(map(contains_top, children(v))))


def distr_contains_top(d: Distr) -> bool:
    return isinstance(d, ATopD) or any(contains_top(p) for p in distr_params(d))


def rv_free(v: Val) -> bool:
    """No random variables can hide inside: constant-valued territory."""
    return not free_vars(v) and not contains_top(v)


def map_vars(v: Val, rv, rids) -> Val:
    """``v`` rebuilt by ``ALGEBRA`` with each variable ``r`` replaced by
    ``rv(r)`` (kept where that is None), and the variable set of each
    unknown expression and unknown list suffix mapped by ``rids``.
    Substitution, renaming and evaluation all walk through here."""
    match v:
        case VRV(r):
            out = rv(r)
            return v if out is None else out
        case AEUnk(s):
            return AEUnk(rids(s))
        case ALst(items, tail):
            return ALst(tuple(map_vars(i, rv, rids) for i in items), rids(tail))
    return rebuild(v, [map_vars(k, rv, rids) for k in children(v)], ALGEBRA)


def map_vars_distr(d: Distr, rv, rids) -> Distr:
    """``map_vars`` over each parameter of ``d``; the variable set of an
    unknown distribution is mapped by ``rids``."""
    if isinstance(d, ADUnk):
        return ADUnk(rids(d.fv))
    return map_params(d, lambda v: map_vars(v, rv, rids))


def subst(v: Val, rid: int, replacement: Val) -> Val:
    return map_vars(v, lambda r: replacement if r == rid else None, lambda s: s - {rid})


# The abstract instance of the smart constructors and of the conjugacy
# rules' value operations.  Division is total already; a top anywhere may
# hide any variable.
ALGEBRA = Algebra(
    add=aadd, sub=asub, mul=amul, div=adiv, cmp=acmp, ite=aite, div_total=adiv,
    has_top=contains_top, subst_rv=subst, t_scale=lambda a, b: t_scale(a, b) or UNK,
)


def scalar_depth(v: Val) -> int:
    """Depth of the scalar expression tree; containers reset the count."""
    if isinstance(v, CONTAINERS):
        return 0
    kids = children(v)
    return 1 + max(map(scalar_depth, kids)) if kids else 0


def widen(v: Val) -> Val:
    """Collapse scalar trees deeper than DEPTH_LIMIT to ``AEUnk``/``ATopE``."""
    if isinstance(v, CONTAINERS):
        return rebuild(v, [widen(i) for i in children(v)], ALGEBRA)
    if scalar_depth(v) > DEPTH_LIMIT:
        return TOP_E if contains_top(v) else AEUnk(fv(v))
    return v


def widen_sets(v: Val) -> Val:
    """Fold-fixpoint widening: large ``AEUnk`` variable sets become ``ATopE``."""
    match v:
        case AEUnk(s) | ALst(_, s) if len(s) >= SET_LIMIT:
            return TOP_E
    return rebuild(v, [widen_sets(k) for k in children(v)], ALGEBRA)


def widen_distr(d: Distr) -> Distr:
    return map_params(d, widen)


# --- partial order ---


def _same_head(a: Val, b: Val) -> bool:
    """Two compound values of one kind: the same node class (and a
    comparison's operator) with as many children.  A list with an unknown
    suffix has no head to match."""
    if type(a) is not type(b) or not isinstance(a, _Node) or isinstance(a, (AEUnk, ALst)):
        return False
    if isinstance(a, VCmp) and a.op != b.op:
        return False
    return len(children(a)) == len(children(b))


def leq_expr(a: Val, b: Val) -> bool:
    """Implemented preorder on abstract expressions."""
    if a == b:
        return True
    if isinstance(b, ATopE):
        return True
    if isinstance(a, ATopE):
        return False
    match a, b:
        case (_, AUnkC() | VRV(_)) if not isinstance(a, CONTAINERS) and rv_free(a):
            # a scalar free of variables and tops stands for a constant
            return True
        case (VRV(rid), AEUnk(s)):
            return rid in s
        case (AEUnk(s1), AEUnk(s2)):
            return s1 <= s2
        case (_, AEUnk(s)):
            return not isinstance(a, CONTAINERS) and fv(a) <= s and not contains_top(a)
    if _same_head(a, b):
        return all(leq_expr(x, y) for x, y in zip(children(a), children(b)))
    return False


# --- join ---


def join_expr(a: Val, b: Val) -> Val:
    if a == b:
        return a
    if isinstance(a, ATopE) or isinstance(b, ATopE):
        return TOP_E
    match a, b:
        case (VConst(x), VConst(y)):
            return a if x == y else UNK
        case (VConst(_) | AUnkC(), AUnkC()) | (AUnkC(), VConst(_)):
            return UNK
        case (VRV(r1), VRV(r2)):
            return a if r1 == r2 else AEUnk(frozenset((r1, r2)))
        case (VRV(_), VConst(_) | AUnkC()):
            return a
        case (VConst(_) | AUnkC(), VRV(_)):
            return b
        case (AEUnk(s1), AEUnk(s2)):
            return AEUnk(s1 | s2)
        case (AEUnk(s), _):
            return TOP_E if contains_top(b) else AEUnk(s | fv(b))
        case (_, AEUnk(s)):
            return TOP_E if contains_top(a) else AEUnk(s | fv(a))
        case (_List(), _List()):
            return _join_lists(a, b)
    if _same_head(a, b):
        out = rebuild(a, [join_expr(x, y) for x, y in zip(children(a), children(b))], ALGEBRA)
        return out if isinstance(a, VTup) else widen(out)
    if contains_top(a) or contains_top(b):
        return TOP_E
    return AEUnk(fv(a) | fv(b))


def suffix_vars(v: _List) -> frozenset[int]:
    """The variables of a list's unknown suffix; none for a known list."""
    return v.tail if isinstance(v, ALst) else frozenset()


def _join_lists(a: _List, b: _List) -> Val:
    if isinstance(a, VLst) and isinstance(b, VLst) and len(a.items) == len(b.items):
        return VLst(tuple(join_expr(x, y) for x, y in zip(a.items, b.items)))
    n = min(len(a.items), len(b.items), DEPTH_LIMIT)
    prefix = tuple(join_expr(x, y) for x, y in zip(a.items[:n], b.items[:n]))
    rest = suffix_vars(a) | suffix_vars(b)
    for leftover in (a.items[n:], b.items[n:]):
        for item in leftover:
            rest |= fv(item)
    return ALst(prefix, rest)


def join_distr(a: Distr, b: Distr) -> Distr:
    if a == b:
        return a
    if isinstance(a, ATopD) or isinstance(b, ATopD):
        return TOP_D
    match a, b:
        case (ADUnk(s1), ADUnk(s2)):
            return ADUnk(s1 | s2)
        case (ADUnk(s), _):
            return TOP_D if distr_contains_top(b) else ADUnk(s | fv_distr(b))
        case (_, ADUnk(s)):
            return TOP_D if distr_contains_top(a) else ADUnk(s | fv_distr(a))
        case (DDelta(v1), DSampledDelta(v2)) | (DSampledDelta(v1), DDelta(v2)):
            return DSampledDelta(join_expr(v1, v2))
    if type(a) is type(b) and not isinstance(a, DMixIte):
        return type(a)(*[join_expr(x, y) for x, y in zip(distr_params(a), distr_params(b))])
    if distr_contains_top(a) or distr_contains_top(b):
        return TOP_D
    return ADUnk(fv_distr(a) | fv_distr(b))


def widen_sets_distr(d: Distr) -> Distr:
    if isinstance(d, ADUnk) and len(d.fv) >= SET_LIMIT:
        return TOP_D
    return map_params(d, widen_sets)


# --- abstract state ---


ANN_ORDER = {Annotation.NONE: 0, Annotation.SAMPLE: 1, Annotation.SYMBOLIC: 2}


def join_ann(a: Annotation, b: Annotation) -> Annotation:
    return a if ANN_ORDER[a] >= ANN_ORDER[b] else b


class AbsState(SymState):
    """The runtime's particle state over the abstract domain.

    Ids are drawn from one counter shared by every state of one analysis,
    so "ascending id" orderings are meaningful and two branches never reuse
    an id.  Each id remembers its declaration site (for the rename
    alignment fallback) and its label, for witnesses.  Copies share the
    counter, the sites and the labels.

    The rest is ``SymState``'s, with this domain's hooks: a stored
    distribution is widened, a variable is realized when its delta is on
    some constant, a forced sample or an observation is some constant, a
    cast is a failure, and where the runtime would raise on a broken
    invariant the state gives up by over-approximating: it keeps no
    generator and no cast log.
    """

    __slots__ = ("counter", "sites", "labels")
    _shared = __slots__

    alg = ALGEBRA  # the smart constructors, and the rules' value operations
    distr_fv = staticmethod(fv_distr)

    def __init__(self, counter: list[int] | None = None,
                 sites: dict[int, str] | None = None,
                 labels: dict[int, str] | None = None):
        self.entries: dict[int, Entry] = {}
        self.counter = counter if counter is not None else [0]
        self.sites = sites if sites is not None else {}
        self.labels = labels if labels is not None else {}

    def fresh(self, ann: Annotation, distr: Distr, node: AbsNode | None = None,
              label: str = "", site: str = "") -> int:
        rid = self.counter[0]
        self.counter[0] += 1
        self.entries[rid] = Entry(ann, widen_distr(distr), node)
        self.sites[rid] = site
        self.labels[rid] = label or site
        return rid

    def set_distr(self, rid: int, d: Distr, node: AbsNode | None = None) -> None:
        super().set_distr(rid, widen_distr(d), node)

    def deps(self, rid: int) -> frozenset[int]:
        """The variables of the stored distribution and the node's edges."""
        entry = self.entries[rid]
        return fv_distr(entry.distr) | node_fv(entry.node)

    def realized_value(self, rid: int) -> Val | None:
        entry = self.entries.get(rid)
        if entry is not None and isinstance(entry.distr, DDelta) and rv_free(entry.distr.v):
            return entry.distr.v
        return None

    def witness(self, rid: int) -> tuple[str, str]:
        return (self.sites.get(rid, "?"), self.labels.get(rid, str(rid)))

    # --- the backends' domain hooks ---

    def cast(self, rid: int) -> None:
        raise AnalysisFail([self.witness(rid)])

    def forced(self, rid: int) -> tuple[Distr, Val]:
        return DSampledDelta(UNK), UNK

    def observed(self, rid: int, value: Val) -> tuple[float, Distr]:
        return 0.0, DDelta(value if rv_free(value) else UNK)

    def give_up(self, rids: list[int], why: str) -> None:
        """Over-approximate ``rids`` where the runtime would raise ``why``.
        A realized variable cannot be widened back: that is a failure."""
        for r in rids:
            if isinstance(self.node(r), RealizedN):
                raise AnalysisFail([self.witness(r)])
            set_top(self, r)

    def unreduced(self, v: Val) -> Val:
        return UNK

    # --- evaluation: the cases of the abstract-only forms ---

    def _live(self, rids: frozenset[int]) -> frozenset[int]:
        return frozenset(r for r in rids if self.realized_value(r) is None)

    def _touches_realized(self, v: Val) -> bool:
        return any(self.realized_value(r) is not None for r in free_vars(v))

    def eval_value(self, v: Val, _memo: dict | None = None) -> Val:
        if isinstance(v, (AEUnk, ALst)):
            return map_vars(v, self.realized_value, self._live)
        return super().eval_value(v, _memo)

    def eval_distr(self, d: Distr) -> Distr:
        """``SymState.eval_distr``; besides, a mixture whose guard is some
        constant is the join of its branches."""
        if isinstance(d, ADUnk):
            return ADUnk(self._live(d.fv))
        d = super().eval_distr(d)
        if isinstance(d, DMixIte) and _some_constant(d.cond):
            return join_distr(d.then, d.orelse)
        return d


def set_top(g: AbsState, *rids: int, nodes_only: bool = False) -> None:
    """Over-approximate variables to the top elements, and what they touch:
    the variables they depend on and their marginalized children.  With
    ``nodes_only``, only delayed-sampling nodes go to top, and the spread
    stops at a variable without a node or with a top one.

    Fails if any touched variable carries a symbolic annotation.
    """
    worklist = list(rids)
    seen: set[int] = set()
    while worklist:
        r = worklist.pop()
        if r in seen or r not in g.entries:
            continue
        seen.add(r)
        entry = g.entries[r]
        if entry.ann is Annotation.SYMBOLIC:
            raise AnalysisFail([g.witness(r)])
        node = entry.node
        if nodes_only and (node is None or isinstance(node, ATopN)):
            continue
        if not nodes_only:
            worklist.extend(fv_distr(entry.distr))
        worklist.extend(node_fv(node))
        if node is not None:
            for c in node.children:
                ce = g.entries.get(c)
                if ce is not None and isinstance(ce.node, MargN):
                    worklist.append(c)
            g.set_node(r, ATopN(node.children))
        if not nodes_only:
            g.set_distr(r, TOP_D)


def node_fv(node: AbsNode | None) -> frozenset[int]:
    match node:
        case MargN(parent, prior, _):
            return frozenset((parent,)) | fv_distr(prior)
        case InitN(parent, _):
            return frozenset((parent,))
        case _:
            return frozenset()


# --- delayed-sampling node join ---


def join_node(a: AbsNode | None, b: AbsNode | None, escalate: list[int]) -> AbsNode | None:
    """Join per the node lattice; mismatches become TopN and are queued for
    escalation (parents and marginalized children must be topped too)."""
    if a == b:
        return a
    if a is None or b is None:
        return a if b is None else b
    match a, b:
        case (MargRootN(c1), MargRootN(c2)):
            return MargRootN(c1 | c2)
        case (InitN(p1, c1), InitN(p2, c2)) if p1 == p2:
            return InitN(p1, c1 | c2)
        case (MargN(p1, d1, c1), MargN(p2, d2, c2)) if p1 == p2:
            return MargN(p1, join_distr(d1, d2), c1 | c2)
        case (ATopN(c1), ATopN(c2)):
            return ATopN(c1 | c2)
        case (RealizedN(), ATopN(c)) | (ATopN(c), RealizedN()):
            return ATopN(c)
        case (ATopN(c1), other) | (other, ATopN(c1)):
            escalate.extend(node_fv(other))
            return ATopN(c1 | other.children)
    escalate.extend(node_fv(a))
    escalate.extend(node_fv(b))
    return ATopN(a.children | b.children)


def join_states(g1: AbsState, g2: AbsState, in_fold: bool,
                sigma: dict[int, int] | None = None) -> AbsState:
    """A copy of g1 with each of g2's entries joined in under its id
    renamed by ``sigma``: one pass and one set of rules for g1/g2 pairs
    and for g2's entries that ``sigma`` merges onto one id.  Each side is
    read evaluated in its own state (g2's before renaming).  Fails at the
    first symbolic variable whose node the join tops, then at any that
    ``set_top`` reaches from the topped nodes' edges."""
    out = g1.copy()
    escalate: list[int] = []
    topped: list[int] = []
    renaming = _renaming(sigma) if sigma else None
    for rid, e2 in g2.entries.items():
        if renaming:
            rid = sigma.get(rid, rid)
            d2 = _drop_self(map_vars_distr(g2.eval_distr(e2.distr), *renaming), rid)
            e2 = Entry(e2.ann, d2, rename_node(e2.node, sigma))
        e1 = out.entries.setdefault(rid, e2)
        if e1 is e2 or e1 == e2:  # a fresh id, or an unchanged entry
            continue
        d1 = g1.eval_distr(e1.distr) if g1.entries.get(rid) is e1 else e1.distr
        d = join_distr(d1, e2.distr if renaming else g2.eval_distr(e2.distr))
        if e1.distr != e2.distr:
            _check_joined_entry(out, d)
        d = widen_distr(d)
        if in_fold:
            d = widen_sets_distr(d)
        local: list[int] = []
        node = join_node(e1.node, e2.node, local)
        if local or (isinstance(node, ATopN) and not isinstance(e1.node, ATopN)):
            topped.append(rid)
            escalate.extend(local)
        out.entries[rid] = Entry(join_ann(e1.ann, e2.ann), d, node)
    set_top(out, *escalate, *reversed(topped), nodes_only=True)
    return out


# --- rename-join ---


def _align(a: Val, b: Val, sigma: dict[int, int], taken: set[int]) -> None:
    """Structural lockstep walk recording which of b's variables should be
    renamed onto a's variables."""
    if isinstance(a, VRV) and isinstance(b, VRV):
        x, y = a.rid, b.rid
        if x != y and y not in sigma and x not in taken:
            sigma[y] = x
            taken.add(x)
    elif (type(a) is type(b) and not (isinstance(a, VCmp) and a.op != b.op)
          or isinstance(a, _List) and isinstance(b, _List)):
        for x, y in zip(children(a), children(b)):
            _align(x, y, sigma, taken)


def build_sigma(e1: Val, e2: Val, g1: AbsState, g2: AbsState) -> dict[int, int]:
    """Renaming of g2's variables that maximizes structural agreement.

    A structural pass aligns same-position variables; a fallback pass then
    pairs leftover variables that came from the same declaration site.
    """
    sigma: dict[int, int] = {}
    taken: set[int] = set()
    _align(e1, e2, sigma, taken)
    by_site: dict[str, list[int]] = {}
    for r in free_vars(e1):
        if r not in taken:
            by_site.setdefault(g1.sites.get(r, "?"), []).append(r)
    leftover2: dict[str, list[int]] = {}
    for r in free_vars(e2):
        if r not in sigma and r not in taken:
            leftover2.setdefault(g2.sites.get(r, "?"), []).append(r)
    for site, sources in leftover2.items():
        targets = by_site.get(site, [])
        # variables present on both sides keep their name and do not
        # consume an alignment target
        spare = [s for s in sources if s not in targets]
        for y, x in zip(spare, targets):
            if x != y and y not in sigma and x not in taken:
                sigma[y] = x
                taken.add(x)
    return {k: v for k, v in sigma.items() if k != v}


def _rename(rids: frozenset[int], sigma: dict[int, int]) -> frozenset[int]:
    return frozenset(sigma.get(r, r) for r in rids)


def _renaming(sigma: dict[int, int]):
    """The ``map_vars`` arguments of a renaming."""
    return (lambda r: VRV(sigma[r]) if r in sigma else None), (lambda s: _rename(s, sigma))


def rename_node(node: AbsNode | None, sigma: dict[int, int]) -> AbsNode | None:
    if node is None or not sigma:
        return node
    match node:
        case MargRootN(c):
            return MargRootN(_rename(c, sigma))
        case MargN(p, d, c):
            return MargN(sigma.get(p, p), map_vars_distr(d, *_renaming(sigma)), _rename(c, sigma))
        case InitN(p, c):
            return InitN(sigma.get(p, p), _rename(c, sigma))
        case RealizedN():
            return node
        case ATopN(c):
            return ATopN(_rename(c, sigma))
    raise TypeError(node)


def _drop_self(d: Distr, rid: int) -> Distr:
    """A merged variable may not condition on itself; the lost dependence
    degrades to an unknown constant."""
    if rid in fv_distr(d):
        return map_vars_distr(d, lambda r: UNK if r == rid else None, lambda s: s - {rid})
    return d


def _param_unknown_sets(d: Distr):
    if isinstance(d, ADUnk):
        yield d.fv
        return
    for p in distr_params(d):
        yield from _expr_unknown_sets(p)


def _expr_unknown_sets(v: Val):
    if isinstance(v, AEUnk):
        yield v.fv
    for k in children(v):
        yield from _expr_unknown_sets(k)


def _check_joined_entry(g: AbsState, d: Distr) -> None:
    """A join that degrades a parameter to an unknown expression over a
    live symbolic variable hides a conjugacy the runtime may depend on;
    reject conservatively (mirrors the syntactic-join precision loss)."""
    for s in _param_unknown_sets(d):
        for rid in s:
            entry = g.entries.get(rid)
            if entry is not None and entry.ann is Annotation.SYMBOLIC \
                    and g.realized_value(rid) is None:
                raise AnalysisFail([g.witness(rid)])


def rename_join(e1: Val, e2: Val, g1: AbsState, g2: AbsState,
                in_fold: bool = False) -> tuple[Val, AbsState]:
    """Align g2's fresh variables with g1's (``build_sigma``), then take
    least upper bounds: of the values, and of the states in one
    ``join_states`` pass that renames g2's entries as it joins them."""
    sigma = build_sigma(e1, e2, g1, g2)
    joined = widen(join_expr(e1, map_vars(e2, *_renaming(sigma)) if sigma else e2))
    if in_fold:
        joined = widen_sets(joined)
    return joined, join_states(g1, g2, in_fold, sigma)
