"""Particle evaluation with resample checkpoints, particle sets, mixtures.

Evaluation follows big-step rules under an environment: a particle runs
until it terminates with a value or pauses at a ``resample`` with a
residual expression.  A call starts from a fresh environment holding only
its parameters (functions are first-order and closed), and ``let`` extends
a copy of its frame's environment.  Substitution happens only when a
particle pauses: each enclosing ``let`` substitutes its environment into
the rest of its body, so the residual a particle keeps is a closed
expression that resampled copies can share.  Sequencing positions (``let``
bodies, fold steps) are iterated rather than recursed so long folds do not
grow the Python stack.

List elements are evaluated only where they are used (``cons`` evaluates
its head, ``hd`` the element it returns, a fold each element as it is
consumed), so the cost of one step does not grow with the lists a model
carries along.

Copies of one state share work that draws nothing: a resampled copy whose
twin, the first copy of the same parent, has taken its step without a draw
adopts that result, and reuses the twin's output tree on the same terms.

``Evaluator._run`` is the package's only evaluation loop: the analysis
(``analysis.AbsInterp``) runs it over abstract values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .checker import impure_functions, is_pure
from .interface import Backend, CastLog, distribution, value_star
from .lang import (
    Annotation,
    ECall,
    EConst,
    EFold,
    EFoldRest,
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
    Pattern,
    Program,
    PTuple,
    PUnit,
    PVar,
    PWild,
    children,
    pattern_vars,
    rebuild,
)
from .parser import print_pattern
from .sym import (
    CONTAINERS,
    FALSE,
    TRUE,
    UNIT,
    Distr,
    EvalError,
    SymState,
    VConst,
    VLst,
    VRV,
    VTup,
    Val,
    free_vars,
    make_dist,
    moments,
    reset_intern,
    shape,
)


LIST_OPS = frozenset({"cons", "hd", "tl", "rev", "len", "range"})
MAX_ROUNDS = 100000  # resample rounds before ``run_model`` gives up


class DegenerateWeights(Exception):
    """Every particle's weight collapsed to zero."""


def subst(e: Expr, bindings: dict[str, Val]) -> Expr:
    """``e`` with its free variables in ``bindings`` replaced by values.

    The evaluator uses it only to close ``main`` over ``data`` and a paused
    residual over the environments of its enclosing frames.
    """
    if not bindings:
        return e
    match e:
        case EVar(name):
            return EVal(bindings[name]) if name in bindings else e
        case ELet(pat, bound, body):
            inner = {k: v for k, v in bindings.items() if k not in pattern_vars(pat)}
            return ELet(pat, subst(bound, bindings), subst(body, inner))
        case ELetRV(ann, name, dist, args, body, site):
            inner = {k: v for k, v in bindings.items() if k != name}
            return ELetRV(ann, name, dist, tuple(map(subst, args, repeat(bindings))),
                          subst(body, inner), site=site)
    return rebuild(e, tuple(map(subst, children(e), repeat(bindings))))


def pattern_mismatch(pat: PTuple, v: Val) -> str:
    """The error for a tuple pattern that does not bind ``v``: the pattern
    in source syntax and the shape of the value."""
    return f"pattern arity mismatch: {print_pattern(pat)} does not match {shape(v)}"


def match_pattern(pat: Pattern, v: Val) -> dict[str, Val]:
    match pat:
        case PVar(name):
            return {name: v}
        case PWild() | PUnit():
            return {}
        case PTuple(items):
            if not isinstance(v, VTup) or len(v.items) != len(items):
                raise EvalError(pattern_mismatch(pat, v))
            out: dict[str, Val] = {}
            for q, x in zip(items, v.items):
                out.update(match_pattern(q, x))
            return out
    raise TypeError(pat)


def _as_list(v: Val, g: SymState, error: str) -> VLst:
    """``v`` as a list, evaluating it only when it is not one already."""
    if not isinstance(v, VLst):
        v = g.eval_value(v)
        if not isinstance(v, VLst):
            raise EvalError(error)
    return v


def _copy_state(g: SymState, rng: np.random.Generator | FirstDrawRng) -> SymState:
    """A copy of ``g`` with generator ``rng`` and its own copy of the cast log."""
    state = g.copy()
    state.rng = rng
    casts = state.casts = CastLog(g.casts.strict)
    casts.events = list(g.casts.events)
    return state


@dataclass
class Particle:
    cont: Expr
    state: SymState  # holds the particle's generator and cast log
    logw: float
    flag: bool
    checkpoint: int | None = None  # site of the resample that paused us
    value: Val | None = None
    # the first copy of this particle's parent in this round, whose step
    # this particle takes over if that step drew nothing
    twin: Particle | None = field(default=None, repr=False, compare=False)

    def copy_for_resample(self, rng: np.random.Generator | FirstDrawRng) -> "Particle":
        """An unpaused child with its own state, generator ``rng`` and copy
        of the cast log."""
        return Particle(self.cont, _copy_state(self.state, rng), 0.0, False,
                        self.checkpoint, self.value)

    def adopt(self, twin: "Particle") -> None:
        """Take ``twin``'s result of a step that drew nothing, keeping this
        particle's own generator."""
        self.state = _copy_state(twin.state, self.state.rng)
        self.cont, self.logw, self.flag = twin.cont, twin.logw, twin.flag
        self.checkpoint, self.value = twin.checkpoint, twin.value


class Evaluator:
    """Evaluates particles of one program under one backend.

    Both domains (concrete here, abstract in ``analysis.AbsInterp``) build
    ``sym``'s value nodes, through the smart constructors of the particle
    state's ``alg``.  A domain supplies its pattern binding (``bind``), its
    list operators and the hooks below, which sit only at nodes that call
    out anyway: ``if``, ``observe``, ``fold``, ``map`` and ``resample``.
    """

    bind = staticmethod(match_pattern)

    def __init__(self, program: Program, backend: Backend):
        self.program = program
        self.backend = backend
        self.impure = impure_functions(program)

    # --- domain hooks ---

    def _list_op(self, op: str, args: list[Val], p: Particle) -> Val:
        g = p.state
        match op:
            case "cons":
                head = g.eval_value(args[0])
                return VLst((head,) + _as_list(args[1], g, "cons onto a non-list").items)
            case "hd":
                items = _as_list(args[0], g, "hd of an empty or non-list value").items
                if not items:
                    raise EvalError("hd of an empty or non-list value")
                return g.eval_value(items[0])
            case "tl":
                items = _as_list(args[0], g, "tl of an empty or non-list value").items
                if not items:
                    raise EvalError("tl of an empty or non-list value")
                return VLst(items[1:])
            case "rev":
                return VLst(tuple(reversed(_as_list(args[0], g, "rev of a non-list value").items)))
            case "len":
                return VConst(float(len(_as_list(args[0], g, "len of a non-list value").items)))
        lo, hi = (g.eval_value(x) for x in args)  # range
        if not (isinstance(lo, VConst) and isinstance(hi, VConst)):
            raise EvalError("range bounds must be constants")
        return VLst(tuple(VConst(float(i)) for i in range(int(lo.v), int(hi.v))))

    def _observe(self, rid: int, c: VConst, p: Particle) -> None:
        p.logw += self.backend.observe(rid, c.v, p.state)

    def _resample(self, site: int, p: Particle):
        p.checkpoint = site
        return EVal(UNIT), True

    def _map_items(self, lst: Val, p: Particle) -> tuple[Val, ...]:
        if not isinstance(lst, VLst):
            raise EvalError("map over a non-list value")
        return lst.items

    def _fold(self, fname: str, lst: Val, init: Val, p: Particle):
        if not isinstance(lst, VLst):
            raise EvalError("fold over a non-list value")
        return self._fold_from(fname, lst.items, 0, init, p)

    # --- shared steps ---

    def _eval_op(self, op: str, args: list[Val], p: Particle) -> Val:
        if op in LIST_OPS:
            return self._list_op(op, args, p)
        g = p.state
        a = [g.eval_value(x) for x in args]
        alg = g.alg
        match op:
            case "+":
                return alg.add(a[0], a[1])
            case "-":
                return alg.sub(a[0], a[1])
            case "*":
                return alg.mul(a[0], a[1])
            case "/":
                return alg.div(a[0], a[1])
            case "=" | "!=" | "<" | "<=":
                return alg.cmp(op, a[0], a[1])
            case "not":
                return alg.ite(a[0], FALSE, TRUE)
        raise EvalError(f"unknown operator {op}")

    def _apply_map(self, fname: str, lst: Val, p: Particle) -> Val:
        f = self.program.function(fname)
        out = []
        for el in self._map_items(lst, p):
            r, interrupted = self._run(f.body, self.bind(f.param, el), p)
            if interrupted:
                raise EvalError("resample inside map is not supported")
            out.append(r)
        return VLst(tuple(out))

    def _fold_from(self, fname: str, items: tuple[Val, ...], pos: int, acc: Val, p: Particle):
        """Runs the steps of a fold from ``items[pos]`` on; like ``_run``."""
        f = self.program.function(fname)
        for pos in range(pos, len(items)):
            head = p.state.eval_value(items[pos])
            acc, interrupted = self._run(f.body, self.bind(f.param, VTup((head, acc))), p)
            if interrupted:
                return EFoldRest(fname, items, pos + 1, acc), True
        return acc, False

    # --- particle evaluation ---

    def eval_particle(self, p: Particle) -> None:
        """Run until the next checkpoint or termination.

        A particle whose twin has taken this step without a draw adopts
        the twin's result instead: both started from equal states, so the
        step would repeat the twin's.  Otherwise the twin is dropped.
        """
        if p.flag:
            raise EvalError("particle already paused")
        twin = p.twin
        if (twin is not None and (twin.flag or twin.value is not None)
                and not twin.state.rng.drawn):
            p.adopt(twin)
            return
        p.twin = None
        r, interrupted = self._run(p.cont, {}, p)
        if interrupted:
            p.cont = r
            p.flag = True
        else:
            p.value = r
            p.cont = EVal(r)
            p.flag = False

    def _run(self, e: Expr, env: dict[str, Val], p: Particle):
        """Evaluates ``e`` under ``env``.

        Returns ``(value, False)``, or ``(residual_expr, True)`` when the
        particle pauses at a ``resample``.  A residual is closed: each frame
        substitutes its own environment into what it returns.  ``env`` is
        never mutated, since an enclosing frame may still read it.
        """
        while True:
            match e:
                case EVal(v):
                    return v, False
                case EConst(c):
                    return VConst(c), False
                case EVar(name):
                    try:
                        return env[name], False
                    except KeyError:
                        raise EvalError(f"unbound variable {name}") from None
                case ETuple(items):
                    vals = []
                    for x in items:
                        v, interrupted = self._run(x, env, p)
                        if interrupted:
                            raise EvalError("resample in tuple position")
                        vals.append(v)
                    return VTup(tuple(vals)), False
                case EList(items):
                    vals = []
                    for x in items:
                        v, _ = self._run(x, env, p)
                        vals.append(v)
                    return VLst(tuple(vals)), False
                case EOp("map", (EVar(fname), lst_e)):
                    lst, _ = self._run(lst_e, env, p)
                    return self._apply_map(fname, lst, p), False
                case EOp(op, args):
                    vals = []
                    for x in args:
                        v, _ = self._run(x, env, p)
                        vals.append(v)
                    return self._eval_op(op, vals, p), False
                case ECall(fname, arg):
                    v, _ = self._run(arg, env, p)
                    f = self.program.function(fname)
                    e, env = f.body, self.bind(f.param, v)
                case EIf(ce, te, oe):
                    cv, _ = self._run(ce, env, p)
                    cv = p.state.eval_value(cv)
                    if not isinstance(cv, VConst):
                        if free_vars(cv) and is_pure(te, self.impure) and is_pure(oe, self.impure):
                            tv, _ = self._run(te, env, p)
                            ov, _ = self._run(oe, env, p)
                            # a tuple or list is not selected lazily: its
                            # consumers need its shape
                            if not isinstance(tv, CONTAINERS) and not isinstance(ov, CONTAINERS):
                                return p.state.alg.ite(cv, tv, ov), False
                        cv = value_star(cv, p.state, self.backend)
                        if not isinstance(cv, VConst):  # an abstract value can stay unknown
                            return self._join_branches(te, oe, env, p), False
                    e = te if cv.v else oe
                case ELet(pat, bound, body):
                    r, interrupted = self._run(bound, env, p)
                    if interrupted:
                        names = pattern_vars(pat)
                        rest = {k: v for k, v in env.items() if k not in names}
                        return ELet(pat, r, subst(body, rest)), True
                    e, env = body, env | self.bind(pat, r)
                case ELetRV(ann, name, dist, args, body, site):
                    argv = []
                    for x in args:
                        v, _ = self._run(x, env, p)
                        argv.append(p.state.eval_value(v))
                    rid = self.backend.assume(ann, make_dist(dist, tuple(argv)), p.state,
                                              label=name, site=f"rv:{site}")
                    bound_v = (self.backend.value(rid, p.state) if ann is Annotation.SAMPLE
                               else VRV(rid))
                    e, env = body, {**env, name: bound_v}
                case EObserve(dist, args, value_e):
                    argv = []
                    for x in args:
                        v, _ = self._run(x, env, p)
                        argv.append(p.state.eval_value(v))
                    rid = self.backend.assume(Annotation.NONE, make_dist(dist, tuple(argv)),
                                              p.state, label="obs", site="obs")
                    ve, _ = self._run(value_e, env, p)
                    self._observe(rid, value_star(ve, p.state, self.backend), p)
                    return UNIT, False
                case EResample(site):
                    return self._resample(site, p)
                case EFold(fname, lst_e, init_e):
                    lst, _ = self._run(lst_e, env, p)
                    lst = p.state.eval_value(lst)
                    init, interrupted = self._run(init_e, env, p)
                    if interrupted:
                        raise EvalError("resample in fold initializer")
                    return self._fold(fname, lst, init, p)
                case EFoldRest(fname, items, pos, acc_e):
                    acc, interrupted = self._run(acc_e, env, p)
                    if interrupted:
                        return EFoldRest(fname, items, pos, acc), True
                    return self._fold_from(fname, items, pos, acc, p)
                case _:
                    raise TypeError(e)


@dataclass
class Mixture:
    """Normalized per-particle output distributions.

    Components may share one output tree, which is read-only.
    """

    components: list[tuple[float, object]]  # (weight, tree of Distr)
    casts: list[tuple[int, str]]  # semantic casts, aggregated over particles
    output_casts: int  # forcing performed only to extract output marginals


def _normalized(logws: list[float]) -> list[float]:
    m = max(logws)
    if m == -math.inf:
        raise DegenerateWeights("all particle weights are zero")
    ws = [math.exp(w - m) for w in logws]
    total = sum(ws)
    return [w / total for w in ws]


def _particle_rng(seed: int, round_idx: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(round_idx, i))))


class FirstDrawRng:
    """A particle's generator, ``_particle_rng(seed, round_idx, i)``, built
    on first use.  Building one costs more than a step of most plans, and
    after resampling many particles never draw again."""

    def __init__(self, seed: int, round_idx: int, i: int) -> None:
        self._key = (seed, round_idx, i)
        self._gen = None

    @property
    def drawn(self) -> bool:
        """Whether anything has been drawn, i.e. the generator was built."""
        return self._gen is not None

    def __getattr__(self, name: str):
        # reached only for the generator's own names; each is then bound
        # on this object, so later draws do not come back here
        if self._gen is None:
            self._gen = _particle_rng(*self._key)
        attr = getattr(self._gen, name)
        setattr(self, name, attr)
        return attr


def run_model(program: Program, n_particles: int, seed: int, backend: Backend,
              data: Val, strict_casts: bool = False) -> Mixture:
    """Evaluate ``main`` with ``n_particles`` independent particles.

    Deterministic for a fixed ``(program, n_particles, seed, backend)``.
    Copies of one state form a group: all particles in round 0, and the
    copies of one parent after each resampling.  Every copy but the first
    has the first as its ``twin``, and takes over its step and its output
    tree when these drew nothing.
    """
    reset_intern()
    ev = Evaluator(program, backend)
    main = subst(program.main, {"data": data})
    particles = [
        Particle(main, SymState(FirstDrawRng(seed, 0, i), CastLog(strict_casts)), 0.0, False)
        for i in range(n_particles)
    ]
    for p in particles[1:]:
        p.twin = particles[0]
    for round_idx in range(MAX_ROUNDS):
        for p in particles:
            if not p.flag and p.value is None:
                ev.eval_particle(p)
        if not any(p.flag for p in particles):
            break
        sites = {p.checkpoint for p in particles if p.flag}
        if len(sites) > 1:
            raise EvalError(f"particles paused at different checkpoints: {sites}")
        probs = _normalized([p.logw for p in particles])
        rng = _particle_rng(seed, round_idx, n_particles)
        counts = rng.multinomial(n_particles, probs)
        fresh: list[Particle] = []
        for p, c in zip(particles, counts):
            group = [p.copy_for_resample(FirstDrawRng(seed, round_idx + 1, len(fresh) + k))
                     for k in range(c)]
            for child in group[1:]:
                child.twin = group[0]
            fresh += group
        particles = fresh
    else:
        raise EvalError("model did not terminate within the round limit")

    probs = _normalized([p.logw for p in particles])
    components = []
    casts: list[tuple[int, str]] = []
    out_casts = 0
    shared = {}  # id of a particle -> its output tree and output casts, if extracting drew nothing
    for i, w in enumerate(probs):
        p, particles[i] = particles[i], None  # free each state once read
        casts.extend(p.state.casts.events)
        if id(p.twin) in shared:
            tree, n = shared[id(p.twin)]
        else:
            p.state.casts = CastLog()  # counts only the forcing done to extract outputs
            tree = distribution(p.value, p.state, backend)
            n = len(p.state.casts)
            if not p.state.rng.drawn:
                shared[id(p)] = tree, n
        components.append((w, tree))
        out_casts += n
    return Mixture(components, casts, out_casts)


def total_log_weight(program: Program, seed: int, backend: Backend, data: Val) -> float:
    """Accumulated log-weight of a single particle run to termination.

    Only meaningful for programs without resampling (or one particle):
    resampling resets weights.
    """
    ev = Evaluator(program, backend)
    main = subst(program.main, {"data": data})
    p = Particle(main, SymState(FirstDrawRng(seed, 0, 0), CastLog()), 0.0, False)
    total = 0.0
    for _ in range(100000):
        ev.eval_particle(p)
        total += p.logw
        if not p.flag:
            return total
        p.logw = 0.0
        p.flag = False
    raise EvalError("model did not terminate")


def mixture_moments(components: list[tuple[float, Distr]]) -> tuple[float, float]:
    """Mixture mean and variance by the law of total variance."""
    mean = 0.0
    second = 0.0
    for w, d in components:
        m, v = moments(d)
        mean += w * m
        second += w * (v + m * m)
    return mean, second - mean * mean


def select_output(tree, path: tuple):
    """Navigate a distribution tree by tuple/list indices."""
    node = tree
    for key in path:
        node = node[key]
    return node


def posterior_stats(mix: Mixture, path: tuple) -> tuple[float, float]:
    """Posterior mean/variance of one numeric output across the mixture."""
    picked = [(w, select_output(tree, path)) for w, tree in mix.components]
    return mixture_moments(picked)
