"""Particle evaluation with resample checkpoints, particle sets, mixtures.

Evaluation follows big-step rules under an environment: a particle runs
until it terminates with a value or pauses at a ``resample`` with a
residual expression.  A call starts from a fresh environment holding only
its parameters (functions are first-order and closed), and ``let`` extends
a copy of its frame's environment.  No expression is rewritten: each
``let`` enclosing a pause becomes an ``ELetK`` that captures its frame's
environment, as ``subst`` closes ``main`` over ``data``, so a paused
particle's residual is closed, and resampled copies share it and the
environments it holds, which nothing mutates.  Sequencing positions (``let``
bodies, fold steps) are iterated rather than recursed so long folds do not
grow the Python stack.  The fold is the only loop over a list: the parser
writes ``List.map(f, l)`` as ``rev(fold(__map_f, l, []))``, so a map costs
a fold step and a ``cons`` per element.  List elements are evaluated only
where they are used (``cons`` evaluates its head, ``hd`` the element it
returns, a fold each element as it is consumed), so the cost of one step
does not grow with the lists a model carries along.

Resampled copies of one parent share its unmutated state until each first
steps, and then copy it, or, when their twin (the first copy) took its step
without a draw, copy the twin's state and adopt its result and output tree.
A parent's only copy takes over the state that the parent owned.  A round's
generators are built on first draw, from seed words hashed for all at once.

``Evaluator._run`` is the package's only evaluation loop: the analysis
(``analysis.AbsInterp``) runs it over abstract values.  It tests the four
commonest forms by type before its ``match``, and reads leaves in place.
"""

from __future__ import annotations

import functools
import math

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
    ELetK,
    ELetRV,
    EObserve,
    EOp,
    EResample,
    ETuple,
    EVar,
    Expr,
    Pattern,
    Program,
    PTuple,
    PUnit,
    PVar,
    PWild,
    immutable,
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
    """``e`` closed over ``bindings`` by an environment: nothing is walked or
    rebuilt.  It closes ``main`` over ``data`` (``run_model``, and the
    analysis as ``esubst``); the name stays because perfbench's probe and
    ``analysis.esubst`` bind it."""
    return ELetK(PUnit(), EConst(None), e, bindings)


def pattern_mismatch(pat: PTuple, v: Val) -> str:
    """The error for a tuple pattern that does not bind ``v``: the pattern
    in source syntax and the shape of the value."""
    return f"pattern arity mismatch: {print_pattern(pat)} does not match {shape(v)}"


def tuple_items(pat: PTuple, v: Val) -> tuple[Val, ...]:
    """The values that the items of ``pat`` bind: those of a tuple of its arity."""
    if not isinstance(v, VTup) or len(v.items) != len(pat.items):
        raise EvalError(pattern_mismatch(pat, v))
    return v.items


def match_pattern(pat: Pattern, v: Val, items=tuple_items) -> dict[str, Val]:
    """The bindings of ``pat`` to ``v``, made left to right in one loop."""
    out: dict[str, Val] = {}
    pats, vals = [pat], [v]  # two stacks: a stack of pairs raised the peak memory
    while pats:
        pat, v = pats.pop(), vals.pop()
        if type(pat) is PVar:
            out[pat.name] = v
        elif type(pat) is PTuple:
            vals += reversed(items(pat, v))
            pats += reversed(pat.items)
        elif not isinstance(pat, (PWild, PUnit)):
            raise TypeError(pat)
    return out


def _as_list(v: Val, g: SymState, error: str) -> VLst:
    """``v`` as a list, evaluating it only when it is not one already."""
    if not isinstance(v, VLst):
        v = g.eval_value(v)
        if not isinstance(v, VLst):
            raise EvalError(error)
    return v


class Particle:
    __slots__ = ("cont", "state", "logw", "flag", "checkpoint", "value", "twin", "rng")

    def __init__(self, cont: Expr, state: SymState, logw: float, flag: bool,
                 checkpoint: int | None = None, value: Val | None = None) -> None:
        self.cont = cont  # None once the particle has terminated
        self.state = state  # holds the particle's generator and cast log
        self.logw = logw
        self.flag = flag
        self.checkpoint = checkpoint  # site of the resample that paused us
        self.value = value
        # the first copy of this particle's parent in this round, whose step
        # this particle takes over if that step drew nothing
        self.twin: Particle | None = None
        self.rng = state.rng  # our generator; a state holding another is our parent's

    def copy_for_resample(self, rng: np.random.Generator | FirstDrawRng) -> "Particle":
        """An unpaused child with generator ``rng``.  It shares this
        particle's state, which nothing mutates after resampling, until it
        takes a copy of its own (``own_state``) or its twin's (``adopt``)."""
        child = Particle(self.cont, self.state, 0.0, False, self.checkpoint, self.value)
        child.rng = rng
        return child

    def own_state(self, g: SymState | None = None) -> None:
        """Gives this particle a copy of ``g``, or of the state it still
        shares with its parent, with its own generator and cast log."""
        if g is not None or self.state.rng is not self.rng:
            g = self.state if g is None else g
            state = self.state = g.copy()
            state.rng, state.casts = self.rng, CastLog(g.casts.strict)
            state.casts.events = list(g.casts.events)

    def adopt(self, twin: "Particle") -> None:
        """Take ``twin``'s result of a step that drew nothing, keeping this
        particle's own generator."""
        self.own_state(twin.state)
        self.cont, self.logw, self.flag = twin.cont, twin.logw, twin.flag
        self.checkpoint, self.value = twin.checkpoint, twin.value


class Evaluator:
    """Evaluates particles of one program under one backend.

    Both domains (concrete here, abstract in ``analysis.AbsInterp``) build
    ``sym``'s value nodes, through the smart constructors of the particle
    state's ``alg``.  A domain supplies its pattern binding (``bind``), its
    list operators and the hooks below, which sit only at nodes that call
    out anyway: ``if``, ``observe``, ``fold`` and ``resample``.
    """

    bind = staticmethod(match_pattern)

    def __init__(self, program: Program, backend: Backend):
        self.functions = {f.name: f for f in program.functions}
        self.backend = backend
        self.impure = impure_functions(program)

    # --- domain hooks ---

    def _list_op(self, op: str, args: tuple[Val, ...], p: Particle) -> Val:
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
        return EConst(None), True

    def _fold(self, fname: str, lst: Val, init: Val, p: Particle):
        if not isinstance(lst, VLst):
            raise EvalError("fold over a non-list value")
        return self._fold_from(fname, lst.items, 0, init, p)

    # --- shared steps ---

    def _eval_op(self, op: str, args: tuple[Val, ...], p: Particle) -> Val:
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

    def _fold_from(self, fname: str, items: tuple[Val, ...], pos: int, acc: Val, p: Particle):
        """Runs the steps of a fold from ``items[pos]`` on; like ``_run``."""
        f = self.functions[fname]
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
        p.own_state()
        r, interrupted = self._run(p.cont, {}, p)
        if interrupted:
            p.cont = r
            p.flag = True
        else:
            p.value = r
            p.cont = None
            p.flag = False

    def _args(self, args: tuple[Expr, ...], env: dict[str, Val], p: Particle,
              force=None) -> tuple[Val, ...]:
        """The values of ``args``, each through ``force`` (if given) before the
        next is evaluated.  A leaf is read in place; an unbound name fails in ``_run``."""
        vals = []
        for x in args:
            if (t := type(x)) is EVar and x.name in env:
                v = env[x.name]
            elif t is EConst:
                v = VConst(x.value)
            else:
                v, _ = self._run(x, env, p)
            vals.append(v if force is None else force(v))
        return tuple(vals)

    def _run(self, e: Expr, env: dict[str, Val], p: Particle):
        """Evaluates ``e`` under ``env``.

        Returns ``(value, False)``, or ``(residual_expr, True)`` when the
        particle pauses at a ``resample``.  A residual is closed: a ``let``
        paused in its bound returns an ``ELetK`` holding its own ``env``, and
        resumes its body under that.  ``env`` is never mutated, since an
        enclosing frame, a paused residual or a resampled copy may still
        read it.
        """
        while True:
            t = type(e)  # the four most frequent forms first
            if t is EVar:
                try:
                    return env[e.name], False
                except KeyError:
                    raise EvalError(f"unbound variable {e.name}") from None
            if t is EOp:
                return self._eval_op(e.op, self._args(e.args, env, p), p), False
            if t is ELet or t is ELetK:
                if t is ELetK:  # its bound is closed; its body reads the captured frame
                    env = e.env
                b = e.bound  # a constant is read in place, as in ``_args``
                if type(b) is EConst:
                    r = VConst(b.value)
                else:
                    r, interrupted = self._run(b, env, p)
                    if interrupted:
                        return ELetK(e.pat, r, e.body, env), True
                e, env = e.body, ({**env, e.pat.name: r} if type(e.pat) is PVar
                                  else env | self.bind(e.pat, r))
                continue
            if t is EConst:
                return VConst(e.value), False
            match e:
                case ETuple(items):
                    vals = []
                    for x in items:
                        v, interrupted = self._run(x, env, p)
                        if interrupted:
                            raise EvalError("resample in tuple position")
                        vals.append(v)
                    return VTup(tuple(vals)), False
                case EList(items):
                    return VLst(self._args(items, env, p)), False
                case ECall(fname, arg):
                    v, _ = self._run(arg, env, p)
                    f = self.functions[fname]
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
                case ELetRV(ann, name, dist, args, body, site):
                    argv = self._args(args, env, p, p.state.eval_value)
                    rid = self.backend.assume(ann, make_dist(dist, argv), p.state,
                                              label=name, site=f"rv:{site}")
                    bound_v = (self.backend.value(rid, p.state) if ann is Annotation.SAMPLE
                               else VRV(rid))
                    e, env = body, {**env, name: bound_v}
                case EObserve(dist, args, value_e):
                    argv = self._args(args, env, p, p.state.eval_value)
                    rid = self.backend.assume(Annotation.NONE, make_dist(dist, argv),
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


@immutable
class Mixture:
    """Normalized per-particle output distributions.

    Components may share one output tree, which is read-only.
    """

    components: list[tuple[float, object]]  # (weight, tree of Distr)
    casts: list[tuple[int, str]]  # semantic casts, aggregated over particles
    output_casts: int  # forcing performed only to extract output marginals
    # the sequential Monte Carlo estimate of the log-evidence: the sum over
    # rounds of the log mean weight
    log_evidence: float = math.nan


def _normalized(logws: list[float]) -> tuple[list[float], float]:
    """The normalized weights and the log of their mean before normalizing."""
    m = max(logws)
    if m == -math.inf:
        raise DegenerateWeights("all particle weights are zero")
    ws = [math.exp(w - m) for w in logws]
    total = sum(ws)
    return [w / total for w in ws], m + math.log(total / len(ws))


_M32 = 0xFFFFFFFF
_OUT_H = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32 for k in range(9)]


@functools.lru_cache(maxsize=4)
def _round_pool(seed: int, round_idx: int) -> list[tuple[int, int, int]]:
    """Per word of the pool of ``SeedSequence(seed, spawn_key=(round_idx, i))``
    before ``i`` is mixed in: the hash constant, its successor and 0xCA01F9DD
    times the word.  16 hashes fill and stir; each later entropy word takes 4."""
    pool = np.random.SeedSequence(seed, spawn_key=(round_idx,)).pool.tolist()
    seed_words, round_words = (max(-(-int(n).bit_length() // 32), 1) for n in (seed, round_idx))
    k = 16 + 4 * (max(seed_words, 4) - 4 + round_words)
    h = [0x43B0D7E5 * pow(0x931E8875, k + d, 1 << 32) & _M32 for d in range(5)]
    return [(h[d], h[d + 1], 0xCA01F9DD * w & _M32) for d, w in enumerate(pool)]


def _mix(w, round_pool: list[tuple[int, int, int]]) -> list:
    """The pool after mixing in ``w``: a 32-bit int, or a ``uint64`` array of them."""
    pool = []
    for h, g, c in round_pool:
        x = (w ^ h) * g & _M32
        r = c - 0x4973F715 * (x ^ x >> 16) & _M32
        pool.append(r ^ r >> 16)
    return pool


def _state_words(pool: list) -> np.ndarray:
    """The four ``uint64`` words that ``generate_state`` draws from ``pool``."""
    out = [(pool[k & 3] ^ _OUT_H[k]) * _OUT_H[k + 1] & _M32 for k in range(8)]
    out = [w ^ w >> 16 for w in out]
    return np.array([out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6)], dtype=np.uint64)


@functools.lru_cache(maxsize=2)
def _round_words(seed: int, round_idx: int, n: int) -> np.ndarray:
    """The seed words of generators ``0..n-1`` of a round, one row each,
    hashed together with ``uint64`` array operations."""
    pool = _mix(np.arange(n, dtype=np.uint64), _round_pool(seed, round_idx))
    return np.ascontiguousarray(_state_words(pool).T)  # PCG64 reads a row's memory


@functools.cache
def _seed_words() -> type:
    """A seed sequence type that hands PCG64 the ``uint64`` words it holds,
    made on first use so that commands that never draw skip ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return SeedWords


def _particle_rng(seed: int, round_idx: int, i: int, n: int = 0) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence(seed, spawn_key=(round_idx, i))))``, hashed
    here from the round's pool: numpy's per-call overhead outweighs the hashing.
    An index below a round's particle count ``n`` reads the batch that the
    round's first draw hashed for all of them, and costs only numpy's two calls."""
    if i < n <= 1 << 32:
        seq = _seed_words()(_round_words(seed, round_idx, n)[i])
    elif i <= _M32:
        seq = _seed_words()(_state_words(_mix(i, _round_pool(seed, round_idx))))
    else:  # an index of several words: no round has that many particles
        seq = np.random.SeedSequence(seed, spawn_key=(round_idx, i))
    return np.random.Generator(np.random.PCG64(seq))


class FirstDrawRng:
    """A particle's generator, ``_particle_rng(seed, round_idx, i, n)``, built
    on first use: after resampling many particles never draw again."""

    def __init__(self, seed: int, round_idx: int, i: int, n: int = 0) -> None:
        self._key = (seed, round_idx, i, n)
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
    tree when these drew nothing.  The mixture carries the log-evidence
    estimate, summed over the rounds' log mean weights.
    """
    reset_intern()
    ev = Evaluator(program, backend)
    main = subst(program.main, {"data": data})
    particles = [Particle(main, SymState(FirstDrawRng(seed, 0, i, n_particles),
                                         CastLog(strict_casts)), 0.0, False)
                 for i in range(n_particles)]
    for p in particles[1:]:
        p.twin = particles[0]
    log_evidence = 0.0
    for round_idx in range(MAX_ROUNDS):
        for p in particles:
            if not p.flag and p.value is None:
                ev.eval_particle(p)
        if not any(p.flag for p in particles):
            break
        sites = {p.checkpoint for p in particles if p.flag}
        if len(sites) > 1:
            raise EvalError(f"particles paused at different checkpoints: {sites}")
        probs, log_mean = _normalized([p.logw for p in particles])
        log_evidence += log_mean
        rng = _particle_rng(seed, round_idx, n_particles)
        counts = rng.multinomial(n_particles, probs)
        fresh: list[Particle] = []
        for p, c in zip(particles, counts):
            group = [p.copy_for_resample(FirstDrawRng(seed, round_idx + 1, k, n_particles))
                     for k in range(len(fresh), len(fresh) + c)]
            if c == 1 and p.state.rng is p.rng:
                p.state.rng = group[0].rng  # a sole heir takes over its parent's own state
            for child in group[1:]:
                child.twin = group[0]
            fresh += group
        particles = fresh
    else:
        raise EvalError("model did not terminate within the round limit")

    probs, log_mean = _normalized([p.logw for p in particles])
    components = []
    casts: list[tuple[int, str]] = []
    out_casts = 0
    shared = {}  # id of a particle -> its output tree and output casts, if extracting drew nothing
    for i, w in enumerate(probs):
        p, particles[i] = particles[i], None  # free each state once read
        casts.extend(p.state.casts.events)  # a shared state's events are the copy's too
        if id(p.twin) in shared:
            tree, n = shared[id(p.twin)]
        else:
            p.own_state()
            p.state.casts = CastLog()  # counts only the forcing done to extract outputs
            tree = distribution(p.value, p.state, backend)
            n = len(p.state.casts)
            if not p.state.rng.drawn:
                shared[id(p)] = tree, n
        components.append((w, tree))
        out_casts += n
    return Mixture(components, casts, out_casts, log_evidence + log_mean)


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
