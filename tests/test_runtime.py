"""Particle evaluation, resampling, and mixture statistics."""

import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symppl import parse
from symppl.benchmarks import data_for
from symppl.checker import apply_plan
from symppl.ds import DsBackend
import symppl.runtime as runtime
from symppl.runtime import (
    DegenerateWeights,
    Evaluator,
    Particle,
    SymState,
    mixture_moments,
    posterior_stats,
    run_model,
)
from symppl.interface import CastLog
from symppl.ssi import SsiBackend
from symppl.sym import DDelta, DNormal, EvalError, VConst, VLst, VTup
from symppl.lang import EConst, ELet, ELetRV, EVal, EVar, Expr, pattern_vars


def make_particle(expr):
    return Particle(expr, SymState(np.random.default_rng(0), CastLog()), 0.0, False)


def run_src(src, data=VLst(()), n=1, seed=0, backend=None):
    return run_model(parse(src), n, seed, backend or SsiBackend(), data)


def test_constant_terminates_with_zero_weight():
    ev = Evaluator(parse("5."), SsiBackend())
    p = make_particle(EConst(5.0))
    ev.eval_particle(p)
    assert not p.flag and p.value == VConst(5.0) and p.logw == 0.0


def test_resample_pauses_with_unit():
    ev = Evaluator(parse("resample()"), SsiBackend())
    p = make_particle(parse("resample()").main)
    ev.eval_particle(p)
    assert p.flag and p.logw == 0.0
    p.flag = False
    ev.eval_particle(p)
    assert not p.flag and p.value == VConst(None)


def test_pure_if_on_symbolic_condition_builds_ite():
    src = """
let x <- bernoulli(0.5) in
let y = if x then 1. else 2. in
y
"""
    prog = parse(src)
    ev = Evaluator(prog, SsiBackend())
    p = make_particle(prog.main)
    ev.eval_particle(p)
    from symppl.sym import VIte, VRV

    assert not p.flag and p.logw == 0.0
    assert p.value == VIte(VRV(0), VConst(1.0), VConst(2.0))


def test_deterministic_program_mixture():
    mix = run_src("1. + 1.", n=4)
    assert len(mix.components) == 4
    for w, d in mix.components:
        assert abs(w - 0.25) < 1e-12
        assert d == DDelta(VConst(2.0))


def test_run_model_deterministic():
    src = """
let step = fun (z, xs) ->
  let x <- gaussian(List.hd(xs), 1.) in
  let () = observe(gaussian(x, 1.), z) in
  let () = resample() in
  cons(x, xs)
let xs = fold(step, data, [0.]) in
List.hd(xs)
"""
    data = VLst((VConst(0.5), VConst(1.0)))
    a = run_src(src, data, n=8, seed=11)
    b = run_src(src, data, n=8, seed=11)
    assert [(w, str(d)) for w, d in a.components] == [(w, str(d)) for w, d in b.components]


def test_zero_weight_particles_dropped_by_resampling():
    # one branch observes an impossible delta, killing its weight
    src = """
let step = fun (z, acc) ->
  let sample x <- bernoulli(0.5) in
  let () = if x then observe(delta(1.), z) else observe(delta(0.), z) in
  let () = resample() in
  x
let r = fold(step, data, false) in
r
"""
    mix = run_src(src, VLst((VConst(1.0),)), n=32, seed=5)
    for w, d in mix.components:
        assert d == DDelta(VConst(True))


def test_degenerate_weights_error():
    src = "let () = observe(delta(0.), 1.) in ()"
    with pytest.raises(DegenerateWeights):
        run_src(src, n=2)


def test_resampling_preserves_expectation():
    # two-outcome toy: weights 0.75 / 0.25 enforced by bernoulli observe
    src = """
let sample x <- bernoulli(0.5) in
let () = observe(bernoulli(if x then 0.75 else 0.25), true) in
let () = resample() in
x
"""
    mix = run_src(src, n=10000, seed=9)
    freq = sum(w for w, d in mix.components if d == DDelta(VConst(True)))
    # post-resample frequency of the heavy branch ~ 0.75 within 3 sigma
    sigma = math.sqrt(0.75 * 0.25 / 10000)
    assert abs(freq - 0.75) < 3 * sigma


KALMAN_STEPS = """
let step = fun (z, xs) ->
  let symbolic x <- gaussian(0.8 * List.hd(xs), 0.3) in
  let () = observe(gaussian(1.5 * x, 0.2), z) in
  cons(x, xs)
let xs = {fold}(step, data, [0.]) in
List.hd(xs)
"""


def _evidence_deviation(fold):
    """The largest deviation, over both backends, of the N=8 log-evidence
    of ``KALMAN_STEPS`` from the Kalman filter's prediction-error
    decomposition.  All-symbolic particles carry equal weights, so the
    estimate is exact at any N."""
    zs = [0.2, -0.4, 0.9, 0.1]
    data = VLst(tuple(VConst(z) for z in zs))
    m, P, ll = 0.0, 0.0, 0.0
    for z in zs:
        mp, Pp = 0.8 * m, 0.64 * P + 0.3
        S = 1.5 ** 2 * Pp + 0.2
        ll += -0.5 * math.log(2 * math.pi * S) - (z - 1.5 * mp) ** 2 / (2 * S)
        K = Pp * 1.5 / S
        m, P = mp + K * (z - 1.5 * mp), (1 - 1.5 * K) * Pp
    prog = parse(KALMAN_STEPS.format(fold=fold))
    return max(abs(run_model(prog, 8, 0, backend, data).log_evidence - ll)
               for backend in (SsiBackend(), DsBackend()))


def test_weight_matches_kalman_prediction_error_decomposition():
    assert _evidence_deviation("fold") < 1e-8


def test_evidence_sums_the_log_mean_weight_over_resampling_rounds():
    assert _evidence_deviation("fold_resample") < 1e-8


def test_posterior_stats_trivials():
    from symppl.runtime import Mixture

    single = Mixture([(1.0, (DDelta(VConst(3.0)),))], [], 0)
    assert posterior_stats(single, (0,)) == (3.0, 0.0)
    two = Mixture([(0.5, (DDelta(VConst(0.0)),)), (0.5, (DDelta(VConst(2.0)),))], [], 0)
    mean, var = posterior_stats(two, (0,))
    assert mean == 1.0 and var == 1.0
    gauss = Mixture([(1.0, (DNormal(VConst(1.5), VConst(2.5)),))], [], 0)
    assert posterior_stats(gauss, (0,)) == (1.5, 2.5)


def test_checkpoint_alignment_asserted():
    mix = run_src(
        """
let step = fun (z, acc) ->
  let () = resample() in
  acc + z
let r = fold(step, data, 0.) in
r
""",
        VLst((VConst(1.0), VConst(2.0))),
        n=3,
    )
    (comp,) = {str(d) for _, d in mix.components},
    assert comp


def test_list_ops_and_map():
    src = """
let double = fun x -> 2 * x
let ys = List.map(double, List.range(0, 4)) in
let n = List.len(ys) in
(List.hd(List.rev(ys)), n)
"""
    mix = run_src(src)
    (w, tree), = mix.components
    assert tree[0] == DDelta(VConst(6.0))
    assert tree[1] == DDelta(VConst(4.0))


def test_hd_of_empty_list_raises():
    from symppl.sym import EvalError

    with pytest.raises(EvalError):
        run_src("List.hd([])")


def test_cast_counted_for_unsatisfiable_plan():
    # aircraft-style: symbolic variance variable forced by a sum
    src = """
let symbolic r <- invgamma(1., 1.) in
let other <- invgamma(1., 10.) in
let () = observe(gaussian(0., r + other), 0.3) in
r
"""
    mix = run_src(src, n=1)
    assert len(mix.casts) == 1


def model_run(model, plan, backend, particles, timesteps, seed=0):
    from symppl.benchmarks import BENCHMARKS

    program = apply_plan(BENCHMARKS[model].program(), plan)
    data, _ = data_for(model, seed, timesteps)
    return run_model(program, particles, seed, backend, data)


def noise_run(plan, backend, particles, timesteps, seed=0):
    return model_run("noise", plan, backend, particles, timesteps, seed)


def eval_value_calls_per_step(monkeypatch, plan, backend, timesteps, particles=2):
    calls = [0]
    original = SymState.eval_value

    def counted(self, v, _memo=None):
        calls[0] += 1
        return original(self, v, _memo)

    monkeypatch.setattr(SymState, "eval_value", counted)
    noise_run(plan, backend, particles, timesteps)
    monkeypatch.setattr(SymState, "eval_value", original)
    return calls[0] / (particles * timesteps)


@pytest.mark.parametrize("plan,backend", [(3, SsiBackend), (4, DsBackend)], ids=["ssi", "ds"])
def test_eval_value_calls_per_step_do_not_grow_with_stream(monkeypatch, plan, backend):
    # the accumulator and the remaining data list are not re-evaluated each step
    short = eval_value_calls_per_step(monkeypatch, plan, backend(), 20)
    long = eval_value_calls_per_step(monkeypatch, plan, backend(), 80)
    assert long <= 1.1 * short


def counting(monkeypatch, module, name):
    """Counts the calls of ``module.name`` that look it up in ``module``."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_rule_match_per_swap_and_per_chain_marginal(monkeypatch):
    import symppl.conjugacy as conjugacy
    import symppl.ssi as ssi

    matches = counting(monkeypatch, conjugacy, "match_case")
    swaps, chain_marginals, in_swap = [0], [0], [0]
    swap, marginal = ssi.swap, conjugacy.marginal

    def counted_swap(*args):
        swaps[0] += 1
        in_swap[0] += 1
        try:
            return swap(*args)
        finally:
            in_swap[0] -= 1

    def counted_marginal(*args):
        chain_marginals[0] += not in_swap[0]  # output extraction's
        return marginal(*args)

    monkeypatch.setattr(ssi, "swap", counted_swap)
    monkeypatch.setattr(conjugacy, "marginal", counted_marginal)
    noise_run(3, SsiBackend(), 2, 20)
    assert swaps[0] > 0 and chain_marginals[0] > 0
    assert matches[0] == swaps[0] + chain_marginals[0]


def test_ds_matches_six_rules_per_particle_step(monkeypatch):
    import symppl.conjugacy as conjugacy

    # x and y each apply their rule once to be assumed, once to be
    # marginalized and once to condition their parent (q, r) when realized;
    # the rule's memo matches each pair only the first time
    matches = counting(monkeypatch, conjugacy, "match_case")
    rules = counting(monkeypatch, conjugacy, "rule")
    noise_run(4, DsBackend(), 2, 20)
    assert rules[0] == 6 * 2 * 20
    assert matches[0] == 2 * 2 * 20


def test_rule_memo_holds_one_pair(monkeypatch):
    import symppl.conjugacy as conjugacy
    from symppl.sym import VRV

    prior = DNormal(VConst(0.0), VConst(1.0))
    cond1 = DNormal(VRV(0), VConst(2.0))
    cond2 = DNormal(VRV(0), VConst(3.0))
    matched = []
    match_case = conjugacy.match_case

    def recording(prior, cond, *args):
        matched.append(cond)
        return match_case(prior, cond, *args)

    monkeypatch.setattr(conjugacy, "match_case", recording)
    first = conjugacy.rule(prior, cond1, 0)
    assert conjugacy.rule(prior, cond1, 0) is first
    conjugacy.rule(prior, cond2, 0)
    conjugacy.rule(prior, cond1, 0, frozenset({1}))
    # an equal pair that is not the same objects is matched again
    again = conjugacy.rule(prior, DNormal(VRV(0), VConst(2.0)), 0)
    conjugacy.rule(prior, cond1, 0)
    assert again == first and matched == [cond1, cond2, cond1, cond1, cond1]
    (entry,) = conjugacy._last
    assert entry[0] is prior and entry[1] is cond1 and entry[5] == first


def test_one_affine_decomposition_per_linear_gaussian_rule_application(monkeypatch):
    import symppl.conjugacy as conjugacy

    # the match's decomposition of the child's mean is the one the rule
    # applies: nothing decomposes it a second time
    linear, top, depth = [0], [0], [0]
    match_case, affine_of = conjugacy.match_case, conjugacy.affine_of

    def counted_match(*args, **kwargs):
        case = match_case(*args, **kwargs)
        linear[0] += case == conjugacy.LINEAR_GAUSSIAN
        return case

    def counted_affine(*args):
        top[0] += not depth[0]  # recursion into subterms is not counted
        depth[0] += 1
        try:
            return affine_of(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(conjugacy, "match_case", counted_match)
    monkeypatch.setattr(conjugacy, "affine_of", counted_affine)
    noise_run(3, SsiBackend(), 2, 20)
    assert linear[0] > 0 and top[0] == linear[0]


def test_resampled_particles_that_never_draw_build_no_generator(monkeypatch):
    built = []
    original = runtime._particle_rng

    def recording(seed, round_idx, i, n=0):
        built.append((round_idx, i))
        return original(seed, round_idx, i, n)

    monkeypatch.setattr(runtime, "_particle_rng", recording)
    # plan 3 samples q and r in round 0 and draws nothing after it; each
    # round's resampling draws from generator (round, N)
    noise_run(3, SsiBackend(), 2, 20)
    assert sorted(built) == [(0, 0), (0, 1)] + [(r, 2) for r in range(20)]


def test_generator_built_on_first_draw_keeps_the_stream():
    lazy, eager = runtime.FirstDrawRng(7, 3, 1), runtime._particle_rng(7, 3, 1)
    assert [lazy.normal(0.0, 1.0), lazy.random(), lazy.normal(1.0, 2.0)] == \
        [eager.normal(0.0, 1.0), eager.random(), eager.normal(1.0, 2.0)]


def numpy_generator_state(seed, round_idx, i):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(round_idx, i))).state


def test_particle_generator_is_numpys_seed_sequence_on_a_grid():
    # one 32-bit word and several, for the seed, the round and the index
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5)
    for seed, round_idx, i in itertools.product(seeds, (0, 3, 2**32 + 1), (0, 31, 2**32, 2**40 + 7)):
        assert runtime._particle_rng(seed, round_idx, i).bit_generator.state == \
            numpy_generator_state(seed, round_idx, i)


@pytest.mark.parametrize("n", [1, 16, 32, 33, 200])
def test_round_batch_is_numpys_seed_sequence_for_every_index(n):
    for seed, round_idx in ((0, 0), (5, 7), (2**64 + 3, 2**32 + 1), (2**130 + 5, 2**40)):
        words = runtime._round_words(seed, round_idx, n)
        assert words.shape == (n, 4)
        for i in range(n):
            expected = np.random.SeedSequence(seed, spawn_key=(round_idx, i))
            assert words[i].tolist() == expected.generate_state(4, np.uint64).tolist()
            assert runtime._particle_rng(seed, round_idx, i, n).bit_generator.state == \
                numpy_generator_state(seed, round_idx, i)


def test_index_outside_the_round_builds_no_batch(monkeypatch):
    built = []
    round_words = runtime._round_words

    def recording(seed, round_idx, n):
        built.append(n)
        assert n <= 4, "a batch for an index beyond the round"  # never allocate it
        return round_words(seed, round_idx, n)

    monkeypatch.setattr(runtime, "_round_words", recording)
    for i, n in ((2**32, 2**32 + 1), (2**32 + 5, 2**40), (3, 2), (7, 0)):
        runtime.FirstDrawRng(1, 2, i, n).random()
        assert runtime._particle_rng(1, 2, i, n).bit_generator.state == \
            numpy_generator_state(1, 2, i)
    assert built == []
    runtime.FirstDrawRng(1, 2, 1, 4).random()
    assert built == [4]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**140), st.integers(0, 2**70), st.integers(0, 2**70))
def test_particle_generator_is_numpys_seed_sequence(seed, round_idx, i):
    assert runtime._particle_rng(seed, round_idx, i).bit_generator.state == \
        numpy_generator_state(seed, round_idx, i)


def test_each_resampled_copy_copies_one_state_per_round(monkeypatch):
    # a copy shares its parent's state until its step, then copies either
    # the parent's state or, when it adopts, its twin's; never both.  The
    # only copy of a parent that owns its state takes that state over.
    copies = counting(monkeypatch, SymState, "copy")
    adopted = counting(monkeypatch, Particle, "adopt")
    parents = []  # each kept alive, so that no two share an id
    copy_for_resample = Particle.copy_for_resample

    def recording(self, rng):
        parents.append((self, self.state.rng is self.rng))
        return copy_for_resample(self, rng)

    monkeypatch.setattr(Particle, "copy_for_resample", recording)
    noise_run(3, SsiBackend(), 8, 20)
    children = collections.Counter(id(p) for p, _ in parents)
    heirs = sum(owns and children[id(p)] == 1 for p, owns in parents)
    assert adopted[0] > 0 and heirs > 0 and copies[0] == 8 * 20 - heirs


# ``jitter`` samples, so an argument that calls it draws and touches the
# state while the other arguments of the same declaration are evaluated
SAMPLING_ARGUMENTS = """
let jitter = fun m ->
  let sample z <- gaussian(m, 1.) in
  z
let spread = fun v ->
  let symbolic s <- invgamma(3., v) in
  s
let step = fun (obs, mu) ->
  let symbolic x <- gaussian(jitter(mu), spread(jitter(2.) * jitter(2.) + 1.)) in
  let () = observe(gaussian(x + jitter(0.), spread(1.)), obs) in
  let () = resample() in
  x
let last = fold(step, data, 0.) in
last
"""

# SHA-256 of the repr of (components, casts, output_casts, log_evidence)
SAMPLING_ARGUMENTS_DIGESTS = {
    "ssi": "378fd87eeca862ef8aa82deba8552f97a8c981d71c58f98b74ddf8b1f53dc27a",
    "ds": "a41a857573103d66affeecf9257c7f3d3d413ee77b5bca33d470b018cdea6a72",
}


@pytest.mark.parametrize("backend", [SsiBackend, DsBackend], ids=["ssi", "ds"])
def test_arguments_that_sample_keep_their_order_of_state_accesses(backend):
    data = VLst(tuple(VConst(v) for v in (0.4, -0.3, 1.2, 0.8)))
    mix = run_model(parse(SAMPLING_ARGUMENTS), 6, 3, backend(), data)
    text = repr((mix.components, mix.casts, mix.output_casts, mix.log_evidence))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLING_ARGUMENTS_DIGESTS[backend.name]


@pytest.mark.parametrize("src", [
    "let a = 1. in a + b",
    "let a = 1. in [a, b]",
    "let symbolic x <- gaussian(0., b) in x",
    "let () = observe(gaussian(b, 1.), 0.) in 0.",
], ids=["op", "list", "random-variable", "observe"])
def test_unbound_variable_in_an_argument_is_an_eval_error(src):
    with pytest.raises(EvalError, match="unbound variable b"):
        run_src(src)


def test_single_parent_hoist_builds_no_closure(monkeypatch):
    import symppl.ssi as ssi

    sorted_sizes = []
    closure_sizes = []
    topo_sort, reachable = ssi.topo_sort, ssi.reachable

    def recording_topo_sort(rids, g):
        sorted_sizes.append(len(rids))
        return topo_sort(rids, g)

    def recording_reachable(*args, **kwargs):
        closure_sizes.append(sorted_sizes[-1])
        return reachable(*args, **kwargs)

    monkeypatch.setattr(ssi, "topo_sort", recording_topo_sort)
    monkeypatch.setattr(ssi, "reachable", recording_reachable)
    noise_run(3, SsiBackend(), 2, 20)
    assert sorted_sizes and max(sorted_sizes) == 1
    assert closure_sizes == []


def test_long_stream_hoist_does_not_recurse():
    mix = noise_run(3, SsiBackend(), 2, 1500)
    assert not mix.casts and mix.output_casts == 0
    for t in range(1500):
        mean, var = posterior_stats(mix, (0, t))
        assert math.isfinite(mean) and math.isfinite(var)


def only_output(mix):
    """The output tree shared by every particle of a deterministic run."""
    (tree,) = {str(tree) for _, tree in mix.components}
    return tree


def test_inner_let_does_not_rebind_outer_name():
    assert only_output(run_src("let x = 1. in let y = (let x = 2. in x) in (x, y)", n=2)) == str(
        (DDelta(VConst(1.0)), DDelta(VConst(2.0))))


def test_call_sees_only_its_parameters():
    src = """
let f = fun x -> x + 1.
let x = 10. in
let y = f(2.) in
(x, y)
"""
    assert only_output(run_src(src)) == str((DDelta(VConst(10.0)), DDelta(VConst(3.0))))
    # a function body cannot read a name its caller bound
    with pytest.raises(EvalError, match="unbound variable b"):
        run_src("let g = fun a -> a + b\nlet b = 1. in g(2.)")


def test_tuple_pattern_shadows_only_its_names():
    src = "let a = 1. in let b = 2. in let (a, c) = (3., 4.) in (a, b, c)"
    assert only_output(run_src(src)) == str(
        (DDelta(VConst(3.0)), DDelta(VConst(2.0)), DDelta(VConst(4.0))))


def free_names(e: Expr, bound: frozenset = frozenset()) -> set[str]:
    """Variables of ``e`` that no enclosing binder of ``e`` binds."""
    match e:
        case EVar(name):
            return set() if name in bound else {name}
        case ELet(pat, b, body):
            return free_names(b, bound) | free_names(body, bound | set(pattern_vars(pat)))
        case ELetRV(_, name, _, args, body):
            return set().union(*(free_names(x, bound) for x in args),
                               free_names(body, bound | {name}))
    out: set[str] = set()
    for name in e.__match_args__:
        value = getattr(e, name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, Expr):
                out |= free_names(x, bound)
    return out


NESTED_PAUSE = """
let step = fun (z, acc) ->
  let symbolic x <- gaussian(acc, 1.) in
  let () = observe(gaussian(x, 0.5), z) in
  let (y, _) = (let w = (x, z) in let () = resample() in w) in
  y
let last = fold(step, data, 0.) in
last
"""


def test_paused_residual_is_closed_and_resumes_like_a_full_run():
    prog = parse(NESTED_PAUSE)
    data = VLst((VConst(0.3), VConst(-0.2), VConst(0.9)))
    ev = Evaluator(prog, SsiBackend())
    p = make_particle(runtime.subst(prog.main, {"data": data}))
    pauses = 0
    while True:
        ev.eval_particle(p)
        if not p.flag:
            break
        pauses += 1
        assert free_names(p.cont) == set()
        p = p.copy_for_resample(np.random.default_rng(pauses))
        p.flag = False
    assert pauses == len(data.items)
    from symppl.interface import distribution

    resumed = distribution(p.value, p.state, ev.backend)
    assert str(resumed) == only_output(run_model(prog, 3, 0, SsiBackend(), data))


def count_top_level_subst(monkeypatch) -> list[int]:
    """Counts calls of ``runtime.subst`` that are not its own recursion."""
    calls, depth = [0], [0]
    original = runtime.subst

    def counted(e, bindings):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(e, bindings)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(runtime, "subst", counted)
    return calls


def test_no_substitution_without_a_pause(monkeypatch):
    calls = count_top_level_subst(monkeypatch)
    src = """
let inc = fun (z, acc) -> let (a, b) = (acc, z) in a + b
let twice = fun x -> let y = inc(x, x) in y
let s = fold(inc, data, 0.) in
let t = twice(s) in
List.map(twice, [t, s])
"""
    run_src(src, VLst((VConst(1.0), VConst(2.0))), n=3)
    assert calls[0] == 1  # closing ``main`` over ``data``


def test_substitution_only_closes_paused_frames(monkeypatch):
    # on noise a particle pauses inside the step's ``let () = resample()``,
    # which runs inside main's ``let (xs, q, r) = fold(...)``: two frames
    per_pause = []
    for timesteps in (20, 80):
        calls = count_top_level_subst(monkeypatch)
        noise_run(4, DsBackend(), 2, timesteps)
        monkeypatch.undo()
        per_pause.append((calls[0] - 1) / (2 * timesteps))  # one call closes ``main``
    assert per_pause[0] == per_pause[1] <= 2


def every_particle_evaluates(monkeypatch):
    """Makes every generator look drawn, so no particle adopts a twin's step
    or output tree."""
    monkeypatch.setattr(runtime.FirstDrawRng, "drawn", property(lambda self: True))


@pytest.mark.parametrize("model,plan,backend,particles,timesteps,shares", [
    ("noise", 3, SsiBackend, 16, 30, True),
    ("tree", 1, SsiBackend, 4, 8, True),
    ("tree", 1, DsBackend, 4, 8, True),
    ("slam", 0, SsiBackend, 4, 8, True),
    ("noise", 4, DsBackend, 4, 8, False),
], ids=["noise3-ssi", "tree1-ssi", "tree1-ds", "slam0-ssi", "noise4-ds"])
def test_shared_steps_and_outputs_do_not_change_the_mixture(
        monkeypatch, model, plan, backend, particles, timesteps, shares):
    adopted = counting(monkeypatch, Particle, "adopt")
    mix = model_run(model, plan, backend(), particles, timesteps)
    assert (adopted[0] > 0) == shares
    every_particle_evaluates(monkeypatch)
    adopted[0] = 0
    alone = model_run(model, plan, backend(), particles, timesteps)
    assert adopted[0] == 0
    assert repr(mix.components) == repr(alone.components)
    assert mix.casts == alone.casts and mix.output_casts == alone.output_casts


# r is symbolic and draws nothing in round 0, so copies adopt that step;
# round 1 samples ``other`` and then forces r
CAST_AFTER_A_SHARED_STEP = """
let symbolic r <- invgamma(1., 1.) in
let () = resample() in
let other <- invgamma(1., 10.) in
let () = observe(gaussian(0., r + other), 0.3) in
r
"""


def test_casts_are_the_same_with_shared_steps(monkeypatch):
    from symppl.interface import CastError

    adopted = counting(monkeypatch, Particle, "adopt")
    prog = parse(CAST_AFTER_A_SHARED_STEP)
    outcomes = []
    for share in (True, False):
        if not share:
            assert adopted[0] == 2 * 3  # round 0 of each run
            every_particle_evaluates(monkeypatch)
        mix = run_model(prog, 4, 0, SsiBackend(), VLst(()))
        with pytest.raises(CastError) as err:
            run_model(prog, 4, 0, SsiBackend(), VLst(()), strict_casts=True)
        outcomes.append((mix.casts, str(err.value)))
    assert len(outcomes[0][0]) == 4  # each particle forces its own r once
    assert outcomes[0] == outcomes[1]


def first_draw_particle(expr, i):
    return Particle(expr, SymState(runtime.FirstDrawRng(0, 0, i), CastLog()), 0.0, False)


def twins(src):
    prog = parse(src)
    ev = Evaluator(prog, SsiBackend())
    first = first_draw_particle(prog.main, 0)
    second = first_draw_particle(prog.main, 1)
    second.twin = first
    return ev, first, second


def test_a_draw_free_step_is_adopted_with_a_state_of_its_own():
    ev, first, second = twins("let symbolic x <- gaussian(0., 1.) in let () = resample() in x")
    ev.eval_particle(first)
    ev.eval_particle(second)
    assert second.twin is first and second.flag and second.cont is first.cont
    assert second.state is not first.state and second.state.entries == first.state.entries
    assert second.state.casts is not first.state.casts
    assert second.state.rng is not first.state.rng and not second.state.rng.drawn


def test_a_twin_that_drew_is_not_adopted(monkeypatch):
    adopted = counting(monkeypatch, Particle, "adopt")
    ev, first, second = twins("let sample x <- gaussian(0., 1.) in x")
    ev.eval_particle(first)
    assert first.state.rng.drawn
    ev.eval_particle(second)
    assert adopted[0] == 0 and second.twin is None
    assert second.value != first.value  # a draw of its own generator


def test_a_twin_that_has_not_stepped_is_not_adopted(monkeypatch):
    adopted = counting(monkeypatch, Particle, "adopt")
    ev, first, second = twins("let symbolic x <- gaussian(0., 1.) in x")
    ev.eval_particle(second)
    assert adopted[0] == 0 and second.twin is None and second.value is not None
    assert first.value is None and not first.flag
