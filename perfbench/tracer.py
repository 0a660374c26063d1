"""Per-layer tracer for the traced benchmark run.

The tracer wraps public functions and methods of the ``symppl`` modules
from outside the package, while it is installed.  A wrapped name is
replaced in every loaded ``symppl`` module that binds it, because many
call sites use names bound by ``from ... import`` at import time.

Timed probes keep calls, busy time and self time on a stack of frames.  A
recursive call (a call made while the same probe is already active) is
counted but not timed again, so busy time is that of the outermost call.
Self time is busy time minus the busy time of timed probes called inside
it.  Count-only probes sit on hot leaves where timing each call would
swamp the trace.  Spans with parent ids are recorded only at coarse
boundaries: the operation, each filter round, ``eval_particle``, the
resampling batch, ``distribution``, each ``analyze`` call and the
outermost ``fold_fixpoint``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

perf = time.perf_counter


@dataclass(frozen=True)
class Probe:
    name: str  # metric prefix
    module: str  # symppl submodule that defines the target
    attr: str  # function name, or "Class.method"
    timed: bool = True
    span: bool = False
    before: Callable | None = None  # before(tracer, args, kwargs), on every call
    after: Callable | None = None  # after(tracer, args, kwargs, result, dt), dt None unless outermost


class Stat:
    __slots__ = ("calls", "busy", "self_", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.depth = 0


# --- hooks ---


def _eval_before(tr: "Tracer", args, kwargs) -> None:
    tr.close_batch()
    if tr.round_sid is None:
        tr.round_sid = tr.push_span("round", perf())


def _eval_after(tr: "Tracer", args, kwargs, result, dt) -> None:
    tr.last_eval_end = perf()


def _copy_before(tr: "Tracer", args, kwargs) -> None:
    if tr.batch_sid is None:
        tr.batch_sid = tr.push_span("resample", tr.last_eval_end)
        tr.batch_parents = set()
    tr.batch_parents.add(id(args[0]))
    tr.counts["resample.children"] += 1


def _distribution_before(tr: "Tracer", args, kwargs) -> None:
    if tr.stats["interface.distribution"].depth == 0:
        tr.close_round()


def _hoist_after(tr: "Tracer", args, kwargs, result, dt) -> None:
    part = "extract" if tr.stats["interface.distribution"].depth else "filter"
    tr.counts[f"ssi.hoist.{part}.calls"] += 1
    if dt is not None:
        tr.counts[f"ssi.hoist.{part}.busy_s"] += dt


def _swap_after(tr: "Tracer", args, kwargs, result, dt) -> None:
    if result:
        tr.counts["ssi.swap.ok"] += 1


def _match_after(tr: "Tracer", args, kwargs, result, dt) -> None:
    if result is not None:
        tr.counts["conjugacy.match_case.hits"] += 1


def _reachable_after(tr: "Tracer", args, kwargs, result, dt) -> None:
    tr.counts["sym.reachable.nodes"] += len(result)


def _intern_before(tr: "Tracer", args, kwargs) -> None:
    if args[0] in tr.modules["sym"]._INTERN:
        tr.counts["sym.intern.hits"] += 1


def _copy_entries_before(tr: "Tracer", args, kwargs) -> None:
    tr.counts["sym.SymState.copy.entries"] += len(args[0].entries)


def _rename_join_before(tr: "Tracer", args, kwargs) -> None:
    if kwargs.get("in_fold", len(args) > 4 and args[4]):
        tr.counts["analysis.fold_fixpoint.iterations"] += 1


PROBES = (
    # evaluator and resampling
    Probe("runtime.eval_particle", "runtime", "Evaluator.eval_particle", span=True,
          before=_eval_before, after=_eval_after),
    Probe("runtime.subst", "runtime", "subst"),
    Probe("runtime.copy_for_resample", "runtime", "Particle.copy_for_resample", before=_copy_before),
    # symbolic-value algebra
    Probe("sym.SymState.eval_value", "sym", "SymState.eval_value"),
    Probe("sym.SymState.copy", "sym", "SymState.copy", timed=False, before=_copy_entries_before),
    Probe("sym.free_rvs", "sym", "free_rvs"),
    Probe("sym.reachable", "sym", "reachable", after=_reachable_after),
    Probe("sym.intern", "sym", "_intern", timed=False, before=_intern_before),
    Probe("sym.draw", "sym", "draw", timed=False),
    # backend contract and output extraction
    Probe("interface.distribution", "interface", "distribution", span=True,
          before=_distribution_before),
    Probe("interface.value_star", "interface", "value_star"),
    Probe("interface.CastLog.record", "interface", "CastLog.record", timed=False),
    # SSI backend
    Probe("ssi.assume", "ssi", "SsiBackend.assume"),
    Probe("ssi.observe", "ssi", "SsiBackend.observe"),
    Probe("ssi.value", "ssi", "SsiBackend.value"),
    Probe("ssi.marginal_of", "ssi", "SsiBackend.marginal_of"),
    Probe("ssi.hoist", "ssi", "SsiBackend.hoist", after=_hoist_after),
    Probe("ssi.swap", "ssi", "swap", after=_swap_after),
    Probe("ssi.topo_sort", "ssi", "topo_sort"),
    # DS backend
    Probe("ds.assume", "ds", "DsBackend.assume"),
    Probe("ds.observe", "ds", "DsBackend.observe"),
    Probe("ds.value", "ds", "DsBackend.value"),
    Probe("ds.marginal_of", "ds", "DsBackend.marginal_of"),
    Probe("ds.graft", "ds", "DsBackend.graft"),
    Probe("ds.prune", "ds", "DsBackend.prune"),
    Probe("ds.marginalize", "ds", "DsBackend.marginalize"),
    Probe("ds.realize", "ds", "DsBackend.realize"),
    # conjugacy rules
    Probe("conjugacy.match_case", "conjugacy", "match_case", after=_match_after),
    Probe("conjugacy.affine_of", "conjugacy", "affine_of", timed=False),
    Probe("conjugacy.marginal", "conjugacy", "marginal"),
    Probe("conjugacy.posterior", "conjugacy", "posterior"),
    # static analysis
    Probe("analysis.analyze", "analysis", "analyze", span=True),
    Probe("analysis.fold_fixpoint", "analysis", "AbsInterp.fold_fixpoint", span=True),
    Probe("analysis.rename_join", "absdomain", "rename_join", before=_rename_join_before),
    Probe("absdomain.join_states", "absdomain", "join_states", timed=False),
    Probe("absdomain.widen", "absdomain", "widen", timed=False),
    Probe("analysis.AbsSsi.hoist", "analysis", "AbsSsi.hoist"),
    Probe("analysis.AbsDs.graft", "analysis", "AbsDs.graft"),
    # set-up
    Probe("parser.parse", "parser", "parse"),
    Probe("checker.check", "checker", "check"),
    Probe("checker.apply_plan", "checker", "apply_plan"),
    Probe("benchmarks.data_for", "benchmarks", "data_for"),
)


# Metrics kept by hooks rather than by a probe's own stat.
COUNTED = (
    "ssi.hoist.filter.calls", "ssi.hoist.filter.busy_s",
    "ssi.hoist.extract.calls", "ssi.hoist.extract.busy_s",
    "sym.SymState.copy.entries", "sym.reachable.nodes", "analysis.fold_fixpoint.iterations",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the probes on a set of loaded modules while active.

    ``modules`` maps short names (``"sym"``, ``"ssi"``, ...) to the loaded
    ``symppl`` submodules.  Use one tracer per traced operation.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.stats = {p.name: Stat() for p in PROBES}
        self.layers: dict[str, list] = {}  # module -> [depth, busy]
        self.counts: Counter = Counter()
        self.frames: list[list[float]] = []
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.open: list[tuple[int, str, float]] = []
        self.round_sid: int | None = None
        self.batch_sid: int | None = None
        self.batch_parents: set[int] = set()
        self.last_eval_end = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---

    def push_span(self, name: str, start: float) -> int:
        sid = len(self.spans) + len(self.open)
        self.open.append((sid, name, start))
        return sid

    def pop_span(self, sid: int, end: float) -> None:
        top, name, start = self.open.pop()
        if top != sid:
            raise RuntimeError(f"span {name} closed out of order")
        parent = self.open[-1][0] if self.open else None
        self.spans.append((sid, parent, name, start, end))

    def close_batch(self) -> None:
        if self.batch_sid is not None:
            self.pop_span(self.batch_sid, perf())
            self.counts["resample.survivors"] += len(self.batch_parents)
            self.batch_sid = None
            self.close_round()

    def close_round(self) -> None:
        if self.batch_sid is not None:
            self.close_batch()
        elif self.round_sid is not None:
            self.pop_span(self.round_sid, perf())
            self.round_sid = None

    def operation(self):
        """Context manager for the span of one benchmark operation."""
        return _OperationSpan(self)

    # --- patching ---

    def _wrap(self, probe: Probe, fn):
        st = self.stats[probe.name]
        before, after = probe.before, probe.after
        tr = self
        if not probe.timed:
            def counted(*args, **kwargs):
                st.calls += 1
                if before is not None:
                    before(tr, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tr, args, kwargs, result, None)
                return result
            return counted

        layer = self.layers.setdefault(probe.module, [0, 0.0])
        frames = self.frames

        def timed(*args, **kwargs):
            st.calls += 1
            if before is not None:
                before(tr, args, kwargs)
            if st.depth:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tr, args, kwargs, result, None)
                return result
            st.depth += 1
            layer[0] += 1
            child = [0.0]
            frames.append(child)
            t0 = perf()
            sid = tr.push_span(probe.name, t0) if probe.span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                st.depth -= 1
                st.busy += dt
                st.self_ += dt - child[0]
                layer[0] -= 1
                if layer[0] == 0:
                    layer[1] += dt
                if sid is not None:
                    tr.pop_span(sid, t1)
            if after is not None:
                after(tr, args, kwargs, result, dt)
            return result
        return timed

    def __enter__(self) -> "Tracer":
        for probe in PROBES:
            owner = self.modules[probe.module]
            *path, leaf = probe.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(probe, original)
            targets = [owner] if path else self.modules.values()
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, name, original))
                        setattr(target, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    # --- results ---

    def metrics(self, op_wall_s: float) -> dict[str, float]:
        """Every per-layer value this tracer can report, by metric name."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.busy_s"] = st.busy
            out[f"{name}.self_s"] = st.self_
        c = self.counts
        for name in COUNTED:
            out[name] = c[name]
        out["runtime.resample.survivor_share"] = _ratio(c["resample.survivors"],
                                                        c["resample.children"])
        out["ssi.swap.ok_ratio"] = _ratio(c["ssi.swap.ok"], self.stats["ssi.swap"].calls)
        out["conjugacy.match_case.hit_ratio"] = _ratio(c["conjugacy.match_case.hits"],
                                                       self.stats["conjugacy.match_case"].calls)
        out["sym.intern.hit_ratio"] = _ratio(c["sym.intern.hits"], self.stats["sym.intern"].calls)
        out["interface.distribution.share"] = _ratio(self.stats["interface.distribution"].busy,
                                                     op_wall_s)
        for layer in ("ssi", "ds"):
            out[f"{layer}.share"] = _ratio(self.layers.get(layer, [0, 0.0])[1], op_wall_s)
        return out

    def span_records(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in sorted(self.spans)]


class _OperationSpan:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.sid: int | None = None

    def __enter__(self) -> None:
        self.sid = self.tracer.push_span("operation", perf())

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.close_round()
        while tr.open and tr.open[-1][0] != self.sid:  # spans cut short by an exception
            tr.pop_span(tr.open[-1][0], perf())
        tr.pop_span(self.sid, perf())
