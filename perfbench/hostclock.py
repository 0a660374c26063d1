"""Host-speed reference that the benchmark's timings are scaled by.

On a shared host the CPU speed a process gets drifts: on the 2-vCPU sandbox
this benchmark was built on, one analysis sweep took 0.7 to 1.2 s within a
minute on either vCPU, with process CPU time following wall time (so it was
not steal time).  Runs made minutes apart then differ by more than any
bound a regression check could use.

So the benchmark also times a fixed pure-Python kernel, written like
symppl's symbolic code (frozen dataclasses, structural pattern matching,
memoized recursive evaluation), in short passes before every set-up and
every timed operation, and scales those timings by ``NOMINAL_PASS_S / mean
pass time``: a time is reported as it would read on a host where one pass
takes ``NOMINAL_PASS_S``.  The kernel belongs to the benchmark, not to the
program, so no change under ``src/`` can move it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

perf = time.perf_counter

# Mean pass time on the sandbox the benchmark was defined on.
NOMINAL_PASS_S = 0.012


@dataclass(frozen=True, slots=True)
class _Add:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class _Mul:
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class _Var:
    index: int


def _build(depth: int, i: int):
    if depth == 0:
        return _Var(i % 7)
    node = _Add if depth % 2 else _Mul
    return node(_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _evaluate(e, env: dict, memo: dict) -> int:
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    match e:
        case _Var(i):
            out = env[i]
        case _Add(left, right):
            out = _evaluate(left, env, memo) + _evaluate(right, env, memo)
        case _Mul(left, right):
            out = _evaluate(left, env, memo) * _evaluate(right, env, memo) % 1_000_003
    memo[id(e)] = out
    return out


def reference_pass(seed: int = 0) -> int:
    """One pass of the kernel: build a 4096-leaf expression tree and evaluate it."""
    tree = _build(12, seed)
    return _evaluate(tree, {i: i + seed for i in range(7)}, {})


class HostClock:
    """Accumulates reference passes; ``factor`` scales a measured time."""

    def __init__(self) -> None:
        self.busy = 0.0
        self.passes = 0

    def sample(self, seconds: float) -> None:
        """Run passes for about ``seconds`` (at least one).

        The collector is run first and kept off during the passes, so they
        time the interpreter rather than the garbage left by the program.
        """
        gc.collect()
        gc.disable()
        try:
            start = perf()
            while True:
                t0 = perf()
                reference_pass(self.passes)
                t1 = perf()
                self.busy += t1 - t0
                self.passes += 1
                if t1 - start >= seconds:
                    return
        finally:
            gc.enable()

    @property
    def factor(self) -> float:
        return NOMINAL_PASS_S * self.passes / self.busy if self.passes else 1.0
