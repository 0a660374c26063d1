"""Run one benchmark workload against the symppl sources of this checkout.

    python3 perfbench/run.py --workload noise-ssi-chain --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` one operation first runs untimed, right after the first
import and set-up, to measure how much it grows the resident memory.  Then
set-up is repeated ``SETUP_REPEATS`` times, each time importing the package
afresh, and timed.  Then operations run back to back, one at a time, until
``--seconds`` have passed.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` each operation runs once untraced and once
under the tracer, and the per-layer metrics are reported and the spans
written to ``.perfbench/``.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result when
the program or ``BENCHMARK.json`` cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from hostclock import HostClock
from tracer import Tracer
from workloads import WORKLOADS, FilterWorkload

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
OP_TIMEOUT_S = 60.0
TRACED_OP_TIMEOUT_S = 100.0
# No operation may run past this point, so the process ends within 180 s.
HARD_DEADLINE_S = 160.0

def load_program() -> tuple[SimpleNamespace, dict]:
    """Import ``symppl`` from ``src/`` afresh.

    Returns the submodules as attributes, and every loaded ``symppl``
    module by short name for the tracer.
    """
    for name in [m for m in sys.modules if m == "symppl" or m.startswith("symppl.")]:
        del sys.modules[name]
    package = importlib.import_module("symppl")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"symppl was imported from {package.__file__}, not from {SRC}")
    for name in ("benchmarks", "checker", "runtime", "ssi", "ds", "analysis"):
        importlib.import_module(f"symppl.{name}")
    loaded = {m.split(".", 1)[1] if "." in m else m: mod
              for m, mod in sys.modules.items() if m == "symppl" or m.startswith("symppl.")}
    return SimpleNamespace(**loaded), loaded


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def remaining_s() -> float:
    return HARD_DEADLINE_S - (time.perf_counter() - START)


def measure(seconds: float, op_timeout_s: float, run_op, host: HostClock | None = None) -> list:
    """Run ``run_op`` back to back, at least once, while the next call is
    expected (from the last one) to end within ``seconds``.  Before each
    call, ``host`` samples the host's speed for a tenth of the mean call
    duration so far (at least 0.1 s)."""
    results = []
    t0 = last = time.perf_counter()
    while True:
        timeout = min(op_timeout_s, remaining_s())
        if timeout < 1.0:
            break
        if host is not None:
            host.sample(max(0.1, 0.1 * (last - t0) / max(len(results), 1)))
        results.append(run_op(timeout))
        now = time.perf_counter()
        if now + (now - last) - t0 > seconds:
            break
        last = now
    return results


def resident_mb() -> tuple[float, float]:
    """This process's current and peak resident memory, in MB."""
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) / 1024.0
    return fields["VmRSS"], fields["VmHWM"]


def resident_growth(workload, mods, setup, timeout: float):
    """Run one operation; return it and how far the process's peak resident
    memory rose above the resident memory just before it, in MB.

    Called in a fresh process after one import and set-up, when the peak
    still equals the current resident memory, so the rise is the operation's
    own: the interpreter, numpy, the modules and the set-up's data are left
    out.
    """
    gc.collect()
    before, _ = resident_mb()
    result = workload.run_op(mods, setup, timeout)
    return result, resident_mb()[1] - before


def check_digests(results) -> None:
    """Every operation must give the same output as the first good one."""
    good = [r for r in results if not r.failed]
    for r in good[1:]:
        if r.digest != good[0].digest:
            print("perfbench: output differs between operations with the same seed",
                  file=sys.stderr)
            r.failed = r.attempted


def end_to_end(workload, ops, setup_times: list[float], setup_host: HostClock,
               host: HostClock, rss_mb: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics; set-up and operation times are scaled by the
    host factor sampled during set-up and during the operations."""
    good = [r for r in ops if not r.failed]
    latencies = [x for r in good for x in r.latencies_ms]
    scale = host.factor
    values = {
        "setup_s": median(setup_times) * setup_host.factor,
        "throughput_per_s": sum(r.work for r in good) / max(sum(r.wall_s for r in good), 1e-9) / scale,
        "latency_ms_p50": median(latencies) * scale,
        "op_rss_mb": rss_mb,
    }
    notes = [f"{len(ops)} timed calls, {len(latencies)} latency samples",
             f"host factor = {scale:.4g}, during set-up {setup_host.factor:.4g} "
             "(measured time = value / factor)"]
    tail = percentile(latencies, 90)
    if isinstance(workload, FilterWorkload):
        notes.append(f"step_ms_p90 = {tail:.6g} ms")
        notes.append(f"answer_s = {median([r.answer_s for r in good]) * scale:.6g} s")
    else:
        notes.append(f"verdict_ms_p90 = {tail:.6g} ms")
        notes.append(f"verdict_ms_p99 = {percentile(latencies, 99):.6g} ms")
    return values, notes


def traced(workload, mods, modules, setup, seed: int, seconds: float, per_layer: list[str]):
    with Tracer(modules) as setup_tracer:
        workload.prepare(mods, seed)
    setup_layer = setup_tracer.metrics(0.0)

    plain, runs = [], []

    def pair(timeout: float):
        gc.collect()
        plain.append(workload.run_op(mods, setup, min(timeout, OP_TIMEOUT_S)))
        gc.collect()
        tracer = Tracer(modules)
        with tracer:
            result = workload.run_op(mods, setup, min(remaining_s(), TRACED_OP_TIMEOUT_S), tracer)
        runs.append((result, tracer))
        return result

    traced_ops = measure(seconds, TRACED_OP_TIMEOUT_S, pair)
    ops = plain + traced_ops
    check_digests(ops)
    good = [(r, tr) for r, tr in runs if not r.failed]
    layer_runs = [tr.metrics(r.wall_s) for r, tr in good]
    values = {}
    for name in per_layer:
        if name == "trace.overhead_ratio":
            base = median([r.wall_s for r in plain if not r.failed])
            values[name] = median([r.wall_s for r, _ in good]) / base if base else 0.0
        elif name.startswith(("parser.", "checker.", "benchmarks.")):
            values[name] = setup_layer[name]
        elif not layer_runs:
            values[name] = 0.0
        elif name.endswith(("_s", ".share")):
            values[name] = median([m[name] for m in layer_runs])
        else:  # counts and ratios repeat exactly; keep the first traced operation's
            values[name] = layer_runs[0][name]
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    spans = [tr.span_records() for _, tr in runs]
    (out / f"trace-{workload.name}-seed{seed}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed, "operations": spans}))
    return ops, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    try:
        mods, modules = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        memory_op, rss_mb = resident_growth(workload, mods, workload.prepare(mods, args.seed),
                                            OP_TIMEOUT_S)

    setup_host = HostClock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_host.sample(0.05)
        t0 = time.perf_counter()
        mods, modules = load_program()
        setup = workload.prepare(mods, args.seed)
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        specs = config["per_layer"]
        ops, values = traced(workload, mods, modules, setup, args.seed, args.seconds,
                             [m["name"] for m in specs])
        aliases, notes = {}, [f"{len(ops)} operations (untraced and traced)"]
    else:
        specs = config["end_to_end"]

        def op(timeout: float):
            gc.collect()
            return workload.run_op(mods, setup, timeout)

        host = HostClock()
        ops = measure(args.seconds, OP_TIMEOUT_S, op, host)
        host.sample(0.1)
        check_digests([memory_op] + ops)
        values, notes = end_to_end(workload, ops, setup_times, setup_host, host, rss_mb)
        ops.append(memory_op)
        aliases = workload.aliases

    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    notes.append(f"failed_share = {failed / max(attempted, 1):.6g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(f"workload {workload.name}, seed {args.seed}: " + "; ".join(notes))
    for name, m in metrics.items():
        alias = aliases.get(name)
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
