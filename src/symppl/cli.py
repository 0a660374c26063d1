"""Command-line front end.

Subcommands: ``analyze``, ``run``, ``gen-data``, ``bench``,
``enumerate-plans``.  Exit codes: 0 ok, 1 usage error, 2 analyze verdict
is unsatisfiable, 3 runtime error or a program the analysis cannot
interpret.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import NoReturn

import numpy as np

from . import benchmarks as bm
from .analysis import analyze
from .checker import MAX_PLAN_SITES, apply_plan, check, plan_annotations, rv_sites
from .interface import CastError
from .parser import ParseError, parse, print_program
from .runtime import DegenerateWeights, Mixture, run_model
from .ds import DsBackend
from .ssi import SsiBackend
from .sym import Distr, EvalError, distr_to_json


def _usage_error(message: str) -> NoReturn:
    """Reports ``message`` as one ``error:`` line; exits with the usage-error code."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _load_program(path: str):
    try:
        with open(path) as fh:
            source = fh.read()
    except OSError as exc:
        _usage_error(f"cannot read {path}: {exc.strerror or exc}")
    try:
        program = parse(source)
    except ParseError as exc:
        _usage_error(f"{path}:{exc}")
    diags = check(program)
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        raise SystemExit(1)
    return program


def _planned(program, plan: int | None):
    """``program`` under ``plan``; exits with the usage-error code when the
    plan index is out of range."""
    if plan is None:
        return program
    try:
        return apply_plan(program, plan)
    except ValueError as exc:
        _usage_error(str(exc))


def _int_list(text: str, flag: str, words: dict | None = None) -> list:
    """Comma-separated integers, or keys of ``words`` standing for their
    values; exits with the usage-error code otherwise."""
    words = words or {}
    try:
        return [words[p] if p in words else int(p) for p in text.split(",")]
    except ValueError:
        _usage_error(f"{flag} takes comma-separated integers, not {text!r}")


# The smallest value of each integer option; ``bench --particles`` is
# checked entry by entry.
_MINIMUM = {"particles": 1, "timesteps": 0, "seed": 0, "data_seed": 0, "trials": 1}


def _at_least(flag: str, value: int, low: int) -> int:
    """``value``; exits with the usage-error code when it is below ``low``."""
    if value < low:
        _usage_error(f"{flag} must be at least {low}, not {value}")
    return value


def _check_ranges(args) -> None:
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if isinstance(value, int):
            _at_least("--" + name.replace("_", "-"), value, low)


def _backend(method: str):
    return SsiBackend() if method == "ssi" else DsBackend()


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _tree_to_json(tree):
    if isinstance(tree, Distr):
        return distr_to_json(tree)
    if isinstance(tree, tuple):
        return {"tuple": [_tree_to_json(x) for x in tree]}
    return [_tree_to_json(x) for x in tree]


def _mixture_to_json(mix: Mixture):
    return {
        "components": [
            {"weight": w, "outputs": _tree_to_json(tree)} for w, tree in mix.components
        ],
        "casts": [{"rv": rid, "label": label} for rid, label in mix.casts],
        "output_casts": mix.output_casts,
    }


def _all_plans(program) -> tuple[list[str], list[dict[str, str]]]:
    """The annotation site names and, for each plan index, the annotation
    of each site; exits with the usage-error code when there are too many
    sites to enumerate."""
    sites = rv_sites(program)
    if len(sites) > MAX_PLAN_SITES:
        _usage_error("too many annotation sites to enumerate")
    return [s.name for s in sites], [{k: str(v) for k, v in plan_annotations(program, p).items()}
                                     for p in range(2 ** len(sites))]


def cmd_analyze(args) -> int:
    program = _load_program(args.file)
    if args.all_plans:
        _, annotations = _all_plans(program)
        plans = []
        t0 = time.perf_counter()
        for plan, ann in enumerate(annotations):
            verdict = analyze(apply_plan(program, plan), args.method)
            plans.append({
                "plan": plan,
                "annotations": ann,
                "verdict": "satisfiable" if verdict.satisfiable else "fail",
                "witnesses": [list(w) for w in verdict.witnesses],
                "elapsed_ms": round(verdict.elapsed_ms, 3),
            })
        _emit({
            "method": args.method,
            "total_plans": len(plans),
            "identified": sum(p["verdict"] == "satisfiable" for p in plans),
            "plans": plans,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        })
        return 0
    program = _planned(program, args.plan)
    verdict = analyze(program, args.method)
    _emit({
        "method": args.method,
        "verdict": "satisfiable" if verdict.satisfiable else "fail",
        "witnesses": [list(w) for w in verdict.witnesses],
        "elapsed_ms": round(verdict.elapsed_ms, 3),
    })
    return 0 if verdict.satisfiable else 2


def _benchmark(name: str) -> bm.BenchmarkSpec:
    if name not in bm.BENCHMARKS:
        _usage_error(f"unknown benchmark {name}")
    return bm.BENCHMARKS[name]


def _load_data(args, benchmark: str | None):
    spec = _benchmark(benchmark) if benchmark is not None else None
    if args.data:
        try:
            header, rows = bm.read_csv(args.data)
        except OSError as exc:
            _usage_error(f"cannot read {args.data}: {exc.strerror or exc}")
        except ValueError as exc:
            _usage_error(f"{args.data}: {exc}")
        if spec is not None:
            if header and len(header) != len(spec.data_columns):
                _usage_error(f"{args.data}: columns ({', '.join(header)}) do not match "
                             f"benchmark {spec.name}'s ({', '.join(spec.data_columns)})")
            return bm.data_value(rows, spec.bool_columns)
        return bm.data_value(rows)
    if benchmark is not None:
        value, _ = bm.data_for(benchmark, args.data_seed, args.timesteps, args.variant)
        return value
    return bm.data_value([])


def cmd_run(args) -> int:
    program = _planned(_load_program(args.file), args.plan)
    data = _load_data(args, args.benchmark)
    backend = _backend(args.method)
    t0 = time.perf_counter()
    mix = run_model(program, args.particles, args.seed, backend, data,
                    strict_casts=args.strict_casts)
    out = _mixture_to_json(mix)
    out["particles"] = args.particles
    out["seed"] = args.seed
    out["method"] = args.method
    out["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    _emit(out)
    return 0


def cmd_gen_data(args) -> int:
    spec = _benchmark(args.benchmark)
    rows, truth = bm.generate(args.benchmark, args.seed, args.timesteps, args.variant)
    prefix = args.out or args.benchmark
    bm.write_csv(f"{prefix}_data.csv", list(spec.data_columns), rows)
    bm.write_csv(f"{prefix}_truth.csv", list(spec.truth_columns),
                 bm.truth_rows(spec, truth, args.timesteps))
    _emit({"data": f"{prefix}_data.csv", "truth": f"{prefix}_truth.csv",
           "timesteps": args.timesteps, "seed": args.seed, "variant": args.variant})
    return 0


class _TrialTimeout(Exception):
    pass


def _bench_trial(name, program, method, particles, trial_seed, timesteps, timeout_s):
    """One ``bench`` trial, run in this process so trials never share the
    cores their wall times are read on."""
    data, truth = bm.data_for(name, trial_seed, timesteps)
    backend = _backend(method)
    t0 = time.perf_counter()
    if timeout_s > 0 and hasattr(signal, "SIGALRM"):
        def _expire(signum, frame):
            raise _TrialTimeout
        old = signal.signal(signal.SIGALRM, _expire)
        signal.alarm(timeout_s)
    else:
        old = None
    try:
        mix = run_model(program, particles, trial_seed, backend, data)
    except _TrialTimeout:
        return {"error": f"trial timed out after {timeout_s}s"}
    except (DegenerateWeights, EvalError) as exc:
        return {"error": str(exc)}
    finally:
        if old is not None:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
    wall = (time.perf_counter() - t0) * 1000.0
    mses = bm.mse_per_variable(name, mix, truth)
    return {"wall_ms": wall, "mse": mses, "casts": len(mix.casts)}


def cmd_bench(args) -> int:
    spec = _benchmark(args.benchmark)
    plans = _int_list(args.plans, "--plans", {"default": None})  # the default heuristic
    labels = ["default" if plan is None else str(plan) for plan in plans]
    particle_counts = [_at_least("--particles", n, _MINIMUM["particles"])
                       for n in _int_list(args.particles, "--particles")]
    _at_least("--timesteps", args.timesteps, 1)  # an error over no steps is undefined
    program = spec.program()
    planned = [_planned(program, plan) for plan in plans]
    if not args.allow_casts:
        for label, prog in zip(labels, planned):
            if not analyze(prog, args.method).satisfiable:
                print(f"error: plan {label} is unsatisfiable under {args.method} "
                      "(use --allow-casts to run anyway)", file=sys.stderr)
                return 1
    results = [_bench_trial(args.benchmark, prog, args.method, n, args.seed + trial,
                            args.timesteps, args.timeout)
               for prog in planned for n in particle_counts for trial in range(args.trials)]
    writer = sys.stdout
    var_names = [v.name for v in spec.variables]
    header = ["plan", "particles", "trials", "median_wall_ms", "mean_casts"]
    for v in var_names:
        header += [f"p10_mse_{v}", f"p50_mse_{v}", f"p90_mse_{v}"]
    header.append("errors")  # failed or timed-out trials, not counted in `trials`
    print(",".join(header), file=writer)
    idx = 0
    for label in labels:
        for n in particle_counts:
            chunk = results[idx:idx + args.trials]
            idx += args.trials
            ok = [r for r in chunk if "error" not in r]
            row = [label, str(n), str(len(ok))]
            if ok:
                row += [repr(float(np.median([r["wall_ms"] for r in ok]))),
                        repr(float(np.mean([r["casts"] for r in ok])))]
                for v in var_names:
                    vals = np.array([r["mse"][v] for r in ok])
                    row += [repr(float(np.percentile(vals, q))) for q in (10, 50, 90)]
            else:
                row += [""] * (2 + 3 * len(var_names))
            row.append(str(len(chunk) - len(ok)))
            print(",".join(row), file=writer)
    return 0


def cmd_enumerate_plans(args) -> int:
    program = _load_program(args.file)
    sites, annotations = _all_plans(program)
    out = {
        "sites": sites,
        "total_plans": len(annotations),
        "plans": [{"plan": p, "annotations": a} for p, a in enumerate(annotations)],
    }
    if args.print_programs:
        out["programs"] = [print_program(apply_plan(program, p)) for p in range(len(annotations))]
    _emit(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="symppl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="plan satisfiability analysis")
    p.add_argument("file")
    p.add_argument("--method", choices=["ssi", "ds"], default="ssi")
    p.add_argument("--plan", type=int, default=None)
    p.add_argument("--all-plans", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="run the particle filter")
    p.add_argument("file")
    p.add_argument("--method", choices=["ssi", "ds"], default="ssi")
    p.add_argument("--plan", type=int, default=None)
    p.add_argument("--particles", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", default=None, help="observation CSV")
    p.add_argument("--benchmark", default=None, help="schema for --data / generation")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--timesteps", type=int, default=10)
    p.add_argument("--variant", default="prior")
    p.add_argument("--strict-casts", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen-data", help="forward-simulate benchmark data")
    p.add_argument("benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timesteps", type=int, default=100)
    p.add_argument("--variant", default="prior", choices=["prior", "cruising", "descent"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("bench", help="accuracy/runtime profile as CSV")
    p.add_argument("benchmark")
    p.add_argument("--method", choices=["ssi", "ds"], default="ssi")
    p.add_argument("--plans", required=True,
                   help="comma-separated plan indices; default is the unannotated program")
    p.add_argument("--particles", default="16", help="comma-separated particle counts")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timesteps", type=int, default=50)
    p.add_argument("--timeout", type=int, default=60, help="per-trial budget in seconds")
    p.add_argument("--allow-casts", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("enumerate-plans", help="list all annotation plans")
    p.add_argument("file")
    p.add_argument("--print-programs", action="store_true")
    p.set_defaults(func=cmd_enumerate_plans)

    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CastError, DegenerateWeights, EvalError) as exc:  # EvalError covers AnalysisError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
