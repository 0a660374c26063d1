"""Tests of the benchmark's tracer and its failure mode.

Run from the repository root with ``python3 -m pytest perfbench``.  The
filter workloads run here at reduced sizes; the analysis sweep runs in
full (about a second).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, FilterWorkload  # noqa: E402

sys.path.insert(0, str(run.SRC))

# Each count metric and the workload on which it must be non-zero.
TARGET_COUNTS = {
    "noise-ssi-chain": [
        "interface.value_star.calls", "ssi.hoist.calls", "ssi.hoist.filter.calls",
        "ssi.hoist.extract.calls", "ssi.swap.calls", "ssi.topo_sort.calls",
        "conjugacy.affine_of.calls", "sym.free_rvs.calls", "sym.reachable.calls",
        "sym.reachable.nodes", "sym.draw.calls",
    ],
    "noise-ds-params": [
        "runtime.subst.calls", "sym.SymState.eval_value.calls",
        "runtime.copy_for_resample.calls", "sym.SymState.copy.entries", "ds.graft.calls",
        "ds.marginalize.calls", "ds.realize.calls", "ds.value.calls",
        "conjugacy.match_case.calls",
    ],
    "analyze-all-plans": [
        "runtime.subst.calls", "analysis.fold_fixpoint.calls",
        "analysis.fold_fixpoint.iterations", "analysis.rename_join.calls",
        "absdomain.join_states.calls", "absdomain.widen.calls",
    ],
}
# Zero on every workload by construction: CastLog.record counts casts, which
# the output checks forbid, and plan 4 of the noise model never prunes.
ALWAYS_ZERO = {"interface.CastLog.record.calls", "ds.prune.calls"}

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in CONFIG["per_layer"] if m["unit"] == "count"]


def small(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, particles=4, timesteps=10) if isinstance(w, FilterWorkload) else w


def traced_counts(name: str, seed: int) -> tuple[dict, str]:
    w = small(name)
    mods, modules = run.load_program()
    setup = w.prepare(mods, seed)
    tracer = Tracer(modules)
    with tracer:
        result = w.run_op(mods, setup, 60.0, tracer)
    assert result.failed == 0
    metrics = tracer.metrics(result.wall_s)
    return {k: metrics[k] for k in COUNTS}, result.digest


def test_every_count_has_a_target_workload():
    listed = {k for names in TARGET_COUNTS.values() for k in names} | ALWAYS_ZERO
    assert set(COUNTS) == listed


@pytest.mark.parametrize("name", sorted(TARGET_COUNTS))
def test_counts_nonzero_on_target_and_repeatable(name):
    first, digest1 = traced_counts(name, seed=3)
    second, digest2 = traced_counts(name, seed=3)
    assert first == second
    assert digest1 == digest2
    assert [k for k in TARGET_COUNTS[name] if not first[k]] == []
    assert [k for k in ALWAYS_ZERO if first[k]] == []


def test_backends_do_not_cross():
    ssi, _ = traced_counts("noise-ssi-chain", seed=4)
    ds, _ = traced_counts("noise-ds-params", seed=4)
    assert all(v == 0 for k, v in ssi.items() if k.startswith("ds."))
    assert all(v == 0 for k, v in ds.items() if k.startswith("ssi."))


def bindings(modules: dict) -> dict:
    out = {}
    for mname, module in modules.items():
        for name, value in vars(module).items():
            out[mname, name] = value
            if isinstance(value, type):
                out.update(((mname, name, k), v) for k, v in vars(value).items())
    return out


def test_tracer_patches_aliases_and_restores_every_binding():
    mods, modules = run.load_program()
    before = bindings(modules)
    with Tracer(modules):
        assert mods.analysis.esubst is mods.runtime.subst
        assert mods.ssi.reachable is mods.sym.reachable
        assert mods.runtime.subst is not before["runtime", "subst"]
    after = bindings(modules)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "noise-ssi-chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
