"""Benchmark registry: programs, data schemas, simulators, and metrics.

Each benchmark knows how to forward-simulate its generative model (for
``gen-data``), how to turn observation rows into the program's ``data``
value, and where each evaluated variable lives in the output tree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from .parser import parse
from .lang import Program
from .runtime import Mixture, posterior_stats
from .sym import VConst, VLst, VTup, Val


@dataclass(frozen=True)
class VarSpec:
    """Where one evaluated variable lives in the output tuple."""

    name: str
    index: int  # position in the output tuple
    series: bool  # one entry per timestep vs a single value


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    data_columns: tuple[str, ...]
    truth_columns: tuple[str, ...]
    variables: tuple[VarSpec, ...]
    simulate: Callable  # (rng, timesteps, variant) -> (rows, truth)
    bool_columns: tuple[int, ...] = ()  # data columns read as booleans

    def program(self) -> Program:
        src = (resources.files("symppl") / "models" / f"{self.name}.si").read_text()
        return parse(src)



def _sim_noise(rng: np.random.Generator, T: int, variant: str):
    q = 1.0 / rng.gamma(1.0, 1.0)
    r = 1.0 / rng.gamma(1.0, 1.0)
    x, rows, truth = 0.0, [], {"x": [], "q": q, "r": r}
    for _ in range(T):
        x = rng.normal(1.001 * x, math.sqrt(q))
        rows.append((rng.normal(2.0 * x, math.sqrt(r)),))
        truth["x"].append(x)
    return rows, truth


def _sim_radar(rng: np.random.Generator, T: int, variant: str):
    q = 1.0 / rng.gamma(1.0, 1.0)
    r = 1.0 / rng.gamma(1.0, 1.0)
    x, rows, truth = 0.0, [], {"x": [], "q": q, "r": r}
    for _ in range(T):
        x = rng.normal(x + 5.0, math.sqrt(q))
        env = rng.random() < 0.0001
        other = 1.0 / rng.gamma(1.0, 1.0)
        v = r + other if env else r
        rows.append((rng.normal(x, math.sqrt(v)),))
        truth["x"].append(x)
    return rows, truth


def _sim_envnoise(rng: np.random.Generator, T: int, variant: str):
    q = 1.0 / rng.gamma(1.0, 1.0)
    r = 1.0 / rng.gamma(1.0, 1.0)
    x, rows, truth = 0.0, [], {"x": [], "q": q, "r": r}
    for _ in range(T):
        x = rng.normal(1.001 * x, math.sqrt(q))
        env = rng.random() < 0.0001
        other = rng.beta(1.0, 1.0)
        v = r + 1000.0 * other if env else r
        rows.append((rng.normal(2.0 * x, math.sqrt(v)),))
        truth["x"].append(x)
    return rows, truth


def _sim_outlier(rng: np.random.Generator, T: int, variant: str, heavy: bool = False):
    p = rng.beta(100.0, 1000.0)
    x, rows = 0.0, []
    truth = {"xt": [], "outlier_prob": p}
    for t in range(T):
        x = rng.normal(0.0 if t == 0 else x, math.sqrt(2500.0 if t == 0 else 1.0))
        out = rng.random() < p
        if heavy:
            y = x + 1.1 * rng.standard_t(1.0) if out else rng.normal(x, 1.0)
        else:
            y = rng.normal(0.0, 100.0) if out else rng.normal(x, 1.0)
        rows.append((y,))
        truth["xt"].append(x)
    return rows, truth


def _sim_tree(rng: np.random.Generator, T: int, variant: str):
    a = rng.normal(0.0, 10.0)
    rows, truth = [], {"a": a, "b": []}
    for _ in range(T):
        b = rng.normal(a, math.sqrt(10.0))
        rows.append((rng.normal(b, math.sqrt(1000.0)), rng.normal(a, math.sqrt(1000.0))))
        truth["b"].append(b)
    return rows, truth


def _sim_slds(rng: np.random.Generator, T: int, variant: str):
    tp0, tp1 = rng.beta(1.0, 1.0), rng.beta(1.0, 1.0)
    on0 = 1.0 / rng.gamma(1.0, 1.0)
    on1 = 1.0 / rng.gamma(1.0, 1.0)
    s, x = False, 0.0
    rows = []
    truth = {"s": [], "x": [], "trans_prob0": tp0, "trans_prob1": tp1,
             "obs_noise0": on0, "obs_noise1": on1}
    for _ in range(T):
        s = rng.random() < (tp1 if s else tp0)
        x = rng.normal(x, math.sqrt(1.2429 if s else 0.02248262))
        rows.append((rng.normal(x, math.sqrt(on1 if s else on0)),))
        truth["s"].append(1.0 if s else 0.0)
        truth["x"].append(x)
    return rows, truth


def _sim_runner(rng: np.random.Generator, T: int, variant: str):
    sx, sy, x, y = 0.0, 0.0, 0.1, 0.1
    rows = []
    truth = {"sx": [], "sy": [], "x": [], "y": []}
    for _ in range(T):
        sx_new = rng.normal(sx, math.sqrt(0.1))
        sy_new = rng.normal(sy, math.sqrt(0.1))
        x_new = rng.normal(x + sx, math.sqrt(1.0))
        y_new = rng.normal(y + sy, math.sqrt(1.0))
        sx, sy, x, y = sx_new, sy_new, x_new, y_new
        a = 10 - 0.01 * x * x + 0.0001 * x ** 3 if 50 < y else x + 0.1
        rows.append((rng.normal(sx, 1.0), rng.normal(sy, 1.0), rng.normal(a, 1.0)))
        truth["sx"].append(sx)
        truth["sy"].append(sy)
        truth["x"].append(x)
        truth["y"].append(y)
    return rows, truth


def _sim_slam(rng: np.random.Generator, T: int, variant: str):
    max_pos = 10
    cells = [bool(rng.random() < 0.5) for _ in range(max_pos + 1)]
    x, rows = 0, []
    truth = {"x": [], **{f"cell{i}": 1.0 if c else 0.0 for i, c in enumerate(cells)}}
    for _ in range(T):
        cmd = int(rng.choice([-1, 1]))
        slip = rng.random() < 0.1
        nxt = x + cmd
        cmd2 = 0 if nxt < 0 or nxt > max_pos else cmd
        if not slip:
            x = x + cmd2
        o = cells[x]
        obs = rng.random() < (0.9 if o else 0.1)
        rows.append((1.0 if obs else 0.0, float(cmd)))
        truth["x"].append(float(x))
    return rows, truth


def _sim_wheels(rng: np.random.Generator, T: int, variant: str):
    v, o = 0.0, 0.0
    rows, truth = [], {"velocity": [], "omega": []}
    for t in range(T):
        noise = 2500.0 if t == 0 else 1.0
        o = rng.normal(o, math.sqrt(noise))
        v = rng.normal(v, math.sqrt(noise))
        rows.append((rng.normal(v - 2.0 * o, 1.0), rng.normal(v + 2.0 * o, math.sqrt(0.95))))
        truth["velocity"].append(v)
        truth["omega"].append(o)
    return rows, truth


def _sim_aircraft(rng: np.random.Generator, T: int, variant: str):
    q = 1.0 / rng.gamma(1.0, 1.0)
    r = 1.0 / rng.gamma(1.0, 1.0)
    x = 0.0
    rows = []
    truth = {"x": [], "alt": [], "q": q, "r": r}
    if variant == "prior":
        alt = 0.0
        alt_path = None
    else:
        alt = 10.0
        if variant == "descent":
            alt_path = [10.0 - 10.0 * t / max(T - 1, 1) for t in range(T)]
        else:  # cruising
            alt_path = [10.0] * T
    for t in range(T):
        x = rng.normal(x, math.sqrt(q))
        if alt_path is None:
            alt = rng.normal(alt, math.sqrt(q))
        else:
            alt = alt_path[t] + rng.normal(0.0, 0.05)
        other = 1.0 / rng.gamma(1.0, 0.1)
        v = r + other if alt < 5.0 else r
        rows.append((rng.normal(x, math.sqrt(v)), rng.normal(alt, math.sqrt(v))))
        truth["x"].append(x)
        truth["alt"].append(alt)
    return rows, truth


BENCHMARKS: dict[str, BenchmarkSpec] = {}


def _register(name, data_columns, truth_columns, variables, simulate, bool_columns=()):
    BENCHMARKS[name] = BenchmarkSpec(name, tuple(data_columns), tuple(truth_columns),
                                     tuple(variables), simulate, bool_columns)


_register("noise", ["zobs"], ["x", "q", "r"],
          [VarSpec("x", 0, True), VarSpec("q", 1, False), VarSpec("r", 2, False)],
          _sim_noise)
_register("radar", ["obs"], ["x", "q", "r"],
          [VarSpec("x", 0, True), VarSpec("q", 1, False), VarSpec("r", 2, False)],
          _sim_radar)
_register("envnoise", ["obs"], ["x", "q", "r"],
          [VarSpec("x", 0, True), VarSpec("q", 1, False), VarSpec("r", 2, False)],
          _sim_envnoise)
_register("outlier", ["yobs"], ["xt", "outlier_prob"],
          [VarSpec("outlier_prob", 0, False), VarSpec("xt", 1, True)],
          lambda rng, T, variant: _sim_outlier(rng, T, variant, heavy=False))
_register("outlierheavy", ["yobs"], ["xt", "outlier_prob"],
          [VarSpec("outlier_prob", 0, False), VarSpec("xt", 1, True)],
          lambda rng, T, variant: _sim_outlier(rng, T, variant, heavy=True))
_register("tree", ["obs_b", "obs_a"], ["a", "b"],
          [VarSpec("a", 0, False), VarSpec("b", 1, True)],
          _sim_tree)
_register("slds", ["yobs"],
          ["s", "x", "trans_prob0", "trans_prob1", "obs_noise0", "obs_noise1"],
          [VarSpec("trans_prob0", 0, False), VarSpec("trans_prob1", 1, False),
           VarSpec("obs_noise0", 2, False), VarSpec("obs_noise1", 3, False),
           VarSpec("s", 4, True), VarSpec("x", 5, True)],
          _sim_slds)
_register("runner", ["sx_obs", "sy_obs", "a_obs"], ["sx", "sy", "x", "y"],
          [VarSpec("sx", 0, True), VarSpec("sy", 1, True),
           VarSpec("x", 2, True), VarSpec("y", 3, True)],
          _sim_runner)
_register("slam", ["obs", "cmd"], ["x"] + [f"cell{i}" for i in range(11)],
          [VarSpec("map", 0, True), VarSpec("x", 1, False)],
          _sim_slam, bool_columns=(0,))
_register("wheels", ["left_wheel_rate", "right_wheel_rate"], ["velocity", "omega"],
          [VarSpec("velocity", 0, False), VarSpec("omega", 1, False)],
          _sim_wheels)
_register("aircraft", ["x_obs", "alt_obs"], ["x", "alt", "q", "r"],
          [VarSpec("x", 0, True), VarSpec("alt", 1, True),
           VarSpec("q", 2, False), VarSpec("r", 3, False)],
          _sim_aircraft)


def generate(name: str, seed: int, timesteps: int, variant: str = "prior"):
    spec = BENCHMARKS[name]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return spec.simulate(rng, timesteps, variant)


def write_csv(path: str, columns: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])


def truth_rows(spec: BenchmarkSpec, truth: dict, timesteps: int) -> list[tuple]:
    rows = []
    for t in range(timesteps):
        row = []
        for col in spec.truth_columns:
            v = truth[col]
            row.append(v[t] if isinstance(v, list) else v)
        rows.append(tuple(row))
    return rows


def read_csv(path: str) -> tuple[list[str], list[tuple[float, ...]]]:
    """The header (empty for an empty file) and the numeric rows.  Blank
    lines are skipped; a row whose length differs from the header's is a
    ``ValueError``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num}: expected {len(header)} values, "
                                 f"one per header column, found {len(row)}")
            rows.append(tuple(float(x) for x in row))
        return header, rows


def data_value(rows: list[tuple[float, ...]], bool_columns: tuple[int, ...] = ()) -> Val:
    """Data rows as a list value: a one-column row is its value, a longer
    row a tuple; columns in ``bool_columns`` are read as booleans."""
    values = [tuple(VConst(bool(x) if i in bool_columns else x) for i, x in enumerate(r))
              for r in rows]
    return VLst(tuple(v[0] if len(v) == 1 else VTup(v) for v in values))


def data_for(name: str, seed: int, timesteps: int, variant: str = "prior") -> tuple[Val, dict]:
    """Generate observations in memory and return (data value, truth)."""
    rows, truth = generate(name, seed, timesteps, variant)
    return data_value(rows, BENCHMARKS[name].bool_columns), truth


def mse_per_variable(name: str, mix: Mixture, truth: dict) -> dict[str, float]:
    """Mean squared error of posterior means against ground truth."""
    spec = BENCHMARKS[name]
    out: dict[str, float] = {}
    for var in spec.variables:
        if var.name == "map":
            errs = []
            for i in range(11):
                mean, _ = posterior_stats(mix, (var.index, i))
                errs.append((mean - truth[f"cell{i}"]) ** 2)
            out["map"] = float(np.mean(errs))
        elif var.series:
            series = truth[var.name]
            errs = []
            for t in range(len(series)):
                mean, _ = posterior_stats(mix, (var.index, t))
                errs.append((mean - series[t]) ** 2)
            out[var.name] = float(np.mean(errs))
        else:
            v = truth[var.name]
            v = v[-1] if isinstance(v, list) else v
            mean, _ = posterior_stats(mix, (var.index,))
            out[var.name] = float((mean - v) ** 2)
    return out
