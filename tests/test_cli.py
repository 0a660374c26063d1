"""Command-line interface surface: exit codes, JSON shape, reproducibility."""

import json
import subprocess
import sys
from importlib import resources

import pytest

MODELS = resources.files("symppl") / "models"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "symppl.cli", *args],
        capture_output=True, text=True, timeout=600,
    )


def test_analyze_all_plans_identified_count():
    r = run_cli("analyze", str(MODELS / "noise.si"), "--method", "ssi", "--all-plans")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["identified"] == 5 and out["total_plans"] == 8


def test_analyze_fail_exit_code():
    r = run_cli("analyze", str(MODELS / "aircraft.si"), "--method", "ssi", "--plan", "30")
    assert r.returncode == 2
    assert json.loads(r.stdout)["verdict"] == "fail"


def test_analyze_satisfiable_exit_code():
    r = run_cli("analyze", str(MODELS / "aircraft.si"), "--method", "ssi", "--plan", "15")
    assert r.returncode == 0


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.si"
    bad.write_text("let x <- in")
    r = run_cli("analyze", str(bad))
    assert r.returncode == 1


def test_run_deterministic_json():
    args = ("run", str(MODELS / "noise.si"), "--method", "ssi", "--plan", "3",
            "--benchmark", "noise", "--particles", "6", "--seed", "3",
            "--timesteps", "5", "--data-seed", "17")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    ja, jb = json.loads(a.stdout), json.loads(b.stdout)
    ja.pop("wall_ms"), jb.pop("wall_ms")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_run_reports_casts():
    r = run_cli("run", str(MODELS / "aircraft.si"), "--method", "ssi", "--plan", "30",
                "--benchmark", "aircraft", "--particles", "2", "--seed", "0",
                "--timesteps", "4", "--variant", "descent")
    out = json.loads(r.stdout)
    assert len(out["casts"]) > 0


def test_gen_data_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        r = run_cli("gen-data", "noise", "--seed", "5", "--timesteps", "20",
                    "--out", str(prefix))
        assert r.returncode == 0
    assert (a.parent / "a_data.csv").read_bytes() == (b.parent / "b_data.csv").read_bytes()
    assert (a.parent / "a_truth.csv").read_bytes() == (b.parent / "b_truth.csv").read_bytes()
    header = (a.parent / "a_data.csv").read_text().splitlines()[0]
    assert header == "zobs"


def test_gen_data_zero_timesteps(tmp_path):
    r = run_cli("gen-data", "noise", "--timesteps", "0", "--out", str(tmp_path / "z"))
    assert r.returncode == 0
    assert (tmp_path / "z_data.csv").read_text().strip() == "zobs"


def test_gen_data_unknown_benchmark():
    assert run_cli("gen-data", "nonesuch").returncode == 1


def test_bench_unsatisfiable_plan_refused():
    r = run_cli("bench", "noise", "--method", "ssi", "--plans", "0", "--trials", "1")
    assert r.returncode == 1


def test_bench_single_row():
    r = run_cli("bench", "noise", "--method", "ssi", "--plans", "7", "--particles", "4",
                "--trials", "2", "--timesteps", "5")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("plan,particles,trials,median_wall_ms")
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "7"
    assert lines[1].split(",")[-1] == "0"  # errors


def test_enumerate_plans():
    r = run_cli("enumerate-plans", str(MODELS / "tree.si"))
    out = json.loads(r.stdout)
    assert out["total_plans"] == 4 and out["sites"] == ["b", "a"]


@pytest.mark.parametrize("command", ["run", "analyze", "bench"])
def test_plan_out_of_range_is_a_usage_error(command):
    if command == "bench":
        r = run_cli(command, "noise", "--plans", "99", "--trials", "1")
    else:
        r = run_cli(command, str(MODELS / "noise.si"), "--plan", "99")
    assert r.returncode == 1
    assert r.stderr == "error: plan 99 out of range for 3 sites\n"
    assert r.stdout == ""


@pytest.mark.parametrize("argv", [["analyze", "--all-plans"], ["enumerate-plans"]])
def test_too_many_sites_to_enumerate_is_a_usage_error(argv, tmp_path, capsys):
    src = tmp_path / "wide.si"
    src.write_text("".join(f"let x{i} <- gaussian(0., 1.) in\n" for i in range(21)) + "x20\n")
    code, out, err = main_out(capsys, argv[0], str(src), *argv[1:])
    assert (code, out, err) == (1, "", "error: too many annotation sites to enumerate\n")


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_data_outside_main_is_a_usage_error(command, tmp_path):
    src = tmp_path / "data.si"
    src.write_text("let f = fun (z) -> let n = len(data) in z + n\n"
                   "let y = f(1.) in\n"
                   "y\n")
    r = run_cli(command, str(src))
    assert r.returncode == 1
    assert r.stderr == "error: function f uses data, which is bound only in main\n"
    assert r.stdout == ""


def test_bench_reports_failed_trials():
    # a stream far too long for a one-second budget: the trial times out
    r = run_cli("bench", "noise", "--method", "ssi", "--plans", "7", "--particles", "16",
                "--trials", "1", "--timesteps", "5000", "--timeout", "1")
    assert r.returncode == 0
    header, row = r.stdout.strip().splitlines()
    assert header.split(",")[-1] == "errors"
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["plan"] == "7" and cells["trials"] == "0" and cells["errors"] == "1"
    assert cells["median_wall_ms"] == "" and cells["p50_mse_x"] == ""


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_resample_in_operator_argument_is_a_usage_error(command, tmp_path):
    src = tmp_path / "bad.si"
    src.write_text("let f = fun (a) -> let () = resample() in a\n"
                   "let y = f(1.) + 2. in y\n")
    r = run_cli(command, str(src))
    assert r.returncode == 1
    assert r.stderr == "error: call of f, which can resample, outside a sequencing position\n"
    assert r.stdout == ""


@pytest.mark.parametrize("name", ["slam", "runner", "noise"])
def test_data_csv_matches_generated_data(name, tmp_path):
    import argparse

    from symppl import benchmarks as bm
    from symppl.cli import _load_data, main

    assert main(["gen-data", name, "--seed", "4", "--timesteps", "6",
                 "--out", str(tmp_path / name)]) == 0
    args = argparse.Namespace(data=str(tmp_path / f"{name}_data.csv"))
    value, _ = bm.data_for(name, 4, 6)
    assert repr(_load_data(args, name)) == repr(value)  # repr tells True from 1.0


MAP_OF_OBSERVING_FUNCTION = """\
let f = fun (z) -> let () = observe(gaussian(0., 1.), z) in z
let x <- gaussian(0., 1.) in
let y = if x < 0. then List.map(f, [1.]) else [2.] in
y
"""


def main_out(capsys, *argv):
    from symppl.cli import main

    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_map_of_observing_function_is_impure(method, tmp_path, capsys):
    # a symbolic if-condition whose branch maps an observing function must be
    # forced, not evaluated on both sides
    src = tmp_path / "map.si"
    src.write_text(MAP_OF_OBSERVING_FUNCTION)
    code, out, _ = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                            "--particles", "2")
    assert code == 0
    assert json.loads(out)["casts"]
    _, verdict, _ = main_out(capsys, "analyze", str(src), "--method", method, "--plan", "0")
    code, _, err = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                            "--particles", "2", "--strict-casts")
    cast_error = code == 3 and err.startswith("error: unsatisfiable annotation")
    # the analysis calls the plan satisfiable exactly when a strict run needs no cast
    assert (json.loads(verdict)["verdict"] == "satisfiable") != cast_error


# `List.map(f, l)` is parsed as a fold over a generated `__map_f`, declared
# right after `f`, and `fold_resample(f, l, a)` as a fold over `__f_resample`:
# the checker's no-recursion rule and the analysis's fold fixpoint cover both.
MAP_RECURSION = {
    "g": "let g = fun x -> List.map(g, [x])\ng(1.)\n",
    "h": "let g = fun x -> List.map(h, [x])\nlet h = fun y -> y + 1.\ng(1.)\n",
}

FOLD_RESAMPLE_STEP = """\
let step = fun (z, acc) ->
  let x <- gaussian(acc, 1.) in
  let () = observe(gaussian(x, 1.), z) in
  x
"""
FOLD_RESAMPLE_IN_FUNCTION = (FOLD_RESAMPLE_STEP + "let g = fun l -> fold_resample(step, l, 0.)\n"
                             "g(data)\n")
FOLD_RESAMPLE_IN_MAIN = FOLD_RESAMPLE_STEP + "fold_resample(step, data, 0.)\n"

# a map over the data stream, whose length the analysis does not know; the
# second forces its symbolic `w` through a mean that is not linear in it
MAP_OVER_DATA = {
    "satisfiable": "let f = fun (z) -> z + 1.\nlet ys = List.map(f, data) in\nys\n",
    "fail": """\
let f = fun (z) -> let w <- gaussian(z, 1.) in w
let ws = List.map(f, data) in
let w = List.hd(ws) in
let () = observe(gaussian(w * w, 1.), 0.5) in
w
""",
}


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("base", sorted(MAP_RECURSION))
def test_recursion_through_map_is_one_error_line(base, command, tmp_path, capsys):
    from symppl import check, parse

    message = f"function g may not fold over __map_{base} (no recursion)"
    assert check(parse(MAP_RECURSION[base])) == [message]
    src = tmp_path / "rec.si"
    src.write_text(MAP_RECURSION[base])
    assert main_out(capsys, command, str(src), "--plan", "0") == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_fold_resample_in_a_function_body_runs_and_analyzes(method, tmp_path, capsys):
    # as it does in main: the same run output and the same verdict
    from symppl import check, parse

    results = []
    for name, source in [("function", FOLD_RESAMPLE_IN_FUNCTION), ("main", FOLD_RESAMPLE_IN_MAIN)]:
        assert check(parse(source)) == []
        src = tmp_path / f"{name}.si"
        src.write_text(source)
        code, out, err = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                                  "--benchmark", "noise", "--timesteps", "4", "--particles", "4")
        assert (code, err) == (0, "")
        run = json.loads(out)
        run.pop("wall_ms")
        code, out, err = main_out(capsys, "analyze", str(src), "--method", method, "--plan", "0")
        assert code in (0, 2) and err == ""
        verdict = json.loads(out)
        verdict.pop("elapsed_ms")
        results.append((run, verdict))
    assert results[0] == results[1]
    assert results[0][0]["casts"] == []


@pytest.mark.parametrize("method", ["ssi", "ds"])
@pytest.mark.parametrize("expected", sorted(MAP_OVER_DATA))
def test_map_over_data_gets_the_verdict_a_strict_run_confirms(expected, method, tmp_path, capsys):
    src = tmp_path / "map.si"
    src.write_text(MAP_OVER_DATA[expected])
    _, verdict, _ = main_out(capsys, "analyze", str(src), "--method", method, "--plan", "0")
    assert json.loads(verdict)["verdict"] == expected
    code, _, err = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                            "--benchmark", "noise", "--timesteps", "4", "--particles", "2",
                            "--strict-casts")
    cast_error = code == 3 and err.startswith("error: unsatisfiable annotation")
    assert cast_error or (code, err) == (0, "")
    assert (expected == "satisfiable") != cast_error


def test_map_and_fold_resample_programs_round_trip():
    from symppl import parse, print_program

    for source in [*MAP_RECURSION.values(), FOLD_RESAMPLE_IN_FUNCTION, FOLD_RESAMPLE_IN_MAIN,
                   *MAP_OVER_DATA.values()]:
        prog = parse(source)
        assert parse(print_program(prog)) == prog, source


# SHA-256 of `run ... --particles 4 --seed 0 --timesteps 8` JSON without
# `wall_ms`, recorded before the evaluator became environment-based: one
# satisfiable and one rejected plan per model, both backends.  `outlier-0-ssi`
# and `slam-0-ssi` were recorded again when SSI output marginals began to be
# read along the chain instead of by hoisting: outlier's marginals moved in
# the last bits (at most 6e-16 relative), and slam's rejected plan forces
# 11 variables per particle instead of 12 to extract its outputs.
RUN_DIGESTS = [
    ("noise", 4, "ssi", "f4303ffc0c33d2aad0943c7d10ee323e11e6a51378db7d8fa5d84b5918c7cd69"),
    ("noise", 4, "ds", "c64895f4740565756c6647d9f7a86b9146cf006a0fc1c6c27e1ffd2c1e7684cc"),
    ("noise", 0, "ssi", "c28062c318c601f735bbb4a08e0e8246f24f82babb1a26d226fba981ac0755e2"),
    ("noise", 0, "ds", "f243a9d1d7b4eb91173d6eba1e90a1805548c27862d2a1983085b6205c73949b"),
    ("outlier", 6, "ssi", "7c3f00515294f98b29a7f25672d10ee0031d89d73ce42e594c2c060767c09319"),
    ("outlier", 6, "ds", "3703842d68039cad6b7718f1163ac5cf765ce6b48a95aaf27c28118f77f6ca20"),
    ("outlier", 0, "ssi", "f5e23187fedbeab04e680314b585fd358743c11f3a390a6c849c630adf556b97"),
    ("outlier", 0, "ds", "8f025fe46ce6036d3bc40953dd395a2d1896ff781df160a19406e6086100fc47"),
    ("slds", 112, "ssi", "3449c85f0c3db3655b4ba072e169896368ee5794ec684c5c1cb0cc05f1bdf3fc"),
    ("slds", 112, "ds", "4ee4dd73bbecdf63bb0e0bee54004040ab85cf208c414840dff8231971c1c9e4"),
    ("slds", 0, "ssi", "b77e5defd3aa829c87c11bb3a522f3833111534141fa403378d104b440dc2fb0"),
    ("slds", 0, "ds", "77faaf2cdd94efef5247bae6a0d45e80be13768180ccaa1988beebd2e774bc83"),
    ("slam", 1, "ssi", "0ff0d30c762c0db8208d3a0d2fe48beffe7f79827452fd77fe27d4371880f4b3"),
    ("slam", 1, "ds", "0f74b2252b6849f1e240b1865c8ba434ed2bc7a830303a1c79245beda11814ee"),
    ("slam", 0, "ssi", "b0ebadf0a5209c1d584a9febed93f1af9bd8d8e7e386afcd8747aec445ae9590"),
    ("slam", 0, "ds", "3d332b48d0ef7b9d5010b28659bfc766eecaebc22be2e0fab8f77c538431fe5a"),
]


@pytest.mark.parametrize("name,plan,method,digest", RUN_DIGESTS,
                         ids=[f"{n}-{p}-{m}" for n, p, m, _ in RUN_DIGESTS])
def test_run_output_matches_recorded_digest(name, plan, method, digest, capsys):
    import hashlib

    code, out, err = main_out(capsys, "run", str(MODELS / f"{name}.si"), "--method", method,
                              "--plan", str(plan), "--benchmark", name, "--particles", "4",
                              "--seed", "0", "--timesteps", "8")
    assert (code, err) == (0, "")
    result = json.loads(out)
    result.pop("wall_ms")
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == digest


# SHA-256 of the sorted (exit code, stderr, JSON without `wall_ms`) rows of
# `run <model>.si --method <b> --plan <p> --benchmark <model> --particles 4
# --seed 0 --timesteps 8` (aircraft with `--variant descent`) over every
# shipped model, plan and backend.
RUN_SWEEP_DIGEST = "ee848a7482dba413c5f29e196fea7f4e84eebba7609ddbc3219923a1b539e978"


def test_run_sweep_matches_recorded_digest(capsys):
    import hashlib

    from symppl import rv_sites
    from symppl.benchmarks import BENCHMARKS

    rows = []
    for name in sorted(BENCHMARKS):
        variant = ["--variant", "descent"] if name == "aircraft" else []
        for plan in range(2 ** len(rv_sites(BENCHMARKS[name].program()))):
            for method in ("ssi", "ds"):
                code, out, err = main_out(
                    capsys, "run", str(MODELS / f"{name}.si"), "--method", method,
                    "--plan", str(plan), "--benchmark", name, "--particles", "4",
                    "--seed", "0", "--timesteps", "8", *variant)
                if out:
                    result = json.loads(out)
                    result.pop("wall_ms")
                    out = json.dumps(result, sort_keys=True)
                rows.append((code, err, out))
    assert len(rows) == 552
    assert hashlib.sha256(repr(sorted(rows)).encode()).hexdigest() == RUN_SWEEP_DIGEST


ANALYSIS_LIMITS = {
    "pattern arity mismatch": "let (a, b) = (1., 2., 3.) in a\n",
}


@pytest.mark.parametrize("plans", [["--plan", "0"], ["--all-plans"]])
@pytest.mark.parametrize("limit", sorted(ANALYSIS_LIMITS))
def test_analysis_limit_is_one_error_line(limit, plans, tmp_path, capsys):
    src = tmp_path / "limit.si"
    src.write_text(ANALYSIS_LIMITS[limit])
    code, out, err = main_out(capsys, "analyze", str(src), *plans)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {limit}") and err.count("\n") == 1


@pytest.mark.parametrize("plans", [["--plan", "0"], ["--all-plans"]])
def test_unconverged_fold_fixpoint_is_one_error_line(plans, capsys, monkeypatch):
    from symppl import analysis

    monkeypatch.setattr(analysis, "FOLD_ITER_LIMIT", 0)
    code, out, err = main_out(capsys, "analyze", str(MODELS / "noise.si"), *plans)
    assert (code, out, err) == (3, "", "error: fold fixpoint did not converge\n")


@pytest.mark.parametrize("flag,value", [("--plans", "x"), ("--particles", "4x")])
def test_bench_non_integer_list_is_a_usage_error(flag, value, capsys):
    code, out, err = main_out(capsys, "bench", "noise", "--plans", "7", "--trials", "1",
                              flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} takes comma-separated integers, not '{value}'\n"


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_pattern_mismatch_names_the_pattern_and_the_shape(command, tmp_path, capsys):
    src = tmp_path / "pattern.si"
    src.write_text("let (a, b) = (1., 2., 3.) in a\n")
    code, out, err = main_out(capsys, command, str(src))
    assert (code, out) == (3, "")
    assert err == "error: pattern arity mismatch: (a, b) does not match a 3-tuple\n"


DEEP_CHAIN = """\
let step = fun (i, x) ->
  let y <- gaussian(x, 1.) in
  y
let x0 <- gaussian(0., 1.) in
let xt = fold(step, List.range(0, 1500), x0) in
let () = observe(gaussian(xt, 1.), 0.5) in
xt
"""


@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_deep_chain_runs_and_analyzes_without_recursion(method, tmp_path, capsys):
    # 1,500 linear-Gaussian steps: deeper than Python's default stack allows
    # a recursive hoist or graft to go
    src = tmp_path / "chain.si"
    src.write_text(DEEP_CHAIN)
    code, out, err = main_out(capsys, "run", str(src), "--method", method,
                              "--particles", "2", "--seed", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["casts"] == []
    code, out, err = main_out(capsys, "analyze", str(src), "--method", method, "--plan", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "satisfiable"


def let_chain(depth: int) -> str:
    """``depth`` nested lets over one random variable."""
    lines = ["let x0 <- gaussian(0., 1.) in"]
    lines += [f"let x{i} = x{i - 1} + 1. in" for i in range(1, depth + 1)]
    return "\n".join(lines) + f"\nx{depth}\n"


@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_450_deep_let_chain_runs_and_analyzes(method, tmp_path, capsys):
    # every walk over the program (parse, check, apply_plan, closing main
    # over data, the purity scan) goes this deep with x0 symbolic
    src = tmp_path / "lets.si"
    src.write_text(let_chain(450))
    code, out, err = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                              "--particles", "2", "--seed", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["casts"] == []
    code, out, err = main_out(capsys, "analyze", str(src), "--method", method, "--plan", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "satisfiable"


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_too_deep_nesting_is_one_parse_error_line(command, tmp_path, capsys):
    src = tmp_path / "deep.si"
    src.write_text(let_chain(2000))
    code, out, err = main_out(capsys, command, str(src))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {src}:") and err.count("\n") == 1
    assert err.endswith(": expression nested too deeply\n")


def test_bench_runs_its_trials_in_process(monkeypatch, capsys):
    monkeypatch.setenv("SYMPPL_WORKERS", "x")  # the removed worker-count knob is not read
    code, out, err = main_out(capsys, "bench", "noise", "--plans", "7", "--particles", "4",
                              "--trials", "2", "--timesteps", "5")
    assert (code, err) == (0, "")
    rows = out.strip().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[:3] == ["7", "4", "2"]


def test_bench_runs_the_default_heuristic_as_plan_default(monkeypatch, capsys):
    from symppl import cli
    from symppl.benchmarks import BENCHMARKS

    ran = []
    real = cli.run_model

    def recorded(program, *args):
        ran.append(program)
        return real(program, *args)

    monkeypatch.setattr(cli, "run_model", recorded)
    code, out, err = main_out(capsys, "bench", "noise", "--plans", "default,7", "--particles",
                              "4", "--trials", "1", "--timesteps", "5")
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.strip().splitlines()[1:]]
    assert [row[:3] for row in rows] == [["default", "4", "1"], ["7", "4", "1"]]
    assert ran == [BENCHMARKS["noise"].program(), cli.apply_plan(BENCHMARKS["noise"].program(), 7)]


@pytest.mark.parametrize("command", ["run", "analyze", "enumerate-plans"])
def test_parse_error_is_one_error_line(command, tmp_path, capsys):
    src = tmp_path / "bad.si"
    src.write_text("let x = (1. + 2.\nx\n")
    code, out, err = main_out(capsys, command, str(src))
    assert (code, out) == (1, "")
    assert err == f"error: {src}:2:1: expected ')', found 'x'\n"


@pytest.mark.parametrize("command", ["run", "analyze", "enumerate-plans"])
def test_missing_program_is_one_error_line(command, tmp_path, capsys):
    missing = tmp_path / "missing.si"
    code, out, err = main_out(capsys, command, str(missing))
    assert (code, out, err) == (1, "", f"error: cannot read {missing}: No such file or directory\n")


def test_missing_data_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, out, err = main_out(capsys, "run", str(MODELS / "noise.si"), "--data", str(missing))
    assert (code, out, err) == (1, "", f"error: cannot read {missing}: No such file or directory\n")


@pytest.mark.parametrize("schema", [[], ["--benchmark", "noise"]])
def test_non_numeric_data_cell_is_one_error_line(schema, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("zobs\n1.0\nabc\n")
    code, out, err = main_out(capsys, "run", str(MODELS / "noise.si"), "--data", str(data),
                              *schema)
    assert (code, out) == (1, "")
    assert err == f"error: {data}: could not convert string to float: 'abc'\n"


def test_unknown_run_benchmark_is_a_usage_error(capsys):
    code, out, err = main_out(capsys, "run", str(MODELS / "noise.si"), "--benchmark", "nonesuch")
    assert (code, out, err) == (1, "", "error: unknown benchmark nonesuch\n")


OUT_OF_DOMAIN = {
    "invgamma": ("let sample v <- invgamma(0. - 1., 1.) in v\n",
                 "invgamma parameters must be positive"),
    "beta": ("let sample v <- beta(0., 1.) in v\n", "beta parameters must be positive"),
    "student_t": ("let sample v <- student_t(0., 0. - 2., 1.) in v\n",
                  "student_t parameters must be positive"),
    # x is forced while extracting y's marginal: bernoulli(x) with x < 0
    "bernoulli output": ("let x <- gaussian(0., 1.) in let y <- bernoulli(x) in y\n",
                         "bernoulli probability out of range: -1.65"),
}


@pytest.mark.parametrize("method", ["ssi", "ds"])
@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_out_of_domain_parameter_is_one_error_line(case, method, tmp_path, capsys):
    src = tmp_path / "domain.si"
    program, message = OUT_OF_DOMAIN[case]
    src.write_text(program)
    code, out, err = main_out(capsys, "run", str(src), "--method", method,
                              "--particles", "2", "--seed", "0")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# A unit value where a number is expected: the program, and what the one
# error line names (the operator, the distribution or `range`).
UNIT_OPERAND = {
    "add": ("() + 1.0\n", "+"),
    "less": ("() < 1.0\n", "<"),
    "bound mul": ("let u = () in u * 2.0\n", "*"),
    "symbolic add": ("let x <- gaussian(0.0, 1.0) in x + ()\n", "+"),
    "symbolic less": ("let x <- gaussian(0.0, 1.0) in if x < () then 1.0 else 2.0\n", "<"),
    "gaussian variance": ("let x <- gaussian(0.0, ()) in x\n", "gaussian"),
    "gaussian mean": ("let x <- gaussian((), 1.0) in x\n", "gaussian"),
    "bernoulli": ("let x <- bernoulli(()) in x\n", "bernoulli"),
    "beta": ("let x <- beta((), 1.0) in x\n", "beta"),
    "observed": ("observe(gaussian(0.0, 1.0), ())\n", "gaussian"),
    "range": ("range((), 2.0)\n", "range"),
    # a pure `if` does not select a unit beside a number lazily: x is
    # forced and the unit branch reaches `+` (x < 10 on every draw here)
    "selected": ("let x <- gaussian(0.0, 1.0) in\n"
                 "let u = if x < 10.0 then () else 1.0 in u + 1.0\n", "+"),
}


@pytest.mark.parametrize("method", ["ssi", "ds"])
@pytest.mark.parametrize("case", sorted(UNIT_OPERAND))
def test_unit_operand_is_one_error_line(case, method, tmp_path, capsys):
    src = tmp_path / "unit.si"
    program, name = UNIT_OPERAND[case]
    src.write_text(program)
    code, out, err = main_out(capsys, "run", str(src), "--method", method,
                              "--particles", "2", "--seed", "0")
    assert (code, out) == (3, "")
    assert err == f"error: unit value passed to {name}\n"
    code, out, err = main_out(capsys, "analyze", str(src), "--method", method)
    assert code in (0, 2, 3) and "Traceback" not in err
    assert err in ("", f"error: unit value passed to {name}\n")


@pytest.mark.parametrize("method", ["ssi", "ds"])
def test_unreduced_condition_names_its_shape(method, tmp_path, capsys):
    src = tmp_path / "cond.si"
    src.write_text("let x = (1., 2.) in if x then 1. else 2.\n")
    code, out, err = main_out(capsys, "run", str(src), "--method", method)
    assert (code, out) == (3, "")
    assert err == "error: expression did not reduce to a constant: a 2-tuple\n"


def test_empty_data_file_is_an_empty_stream(tmp_path, capsys):
    runs = []
    for text in ("", "zobs\n"):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code, out, err = main_out(capsys, "run", str(MODELS / "noise.si"), "--data", str(data),
                                  "--particles", "2", "--seed", "0")
        assert (code, err) == (0, "")
        out = json.loads(out)
        out.pop("wall_ms")
        runs.append(out)
    assert runs[0] == runs[1]


# A pure `if` on a symbolic condition whose branches are lists or tuples:
# the program, and the outputs of its two branches.
IF_OF_CONTAINERS = {
    "len": ("List.len(l)", [{"dist": "delta", "v": 1.0}, {"dist": "delta", "v": 2.0}]),
    "map": ("List.map(inc, l)", [[{"dist": "delta", "v": 2.0}],
                                 [{"dist": "delta", "v": 3.0}, {"dist": "delta", "v": 4.0}]]),
    "fold": ("fold(plus, l, 0.)", [{"dist": "delta", "v": 1.0}, {"dist": "delta", "v": 5.0}]),
    "tuple": ("let (a, b) = if x then (1., 2.) else (3., 4.) in a + b",
              [{"dist": "delta", "v": 3.0}, {"dist": "delta", "v": 7.0}]),
}


@pytest.mark.parametrize("method", ["ssi", "ds"])
@pytest.mark.parametrize("consumer", sorted(IF_OF_CONTAINERS))
def test_if_of_lists_or_tuples_forces_its_condition(consumer, method, tmp_path, capsys):
    body, outputs = IF_OF_CONTAINERS[consumer]
    src = tmp_path / "ite.si"
    src.write_text("let inc = fun (z) -> z + 1.\n"
                   "let plus = fun (z, acc) -> z + acc\n"
                   "let x <- bernoulli(0.5) in\n"
                   "let l = if x then [1.] else [2., 3.] in\n"
                   f"{body}\n")
    code, out, err = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                              "--particles", "4")
    assert (code, err) == (0, "")
    out = json.loads(out)
    assert {c["label"] for c in out["casts"]} == {"x#0"}
    assert all(c["outputs"] in outputs for c in out["components"])
    code, out, err = main_out(capsys, "run", str(src), "--method", method, "--plan", "0",
                              "--particles", "4", "--strict-casts")
    assert (code, out, err) == (3, "", "error: unsatisfiable annotation on x#0\n")
    code, out, _ = main_out(capsys, "analyze", str(src), "--method", method, "--plan", "0")
    assert code == 2
    assert json.loads(out)["witnesses"] == [["rv:0", "x"]]


@pytest.mark.parametrize("schema", [[], ["--benchmark", "slam"]])
def test_ragged_data_row_is_one_error_line(schema, tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("obs,cmd\n1,1\n0\n")
    code, out, err = main_out(capsys, "run", str(MODELS / "slam.si"), "--data", str(data),
                              *schema)
    assert (code, out) == (1, "")
    assert err == f"error: {data}: line 3: expected 2 values, one per header column, found 1\n"


def test_data_columns_must_match_the_benchmark(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("obs\n1\n0\n")
    code, out, err = main_out(capsys, "run", str(MODELS / "slam.si"), "--benchmark", "slam",
                              "--data", str(data))
    assert (code, out) == (1, "")
    assert err == f"error: {data}: columns (obs) do not match benchmark slam's (obs, cmd)\n"


def test_blank_data_lines_are_skipped(tmp_path, capsys):
    runs = []
    for text in ("zobs\n0.5\n-0.2\n", "zobs\n0.5\n\n-0.2\n\n"):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code, out, err = main_out(capsys, "run", str(MODELS / "noise.si"), "--data", str(data),
                                  "--benchmark", "noise", "--particles", "2", "--seed", "0")
        assert (code, err) == (0, "")
        out = json.loads(out)
        out.pop("wall_ms")
        runs.append(out)
    assert runs[0] == runs[1]


NOISE = str(MODELS / "noise.si")


OUT_OF_RANGE = [
    (["run", NOISE, "--benchmark", "noise", "--particles", "0"], "--particles must be at least 1, not 0"),
    (["run", NOISE, "--benchmark", "noise", "--particles", "-1"], "--particles must be at least 1, not -1"),
    (["run", NOISE, "--seed", "-1"], "--seed must be at least 0, not -1"),
    (["run", NOISE, "--benchmark", "noise", "--data-seed", "-1"], "--data-seed must be at least 0, not -1"),
    (["run", NOISE, "--benchmark", "noise", "--timesteps", "-1"], "--timesteps must be at least 0, not -1"),
    (["gen-data", "noise", "--timesteps", "-1"], "--timesteps must be at least 0, not -1"),
    (["gen-data", "noise", "--seed", "-1"], "--seed must be at least 0, not -1"),
    (["bench", "noise", "--plans", "7", "--particles", "4,0"], "--particles must be at least 1, not 0"),
    (["bench", "noise", "--plans", "7", "--seed", "-1"], "--seed must be at least 0, not -1"),
    (["bench", "noise", "--plans", "7", "--trials", "0"], "--trials must be at least 1, not 0"),
    (["bench", "noise", "--plans", "7", "--timesteps", "-2"], "--timesteps must be at least 0, not -2"),
    # a bench row is an error over the steps: with none it is undefined
    (["bench", "noise", "--plans", "7", "--timesteps", "0"], "--timesteps must be at least 1, not 0"),
]


@pytest.mark.parametrize("argv,message", OUT_OF_RANGE,
                         ids=[" ".join([a[0]] + a[-2:]) for a, _ in OUT_OF_RANGE])
def test_numeric_option_out_of_range_is_a_usage_error(argv, message, tmp_path, capsys):
    if argv[0] == "gen-data":
        argv = argv + ["--out", str(tmp_path / "x")]
    code, out, err = main_out(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
