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


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_plan_out_of_range_is_a_usage_error(command):
    r = run_cli(command, str(MODELS / "noise.si"), "--plan", "99")
    assert r.returncode == 1
    assert r.stderr == "error: plan 99 out of range for 3 sites\n"
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
