"""End-to-end tests for the configuration-driven experiment runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgperturb
from sgperturb import cli, numkit
from sgperturb.cli import main, report_schema_version, run, validate_report


def matrix_config():
    return {
        "world": "matrix",
        "matrix": {
            "A": [[-1.0, 0.2], [0.0, -2.0]],
            "B": [[1.0], [0.5]],
            "C": [[0.3, -0.4]],
        },
        "grid": {"t0": 0.5, "steps": 32},
        "exponents": {"p": 2.0, "alpha": 1.0, "beta": 3.0},
        "suites": ["certificate", "admissibility", "growth"],
        "seed": 42,
        "expect": "generated",
    }


def transport_config(atoms, expect, suites=("certificate",), seed=7):
    return {
        "world": "transport",
        "transport": {"N": 64, "p": 2.0, "measure": {"atoms": atoms}},
        "grid": {"t0": 0.5, "steps": 32},
        "exponents": {"p": 2.0, "alpha": 1.0, "beta": 3.0},
        "suites": list(suites),
        "seed": seed,
        "expect": expect,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_schema_version_function():
    assert report_schema_version() == "1.0.0"


def test_schema_version_subcommand(capsys):
    assert main(["schema-version"]) == 0
    assert capsys.readouterr().out.strip() == "1.0.0"


def run_python(*args):
    src = str(Path(sgperturb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def test_module_entry_point_runs_once_without_warning():
    # python -m sgperturb.cli must not re-execute an imported CLI module
    # (runpy warns on stderr when it does)
    proc = run_python("-m", "sgperturb.cli", "schema-version")
    assert proc.returncode == 0
    assert proc.stdout.decode().strip() == "1.0.0"
    assert proc.stderr == b""


def test_cli_leaves_out_scipy(tmp_path):
    # the kernel runs on numpy's LAPACK: neither the import nor a full
    # --verify run of the README matrix config loads a scipy module
    cfg = write_config(tmp_path, matrix_config())
    args = ["run", str(cfg), "--verify", "--out", str(tmp_path / "out")]
    proc = run_python("-c", f"""
import json, sys
import sgperturb.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
after_import = scipy_modules()
code = cli.main({args!r})
print(json.dumps([after_import, code, scipy_modules()]))
""")
    assert proc.returncode == 0, proc.stderr.decode()
    after_import, code, after_run = json.loads(
        proc.stdout.decode().splitlines()[-1])
    assert code == 0
    assert after_import == [] and after_run == []


def test_matrix_demo_passes(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["ok"] is True
    assert report["expect_ok"] is True
    cert = report["suites"]["certificate"]
    assert cert["verdict"] == "generated"
    # sampled resolvent identities hold far below the stated tolerance
    assert cert["resolvent_residuals"]
    assert all(res <= 1e-10 for _, res, _ in cert["resolvent_residuals"])


def test_report_validates_against_schema(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert validate_report(report) == []
    assert report["schema_version"] == report_schema_version()
    assert len(report["config_digest"]) == 64


def test_validate_report_flags_problems(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    broken = dict(report)
    del broken["seed"]
    assert any("seed" in p for p in validate_report(broken))
    broken = dict(report, schema_version="9.9.9")
    assert any("schema_version" in p for p in validate_report(broken))
    broken = dict(report, extra_field=1)
    assert any("unknown" in p for p in validate_report(broken))


def test_degenerate_boundary_weight_expected_not_generated(tmp_path):
    # unit boundary weight at s = 1: the negative profile must report
    # not_generated, and saying so up front makes the run pass
    cfg = write_config(tmp_path,
                       transport_config([[1.0, 1.0]], "not_generated"))
    assert run(cfg, out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["suites"]["certificate"]["verdict"] == "not_generated"
    assert report["expect_ok"] is True


def test_two_atom_profile_generated(tmp_path):
    cfg = write_config(
        tmp_path,
        transport_config([[0.5, 0.3], [0.875, 0.2]], "generated",
                         suites=("certificate", "transport_pde"), seed=11))
    assert run(cfg, out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["suites"]["certificate"]["verdict"] == "generated"
    pde = report["suites"]["transport_pde"]
    assert pde["ok"] is True
    assert pde["sup_difference_refined"] <= 0.75 * pde["sup_difference"] + 1e-12


def test_two_atom_profile_halves_above_roundoff(tmp_path):
    # at stride 2 (steps = 16) the PDE/feedback gap is quadrature error, so
    # the halving is measured without the 1e-12 floor
    cfg = transport_config([[0.5, 0.3], [0.875, 0.2]], "generated",
                           suites=("certificate", "transport_pde"), seed=11)
    cfg["grid"]["steps"] = 16
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    pde = read_report(tmp_path / "out")["suites"]["transport_pde"]
    assert pde["ok"] is True
    assert pde["sup_difference"] >= 1e-3
    assert pde["sup_difference_refined"] <= 0.75 * pde["sup_difference"]


def test_numkit_failure_becomes_suite_error(tmp_path, monkeypatch):
    def fail(spec, rng, csv_dir):
        raise numkit.ConvergenceError("no convergence")
    monkeypatch.setitem(cli._SUITES, "growth", fail)
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "out") == 1
    growth = read_report(tmp_path / "out")["suites"]["growth"]
    assert growth == {"ok": False,
                      "error": "ConvergenceError: no convergence"}


def test_suite_bug_propagates(tmp_path, monkeypatch):
    def fail(spec, rng, csv_dir):
        raise TypeError("a bug, not a numerical failure")
    monkeypatch.setitem(cli._SUITES, "growth", fail)
    with pytest.raises(TypeError):
        run(write_config(tmp_path, matrix_config()), out_dir=tmp_path / "out")


def test_expect_mismatch_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, transport_config([[1.0, 1.0]], "generated"))
    assert run(cfg, out_dir=tmp_path / "out") == 1
    report = read_report(tmp_path / "out")
    assert report["expect_ok"] is False
    assert report["ok"] is False
    assert "FAIL certificate" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(path) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert run(tmp_path / "nope.json") == 2


def test_unknown_top_level_field_exits_2(tmp_path, capsys):
    cfg = matrix_config()
    cfg["bogus"] = True
    assert run(write_config(tmp_path, cfg)) == 2
    assert "unknown field" in capsys.readouterr().err


def test_unknown_suite_exits_2(tmp_path, capsys):
    cfg = matrix_config()
    cfg["suites"] = ["certificate", "frobnicate"]
    assert run(write_config(tmp_path, cfg)) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_duplicate_suites_exit_2(tmp_path):
    cfg = matrix_config()
    cfg["suites"] = ["certificate", "certificate"]
    assert run(write_config(tmp_path, cfg)) == 2


def test_suite_world_mismatch_exits_2(tmp_path, capsys):
    cfg = transport_config([[0.5, 0.3]], None)
    cfg["suites"] = ["classical_ds"]
    del cfg["expect"]
    assert run(write_config(tmp_path, cfg)) == 2
    assert "matrix world" in capsys.readouterr().err
    cfg = matrix_config()
    cfg["suites"] = ["spectral"]
    del cfg["expect"]
    assert run(write_config(tmp_path, cfg, "m.json")) == 2


def test_exponent_ordering_exits_2(tmp_path, capsys):
    cfg = matrix_config()
    cfg["exponents"] = {"p": 2.0, "alpha": 2.5, "beta": 3.0}
    assert run(write_config(tmp_path, cfg)) == 2
    assert "alpha <= p <= beta" in capsys.readouterr().err


def test_transport_grid_incompatible_exits_2(tmp_path, capsys):
    cfg = transport_config([[0.5, 0.3]], None)
    del cfg["expect"]
    cfg["grid"] = {"t0": 0.5, "steps": 48}  # h = 1/96 not a multiple of 1/64
    assert run(write_config(tmp_path, cfg)) == 2
    assert "multiple" in capsys.readouterr().err


def test_mv_suite_needs_p_above_one_exits_2(tmp_path, capsys):
    # the inequality holds only for finite p > 1; json reads Infinity
    for p, beta in ((1.0, 1.0), (float("inf"), float("inf"))):
        cfg = matrix_config()
        cfg["suites"] = ["classical_mv"]
        cfg["exponents"] = {"p": p, "alpha": 1.0, "beta": beta}
        del cfg["expect"]
        assert run(write_config(tmp_path, cfg)) == 2
        assert "classical_mv" in capsys.readouterr().err


def test_infinite_horizon_exits_2(tmp_path, capsys):
    for cfg in (matrix_config(), transport_config([[0.5, 0.3]], None)):
        cfg["grid"]["t0"] = float("inf")  # json writes Infinity
        assert run(write_config(tmp_path, cfg)) == 2
        assert "config.grid" in capsys.readouterr().err


def test_infinite_matrix_entry_exits_2(tmp_path, capsys):
    cfg = matrix_config()
    cfg["matrix"]["A"][0][0] = float("inf")  # json writes Infinity
    assert run(write_config(tmp_path, cfg)) == 2
    assert "config.matrix" in capsys.readouterr().err


@pytest.mark.parametrize("constructor",
                         ["MatrixTriple", "TransportTriple", "TimeGrid"])
def test_config_constructor_bug_propagates(tmp_path, monkeypatch,
                                           constructor):
    # only NumkitError and ValueError mean a bad config; a TypeError is a bug
    def fail(*args, **kwargs):
        raise TypeError("a bug, not a bad config")
    monkeypatch.setattr(cli, constructor, fail)
    cfg = (transport_config([[0.5, 0.3]], None)
           if constructor == "TransportTriple" else matrix_config())
    with pytest.raises(TypeError):
        run(write_config(tmp_path, cfg), out_dir=tmp_path / "out")


@pytest.mark.parametrize("tolerances", [
    {"algebraic": "tight"}, {"algebraic": -1.0}, {"spectral": 0.0},
    {"spectral": float("nan")}, {"quadrature_order": True},
    {"quadrature_order": 1.0}])
def test_bad_tolerances_exit_2(tmp_path, capsys, tolerances):
    cfg = matrix_config()
    cfg["suites"] = ["toeplitz"]
    del cfg["expect"]
    cfg["tolerances"] = tolerances
    assert run(write_config(tmp_path, cfg)) == 2
    assert "config.tolerances" in capsys.readouterr().err


def test_valid_tolerances_run(tmp_path):
    cfg = matrix_config()
    cfg["suites"] = ["toeplitz"]
    del cfg["expect"]
    cfg["tolerances"] = {"algebraic": 1e-9, "spectral": 1,
                         "quadrature_order": 1}
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0


def test_reports_byte_identical_across_runs_and_jobs(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    for sub, jobs in (("a", 1), ("b", 1), ("c", 4)):
        assert run(cfg, out_dir=tmp_path / sub, write_csv=True,
                   jobs=jobs) == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    first_csv = (tmp_path / "a" / "trajectory_matrix_orbit.csv").read_bytes()
    for sub in ("b", "c"):
        assert (tmp_path / sub / "report.json").read_bytes() == first
        assert (tmp_path / sub
                / "trajectory_matrix_orbit.csv").read_bytes() == first_csv


def test_seed_override_via_flag(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", "43"]) == 0
    report = read_report(tmp_path / "out")
    assert report["seed"] == 43
    assert report["ok"] is True


def test_verify_appends_battery_matrix(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "out", verify=True) == 0
    report = read_report(tmp_path / "out")
    assert set(report["suites"]) == {"admissibility", "certificate", "growth",
                                     "rescaling", "toeplitz"}
    assert all(entry["ok"] for entry in report["suites"].values())


def test_verify_appends_battery_transport(tmp_path):
    cfg = write_config(
        tmp_path,
        transport_config([[0.5, 0.3], [0.875, 0.2]], "generated", seed=11))
    assert run(cfg, out_dir=tmp_path / "out", verify=True,
               write_csv=True) == 0
    report = read_report(tmp_path / "out")
    assert set(report["suites"]) == {"certificate", "rescaling", "spectral",
                                     "toeplitz", "transport_pde"}
    assert all(entry["ok"] for entry in report["suites"].values())
    csv_path = tmp_path / "out" / "trajectory_transport_pde.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,s,re_x,im_x"
    assert len(lines) > 1


def test_classical_suites_through_runner(tmp_path):
    cfg = matrix_config()
    cfg["suites"] = ["classical_ds", "classical_mv"]
    del cfg["expect"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["suites"]["classical_ds"]["ok"] is True
    assert report["suites"]["classical_mv"]["ok"] is True


@pytest.mark.parametrize("argv", [
    ["run", "whatever.json", "--jobs", "0"],
    ["run", "whatever.json", "--seed", "-1"],
])
def test_bad_flag_values_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()
