"""End-to-end tests for the configuration-driven experiment runner."""

import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgperturb
from sgperturb import cli, numkit
from sgperturb.cli import main, report_schema_version, run, validate_report
from sgperturb.transport import (BorelMeasure, TransportDiscretization,
                                 phi_coefficients)


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
    assert report_schema_version() == "3.0.0"


def test_schema_version_subcommand(capsys):
    assert main(["schema-version"]) == 0
    assert capsys.readouterr().out.strip() == "3.0.0"


def run_python(*args, **env_vars):
    src = str(Path(sgperturb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]), **env_vars)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def test_module_entry_point_runs_once_without_warning():
    # python -m sgperturb.cli must not re-execute an imported CLI module
    # (runpy warns on stderr when it does)
    proc = run_python("-m", "sgperturb.cli", "schema-version")
    assert proc.returncode == 0
    assert proc.stdout.decode().strip() == "3.0.0"
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


def test_module_entry_point_exit_paths(tmp_path):
    # python -m sgperturb.cli ends through console(): each exit code, the
    # piped output in full and the report bytes of an in-process run
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "inproc", verify=True) == 0
    proc = run_python("-m", "sgperturb.cli", "run", str(cfg), "--verify",
                      "--out", str(tmp_path / "cold"))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == (
        "PASS all suites: admissibility, certificate, growth, rescaling, "
        "toeplitz")
    assert ((tmp_path / "cold" / "report.json").read_bytes()
            == (tmp_path / "inproc" / "report.json").read_bytes())

    mismatch = write_config(
        tmp_path, transport_config([[1.0, 1.0]], "generated"), "fail.json")
    proc = run_python("-m", "sgperturb.cli", "run", str(mismatch),
                      "--out", str(tmp_path / "fail"))
    assert proc.returncode == 1
    assert ("FAIL certificate: verdict 'not_generated' != expected "
            "'generated'") in proc.stderr.decode().splitlines()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_python("-m", "sgperturb.cli", "run", str(bad))
    assert proc.returncode == 2
    assert "malformed JSON" in proc.stderr.decode()


def test_main_leaves_the_collector_unfrozen(tmp_path):
    # only console() freezes, on the way out of the process
    cfg = write_config(tmp_path, matrix_config())
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == 0


def test_installed_script_ends_through_console():
    # the [project.scripts] entry ends the process as python -m does
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text[text.index("[project.scripts]"):]
    entry = re.search(r'^sgperturb = "([\w.]+):(\w+)"$', section, re.M)
    assert entry.groups() == ("sgperturb.cli", "console")
    assert getattr(importlib.import_module(entry.group(1)),
                   entry.group(2)) is cli.console


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
    broken = dict(report, grid=dict(report["grid"], t0=float("inf")))
    assert validate_report(broken) == [
        "report.grid.t0 is not a finite number"]


def read_strict(path):
    """A report read as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("world", ["matrix", "transport"])
def test_readme_reports_are_strict_json(tmp_path, world):
    # the bypass search of either README config finds ||F|| < 1 at t0, so
    # it has one horizon and no rate to fit: null, not NaN
    cfg = matrix_config() if world == "matrix" else transport_config(
        [[0.5, 0.3], [0.875, 0.2]], "generated")
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out",
               verify=True) == 0
    report = read_strict(tmp_path / "out" / "report.json")
    assert validate_report(report) == []
    bypass = report["suites"]["certificate"]["conditions"]["feedback"][
        "bypass"]
    assert bypass["fitted_rate"] is None


def test_serialization_refuses_nonfinite_floats():
    with pytest.raises(ValueError):
        cli._canonical_json({"rate": float("nan")})
    assert cli._canonical_json({"rate": None}) == '{\n  "rate": null\n}\n'


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


def test_transport_pde_at_stride_one_refuses_a_first_order_defect(
        tmp_path, monkeypatch):
    # at stride h N = 1 the feedback semigroup reads the PDE's own nodes:
    # an O(h) error seeded into its state halves under refinement, which
    # the halving test alone would accept, so the suite must demand
    # roundoff agreement there
    cfg = transport_config([[0.5, 0.3], [0.875, 0.2]], None,
                           suites=("transport_pde",), seed=11)
    del cfg["expect"]
    cfg = write_config(tmp_path, cfg)
    assert run(cfg, out_dir=tmp_path / "out") == 0
    exact = read_report(tmp_path / "out")["suites"]["transport_pde"]
    assert exact["ok"] is True
    assert exact["sup_difference_refined"] <= 1e-12
    semigroup = cli.weiss_staffans_semigroup

    def first_order(triple, grid, t, x):
        out = semigroup(triple, grid, t, x)
        return type(out)(out.values + grid.h * x.values, p=out.p)
    monkeypatch.setattr(cli, "weiss_staffans_semigroup", first_order)
    assert run(cfg, out_dir=tmp_path / "defect") == 1
    pde = read_report(tmp_path / "defect")["suites"]["transport_pde"]
    assert pde["ok"] is False
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


def test_nonfinite_suite_result_costs_that_suite(tmp_path, monkeypatch,
                                                capsys):
    cfg = write_config(tmp_path, matrix_config())
    assert run(cfg, out_dir=tmp_path / "clean") == 0
    clean = read_report(tmp_path / "clean")
    capsys.readouterr()

    def nan_result(spec, rng, csv_dir):
        return {"ok": True, "x": float("nan")}
    monkeypatch.setitem(cli._SUITES, "growth", nan_result)
    assert run(cfg, out_dir=tmp_path / "out") == 1
    report = read_strict(tmp_path / "out" / "report.json")
    assert validate_report(report) == []
    message = ("NumericalRangeError: report.suites.growth.x is not a finite "
               "number")
    assert report["suites"].pop("growth") == {"ok": False, "error": message}
    assert report["suites"] == {name: entry for name, entry
                                in clean["suites"].items() if name != "growth"}
    assert report["ok"] is False and report["expect_ok"] is True
    assert f"FAIL growth: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("suite, error", [
    ("certificate", None),
    ("growth", "NumericalRangeError: matrix powers overflowed"),
    ("classical_ds", "NumericalRangeError: ||tA|| = 3.000e+300 needs 996 > "
                     "60 squarings"),
], ids=["certificate", "growth", "classical_ds"])
def test_overflowing_loop_ends_typed_in_each_suite(tmp_path, suite, error):
    # C = 1e300 overflows products and norms on the way; RuntimeWarning is
    # an error here, so an unguarded one would end the run in a traceback
    cfg = dict(matrix_config(), suites=[suite], expect=None,
               matrix={"A": [[0]], "B": [[1]], "C": [[1e300]]},
               grid={"t0": 3, "steps": 32})
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 1
    entry = read_report(tmp_path / "out")["suites"][suite]
    assert entry["ok"] is False and entry.get("error") == error
    if suite == "certificate":
        assert entry["verdict"] == "inconclusive"


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


@pytest.mark.parametrize("alpha", [float("-inf"), 0.5])
def test_alpha_below_one_exits_2(tmp_path, capsys, alpha):
    # alpha <= p <= beta holds; the exponents are not admissible
    cfg = matrix_config()
    cfg["exponents"]["alpha"] = alpha      # json writes -Infinity
    assert run(write_config(tmp_path, cfg)) == 2
    assert "config.exponents: need alpha >= 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("fields", [("beta",), ("p", "beta")])
@pytest.mark.parametrize("spelling", ["1e400", "Infinity"])
def test_nonfinite_exponents_exit_2(tmp_path, capsys, fields, spelling):
    # both spellings parse to inf and pass the ordering checks; a config
    # holding one has no strict JSON digest, so it is refused when parsed
    cfg = matrix_config()
    cfg["suites"] = ["admissibility"]
    del cfg["expect"]
    for name in fields:
        cfg["exponents"][name] = "INF"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"INF"', spelling))
    assert run(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config.exponents: need finite p and beta" in err
    assert not (tmp_path / "out" / "report.json").exists()


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
    {"quadrature_order": 1.0},
    {"algebraic": 1e-9, "spectral": 1, "quadrature_order": 1},
    {"quadrature_order": 1}, {}])
def test_bad_tolerances_exit_2(tmp_path, capsys, tolerances):
    # the tolerances are fixed: a config carrying the object at all, with
    # any of its former keys, is refused as an unknown field
    cfg = matrix_config()
    cfg["suites"] = ["toeplitz"]
    del cfg["expect"]
    cfg["tolerances"] = tolerances
    assert run(write_config(tmp_path, cfg)) == 2
    assert "unknown field(s) ['tolerances']" in capsys.readouterr().err


def readme_config_section():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    start = text.index("## Command-line runner")
    return text[start:text.index("\n## ", start)]


def readme_names(section, label):
    """The backticked names of the README sentence opening with ``label``."""
    sentence = re.search(re.escape(label) + r"(.*?)\.\s", section, re.S)
    return set(re.findall(r"`(\w+)`", sentence.group(1)))


def test_readme_config_section_matches_parser():
    # a knob removed from the parser must leave the docs with it
    section = readme_config_section()
    accepted = set(cli._REQUIRED_KEYS) | set(cli._OPTIONAL_KEYS)
    assert readme_names(section, "Top-level keys:") == accepted
    assert readme_names(section, "Available suites:") == set(cli._SUITES)
    example = json.loads(
        re.search(r"```json\n(.*?)```", section, re.S).group(1))
    transport = json.loads("{%s}" % re.search(
        r'`("transport": .*?)`', section, re.S).group(1))
    as_transport = {k: v for k, v in example.items() if k != "matrix"}
    as_transport.update(transport, world="transport")
    for cfg in (example, as_transport):
        assert set(cfg) <= accepted
        cli._parse_config(cfg)


def test_reports_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, matrix_config())
    for sub in ("a", "b"):
        assert run(cfg, out_dir=tmp_path / sub, write_csv=True) == 0
    for name in ("report.json", "trajectory_matrix_orbit.csv"):
        assert ((tmp_path / "b" / name).read_bytes()
                == (tmp_path / "a" / name).read_bytes())


def test_matrix_report_bytes_independent_of_blas_threads(tmp_path):
    # the README matrix config at 1024 steps, --verify, in one process at
    # one BLAS thread and one at two: every norm of F is Lanczos on its FFT
    # products, so no field depends on how BLAS splits its work
    cfg = matrix_config()
    cfg["grid"]["steps"] = 1024
    path = write_config(tmp_path, cfg)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = run_python("-m", "sgperturb.cli", "run", str(path), "--verify",
                          "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


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


def test_verify_passes_a_large_weight_boundary(tmp_path):
    # atoms (0.5, 1e5) and (1, 1e5 + 1/2) have loop gain about 1, but the
    # terms of x(1) = Phi x are 1e5 times the state, and the reference's
    # boundary check scales with them, not with the state alone
    cfg = transport_config([[0.5, 1e5], [1.0, 1e5 + 0.5]], None)
    del cfg["expect"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out",
               verify=True) == 0
    assert read_report(tmp_path / "out")["suites"]["transport_pde"]["ok"]


UNIT_MASS_NOTE = ("boundary functional has unit weight at s = 1; the "
                  "characteristic equation holds identically and there is "
                  "no generator to eigensolve")


@pytest.mark.parametrize("atoms, N, steps, roots, note", [
    ([[1.0, 1.0]], 16, 8, None, UNIT_MASS_NOTE),
    ([[0.5, 0.3], [0.875, 0.2]], 1024, 32, 3,
     "dense eigensolve skipped for N > 800"),
], ids=["unit-mass", "no-eigensolve"])
def test_spectral_suite_entries_with_null_fields(tmp_path, atoms, N, steps,
                                                 roots, note):
    # the two shapes of schema 3.0.0 that carry nulls and a note
    cfg = transport_config(atoms, None, suites=("spectral",))
    del cfg["expect"]
    cfg["transport"]["N"] = N
    cfg["grid"]["steps"] = steps
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    entry = read_report(tmp_path / "out")["suites"]["spectral"]
    assert set(entry) == {"ok", "roots", "transfer_residuals",
                          "upwind_distances", "note"}
    assert entry["ok"] is True and entry["note"] == note
    assert entry["upwind_distances"] is None
    if roots is None:
        assert entry["roots"] is None and entry["transfer_residuals"] is None
    else:
        assert len(entry["roots"]) == len(entry["transfer_residuals"]) == roots


def density_config():
    cfg = transport_config([], "generated", seed=5)
    cfg["transport"]["measure"] = {
        "density": [round(0.1 + 0.8 * k / 63, 6) for k in range(64)]}
    return cfg


def left_node_feedback_column(self):
    """F's column with each density cell's whole mass read at its left node:
    a read of Phi that differs from phi_coefficients' trapezoid read."""
    N, mu, steps = self.triple.N, self.triple.mu, self.grid.steps
    atoms = phi_coefficients(BorelMeasure(mu.atoms), N)
    cells = [d / N for d in mu.density]
    col = np.zeros(steps, dtype=np.complex128)
    for node, w in [*enumerate(atoms), *enumerate(cells)]:
        lag = -((node - N) // self.q)
        if lag < steps:
            col[lag] += w
    return col[:, None, None]


def test_verify_density_transport_checks_frame_composition(tmp_path,
                                                           monkeypatch):
    # the toeplitz suite checks F over three horizons against the triple's
    # own maps, so a density read that differs between F and Phi fails it
    cfg = write_config(tmp_path, density_config())
    assert run(cfg, out_dir=tmp_path / "out", verify=True) == 0
    report = read_report(tmp_path / "out")
    entry = report["suites"]["toeplitz"]
    assert set(entry) == {"ok", "composition_residual"}
    assert entry["ok"] is True
    assert entry["composition_residual"] <= 1e-12
    assert all(suite["ok"] for suite in report["suites"].values())
    monkeypatch.setattr(TransportDiscretization, "feedback_column",
                        left_node_feedback_column)
    assert run(cfg, out_dir=tmp_path / "left", verify=True) == 1
    entry = read_report(tmp_path / "left")["suites"]["toeplitz"]
    assert entry["ok"] is False
    assert entry["composition_residual"] > 1e-3


def test_toeplitz_suite_on_a_zero_measure(tmp_path):
    # F u vanishes: the composition residual is absolute, and exactly 0
    cfg = transport_config([], None, suites=("toeplitz",))
    del cfg["expect"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    entry = read_report(tmp_path / "out")["suites"]["toeplitz"]
    assert entry == {"ok": True, "composition_residual": 0.0}


def test_classical_suites_through_runner(tmp_path):
    cfg = matrix_config()
    cfg["suites"] = ["classical_ds", "classical_mv"]
    del cfg["expect"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    report = read_report(tmp_path / "out")
    assert report["suites"]["classical_ds"]["ok"] is True
    assert report["suites"]["classical_mv"]["ok"] is True


@pytest.mark.parametrize("argv", [
    ["run", "whatever.json", "--jobs", "2"],
    ["run", "whatever.json", "--seed", "-1"],
])
def test_bad_flag_values_exit_2(argv, capsys):
    if "--jobs" in argv:
        # the suites run one after another; argparse refuses the old flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        capsys.readouterr()
