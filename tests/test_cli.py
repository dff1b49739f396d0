"""End-to-end checks of the command-line interface.

Covers the documented exit codes (0 success, 1 usage/parse error,
2 numerical failure, 3 verification failure), byte-stable CSV output,
and agreement of each exporting subcommand with the library it fronts.
"""

import csv
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from oscdeform import catalog, cli, verify
from oscdeform.apps import rcd_travelling_wave
from oscdeform.exprdsl import FUNCTIONS


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader]
    return header, np.array(rows)


def test_solve_rerun_is_byte_identical(tmp_path):
    # the span crosses two cotangent poles, which exercises the spectral
    # transit path where run-to-run drift would show up first
    args = ["solve", "--f", "0.3*sin(t + 0.3)", "--g", "0.2*sin(t + 0.3)^2",
            "--omega", "1", "--alpha", "0.3", "--t0", "0.5",
            "--t1", "6.783185307179586", "--samples", "150",
            "--x0", "0.4", "--v0", "0.9"]
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "oscdeform"] + args + ["--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_harmonic_from_pole_matches_sine(tmp_path):
    out = tmp_path / "harmonic.csv"
    code = cli.main(["solve", "--f", "0", "--g", "0", "--omega", "1",
                     "--t0", "0", "--t1", "6.283185307179586",
                     "--samples", "100", "--x0", "0", "--v0", "1",
                     "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "x", "v"]
    assert rows.shape == (100, 3)
    assert np.max(np.abs(rows[:, 1] - np.sin(rows[:, 0]))) < 1e-8
    assert np.max(np.abs(rows[:, 2] - np.cos(rows[:, 0]))) < 1e-8


def test_solve_reproduces_case3_closed_form(tmp_path):
    beta, gamma, delta, n, amp = 1.0, 0.3, 0.5, 3, 1.3
    sol = catalog.case3(beta, gamma, delta, n, amp, 1.0, 0.3)
    t0, t1 = 0.5, 2.9
    out = tmp_path / "case3.csv"
    # "=" form keeps argparse from reading the leading minus as a flag
    code = cli.main(["solve",
                     "--f=%r*x + %r*x^%d" % (-gamma, delta, n),
                     "--g=%r*x" % (beta - 1.0),
                     "--omega", "1", "--alpha", "0.3",
                     "--t0", repr(t0), "--t1", repr(t1), "--samples", "40",
                     "--x0", repr(float(sol(t0))),
                     "--v0", repr(float(sol.v_evaluator(t0))),
                     "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    exact = np.array([sol(t) for t in rows[:, 0]])
    assert np.max(np.abs(rows[:, 1] - exact)) < 1e-6


def test_solve_methods_agree(tmp_path):
    # alpha is left to be fitted from (t0, x0, v0) so both methods
    # integrate the same initial-value problem; the span stops before the
    # crossing x + g = 0, where the second-order form turns singular
    common = ["--f", "0.4*sin(t + 0.3)", "--g", "0", "--omega", "1",
              "--t0", "0.5", "--t1", "2.2",
              "--samples", "30", "--x0", "0.8", "--v0", "0.1"]
    paths = []
    for method in ("first-integral", "second-order"):
        out = tmp_path / (method + ".csv")
        assert cli.main(["solve"] + common
                        + ["--method", method, "--out", str(out)]) == 0
        paths.append(out)
    _, a = read_rows(paths[0])
    _, b = read_rows(paths[1])
    assert np.max(np.abs(a[:, 1] - b[:, 1])) < 1e-7


def test_rcd_profile_matches_library(tmp_path):
    out = tmp_path / "wave.csv"
    code = cli.main(["rcd", "--param", "beta=2", "--param", "gamma=0.3",
                     "--param", "delta=0.6", "--param", "A=4",
                     "--omega", "1", "--t0", "0.1", "--t1", "2.0",
                     "--samples", "12", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["xi", "u"]
    wave = rcd_travelling_wave({"beta": 2, "gamma": 0.3, "delta": 0.6,
                                "A": 4, "omega": 1, "alpha": 0})
    for xi, u in rows:
        assert abs(u - wave(xi)) <= 1e-14 * (1.0 + abs(u))


def test_beam_modes_agree(tmp_path):
    # approx mode is only admissible on the resonant line beta = 2*alpha/3
    common = ["--alpha-coef", "0.04",
              "--beta-coef", repr(2.0 * 0.04 / 3.0),
              "--omega", "1", "--x0", "0.05", "--v0", "0",
              "--t0", "0", "--t1", "6.283185307179586", "--samples", "40"]
    results = {}
    for mode in ("approx", "direct"):
        out = tmp_path / (mode + ".csv")
        assert cli.main(["beam"] + common
                        + ["--mode", mode, "--out", str(out)]) == 0
        _, results[mode] = read_rows(out)
    diff = np.max(np.abs(results["approx"][:, 1] - results["direct"][:, 1]))
    assert diff < 1e-3


def test_beam_starts_at_default_amplitude(tmp_path):
    out = tmp_path / "beam.csv"
    assert cli.main(["beam", "--alpha-coef", "0.04", "--beta-coef", "0.01",
                     "--t1", "1", "--samples", "3", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["t", "u", "v"]
    assert (rows[0, 1], rows[0, 2]) == (0.5, 0.0)


@pytest.mark.parametrize("x0", ["0.6", "0.5"])
def test_beam_direct_start_outside_the_domain_exits_two(capsys, x0):
    # 1 + alpha*x0^2 <= 0: 0.6 printed a trajectory and exited 0, and 0.5
    # exited 2 with an untyped ZeroDivisionError
    code = cli.main(["beam", "--alpha-coef", "-4", "--beta-coef", "1",
                     "--x0", x0])
    assert code == 2
    err = capsys.readouterr().err
    assert "DomainViolation" in err and "u0 = %s" % x0 in err


def test_beam_direct_march_to_the_domain_boundary_exits_two(capsys):
    # the march reaches 1 + alpha*u^2 = 0; it exited 2 with a bare
    # StepSizeUnderflow that did not name the domain
    code = cli.main(["beam", "--alpha-coef", "-4", "--beta-coef", "1",
                     "--x0", "0.45", "--v0", "1", "--samples", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "DomainViolation" in err and "1 + alpha*u^2 = 0 at t = 0.036" in err


def test_catalog_csv_matches_evaluator(tmp_path):
    out = tmp_path / "case2.csv"
    code = cli.main(["catalog", "--case", "case2", "--param", "g0=0.3",
                     "--param", "n=3", "--param", "A=1.1",
                     "--omega", "1", "--alpha", "0.3",
                     "--t0", "0.2", "--t1", "5.0", "--samples", "25",
                     "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    sol = catalog.case2(0.3, 3, 1.1, 1.0, 0.3)
    for t, x, v in rows:
        assert abs(x - sol(t)) <= 1e-14 * (1.0 + abs(x))
        assert abs(v - sol.v_evaluator(t)) <= 1e-12 * (1.0 + abs(v))


def test_derive_prints_ode_and_first_integral(capsys):
    code = cli.main(["derive", "--f", "0", "--g", "b*x^2", "--omega", "1",
                     "--param", "b=0.7"])
    assert code == 0
    text = capsys.readouterr().out
    assert "generated ODE:" in text
    assert "* xdd +" in text
    assert "first integral:" in text
    assert "cot(" in text


@pytest.mark.parametrize("argv", [
    ["--f", "0", "--g", "b*x^2", "--omega", "1", "--param", "b=0.7"],
    ["--g", "0.2*x^2", "--omega", "5"],
    ["--f=-0.75*v+0.8", "--g", "c*v", "--param", "c=0.15"],
    ["--f", "a*t", "--g", "0", "--omega", "1 + b*t", "--param", "a=2",
     "--param", "b=0.1"],
], ids=["param", "g-reads-x", "f-and-g-read-v", "omega-of-t"])
def test_derive_printout_defines_every_symbol_it_uses(capsys, argv):
    # the equation, f, g and omega(t) are written in t, x and the velocity
    # xd alone, with every parameter bound: the printout once read the
    # velocity as both xd and v, and defined no v
    assert cli.main(["derive"] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].startswith("  f = ") and lines[5].startswith("  g = ")
    texts = [lines[1], lines[4][6:], lines[5][6:]]
    if "omega(t) = " in lines[3]:
        texts.append(lines[3].split("omega(t) = ")[1])
    defined = {"t", "x", "xd", "xdd"} | set(FUNCTIONS)
    for text in texts:
        used = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))
        assert used <= defined, (text, used - defined)


def test_derive_time_varying_omega(capsys):
    code = cli.main(["derive", "--f", "0.1*sin(t)", "--g", "0",
                     "--omega", "1 + 0.5*cos(t)"])
    assert code == 0
    text = capsys.readouterr().out
    assert "Phi(t)" in text
    assert "omega(t) = 1 + 0.5*cos(t)" in text


@pytest.mark.parametrize("omega, code, text", [
    ("0*t", 1, "argument --omega: expected a finite positive number"),
    ("-2 + 0*t", 1, "argument --omega: expected a finite positive number"),
    # a t-derivative that folds to 0 makes the expression a number
    ("1 + 0*t", 0, "with omega = 1, alpha = 0"),
    ("1 + 0.1*sin(t)", 0, "omega(t) = 1 + 0.1*sin(t)"),
])
def test_derive_omega_constant_in_t_is_a_number(capsys, omega, code, text):
    assert cli.main(["derive", "--omega", omega]) == code
    out, err = capsys.readouterr()
    assert text in (err if code else out)
    if code == 0:
        assert "generated ODE:" in out


def test_verify_suite_reports_pass(capsys):
    code = cli.main(["verify", "--suite", "hyp2f1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "3/3 checks passed" in text
    assert "FAIL" not in text


def test_exit_one_on_parse_error(capsys):
    assert cli.main(["solve", "--f", "0.3*sin(t", "--g", "0"]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["(" * 600 + "x" + ")" * 600, "-" * 3000 + "x"])
def test_exit_one_on_too_deep_a_nesting(f):
    proc = subprocess.run(
        [sys.executable, "-m", "oscdeform", "derive", "--f=" + f, "--g", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("parse error: nested deeper than 100 levels")
    assert "Traceback" not in proc.stderr


def test_exit_one_on_usage_errors(capsys):
    assert cli.main(["verify", "--suite", "nope"]) == 1
    assert cli.main(["solve", "--samples", "1"]) == 1
    assert cli.main(["rcd", "--param", "beta=1"]) == 1  # missing gamma etc.
    assert cli.main(["catalog", "--case", "case2"]) == 1  # missing params
    assert cli.main(["beam", "--mode", "approx"]) == 1  # missing coefs
    assert cli.main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "unknown suite" in err
    # a numeric derive --omega must be a finite positive number
    for omega in ("0", "-1", "nan", "inf"):
        assert cli.main(["derive", "--omega", omega]) == 1
        assert "--omega" in capsys.readouterr().err
    # so must every other positive flag, infinity included
    for argv in (["solve", "--f", "0", "--g", "0", "--t0", "0.5",
                  "--samples", "3", "--omega", "inf"],
                 ["catalog", "--case", "harmonic", "--param", "A=1",
                  "--samples", "3", "--omega", "inf"],
                 ["solve", "--f", "0", "--g", "0", "--t0", "0.5",
                  "--samples", "3", "--rtol", "inf"]):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "expected a finite positive number" in err
    # a subcommand accepts only the flags it reads
    assert cli.main(["verify", "--suite", "hyp2f1", "--omega", "2"]) == 1
    assert cli.main(["solve", "--f", "0", "--g", "0", "--x0", "0.4",
                     "--v0", "1", "--format", "csv"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("omega", ["0", "-1", "inf", "nan"])
def test_rcd_omega_parameter_is_checked_like_the_flag(capsys, omega):
    # --param omega takes precedence over --omega; omega=0 used to exit 2
    # with a ZeroDivisionError and omega=-1 to print a profile
    assert cli.main(["rcd", "--param", "beta=1", "--param", "gamma=0.5",
                     "--param", "delta=1", "--param", "A=3",
                     "--param", "omega=" + omega]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "parameter omega: expected a finite positive number" in err


@pytest.mark.parametrize("argv, flag", [
    (["catalog", "--case", "harmonic", "--param", "A=1", "--t1", "nan",
      "--samples", "3"], "--t1"),
    (["solve", "--t1", "inf", "--v0", "0.1"], "--t1"),
    (["solve", "--x0", "nan", "--v0", "0.1"], "--x0"),
    (["solve", "--t0=-inf"], "--t0"),
    (["solve", "--v0", "nan"], "--v0"),
    (["solve", "--alpha", "inf"], "--alpha"),
    (["derive", "--alpha", "nan"], "--alpha"),
    (["beam", "--alpha-coef", "inf", "--beta-coef", "2"], "--alpha-coef"),
    (["beam", "--alpha-coef", "3", "--beta-coef", "nan"], "--beta-coef"),
])
def test_non_finite_number_flags_are_usage_errors(capsys, argv, flag):
    # these used to print NaN rows, or fail as numerical errors
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument %s: expected a finite number" % flag in err


@pytest.mark.parametrize("argv, name", [
    (["catalog", "--case", "case6", "--param", "b=1", "--param", "c1=nan"],
     "c1"),
    (["derive", "--g", "b*x^2", "--param", "b=inf"], "b"),
    (["solve", "--f", "mu*x", "--param", "mu=-inf", "--v0", "0.1"], "mu"),
])
def test_non_finite_parameters_are_usage_errors(capsys, argv, name):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: parameter %s: expected a finite number" % name in err


def test_non_finite_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t1 = nan\n")
    assert cli.main(["solve", "--config", str(cfg), "--v0", "0.1"]) == 1
    assert "argument --t1: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--t0", "1", "--t1", "0"],
    ["solve", "--t0", "1", "--t1", "1", "--v0", "0.1"],
    ["solve", "--t0", "1", "--t1", "1", "--method", "second-order"],
    ["beam", "--alpha-coef", "3", "--beta-coef", "2", "--t0", "1",
     "--t1", "0"],
    ["beam", "--alpha-coef", "3", "--beta-coef", "2", "--t0", "1",
     "--t1", "0", "--mode", "approx"],
    ["rcd", "--param", "beta=1", "--param", "gamma=0.5", "--param",
     "delta=1", "--param", "A=3", "--t0", "1", "--t1", "0"],
    ["rcd", "--param", "beta=1", "--param", "gamma=0.5", "--param",
     "delta=1", "--param", "A=3", "--t0", "1", "--t1", "1"],
    ["catalog", "--case", "harmonic", "--param", "A=1", "--t0", "1",
     "--t1", "0"],
    ["catalog", "--case", "harmonic", "--param", "A=1", "--t0", "1",
     "--t1", "1"],
])
def test_span_the_integrator_refuses_is_a_usage_error(capsys, argv):
    # solve and beam used to exit 2 with the integrator's bare ValueError;
    # rcd and catalog printed their rows in decreasing, or constant, t
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --t1 ") and "--t0" in err


def test_second_order_solve_runs_a_backward_span(capsys):
    assert cli.main(["solve", "--t0", "1", "--t1", "0", "--method",
                     "second-order", "--samples", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,x,v" and rows[-1].startswith("1,0.5,")


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(["solve", "--samples", "3", "--out", str(out)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write --out: ")


def test_solve_pole_start_without_v0_is_a_usage_error(capsys):
    # t0 = 0 with --alpha 0 starts on a cotangent pole, where the first
    # integral cannot supply the initial velocity
    for method in ("first-integral", "second-order"):
        assert cli.main(["solve", "--f", "0", "--g", "0", "--alpha", "0",
                         "--method", method]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--v0" in err


def test_solve_with_no_flags_starts_at_rest(capsys):
    # the default phase puts the default t0 on a pole; with neither --alpha
    # nor --v0 given, solve starts at rest instead, exactly as --v0 0 does
    for method in ("first-integral", "second-order"):
        assert cli.main(["solve", "--method", method]) == 0
        out = capsys.readouterr().out
        assert cli.main(["solve", "--method", method, "--v0", "0"]) == 0
        assert capsys.readouterr().out == out
        rows = [[float(c) for c in line.split(",")]
                for line in out.splitlines()[1:]]
        assert len(rows) == 101 and rows[0] == [0.0, 0.5, rows[0][2]]
        # x = 0.5*cos(t) for the undeformed oscillator started at rest
        assert max(abs(x - 0.5 * math.cos(t)) for t, x, _ in rows) < 1e-9
    proc = subprocess.run([sys.executable, "-m", "oscdeform", "solve"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# each catalog case with only the parameters it requires
_CATALOG_REQUIRED = {
    "harmonic": ["A=1"],
    "time_quadrature": ["A=1"],
    "case1": ["f0=0.3", "A=1"],
    "case2": ["g0=0.3", "n=2", "A=1"],
    # the bracket keeps its sign on the default span [0, 2*pi]
    "case3": ["beta=1", "gamma=0.5", "delta=1", "n=2", "A=25"],
    "case4_riccati": ["mu=0.8"],
    "case5_power": ["g0=0.3", "n=2", "A=1"],
    "case6": ["b=-0.5"],
    "case7": ["c=0.3", "A=1"],
}


def test_every_subcommand_runs_with_only_its_required_inputs(capsys):
    # the CLI's default settings run without error
    assert sorted(_CATALOG_REQUIRED) == sorted(catalog.CASE_IDS)
    runs = [["derive"], ["solve"], ["verify", "--suite", "all"],
            # a bracket that keeps its sign on the default span [0, 2*pi]
            ["rcd", "--param", "beta=1", "--param", "gamma=0.5",
             "--param", "delta=1", "--param", "A=25"],
            ["beam", "--alpha-coef", "3", "--beta-coef", "2"]]
    for case, params in _CATALOG_REQUIRED.items():
        runs.append(["catalog", "--case", case]
                    + [a for p in params for a in ("--param", p)])
    for argv in runs:
        code = cli.main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    # a start at rest at x0 = 0 is the deformed equilibrium: no phase fits
    assert cli.main(["solve", "--x0", "0"]) == 1
    err = capsys.readouterr().err
    assert "equilibrium" in err and "--alpha" in err and "--v0" in err


@pytest.mark.parametrize("argv", [
    ["rcd", "--param", "beta=1", "--param", "gamma=0.5", "--param",
     "delta=1", "--param", "A=3"],
    ["catalog", "--case", "case3", "--param", "beta=1", "--param",
     "gamma=0.5", "--param", "delta=1", "--param", "n=2", "--param", "A=1"],
])
def test_bracket_that_changes_sign_on_the_span_exits_two(capsys, argv):
    # the bracket passes through zero between two samples, where the CSV
    # used to jump from one sign to the other with exit 0
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: BracketZero: bracket changes "
                          "sign between t_ref = ")


@pytest.mark.parametrize("argv", [
    ["solve", "--samples", "5"],
    ["solve", "--t0", "1", "--t1", "0", "--method", "second-order",
     "--samples", "5"],
    ["rcd", "--param", "beta=1", "--param", "gamma=0.5", "--param",
     "delta=1", "--param", "A=3", "--t1", "4", "--samples", "5"],
    ["beam", "--alpha-coef", "3", "--beta-coef", "2", "--samples", "5"],
    ["catalog", "--case", "harmonic", "--param", "A=1", "--samples", "5"],
])
def test_csv_rows_increase_in_t(capsys, argv):
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(ts) == 5 and all(b > a for a, b in zip(ts, ts[1:]))


def test_catalog_default_span_of_a_one_pole_interval_case(capsys):
    # time_quadrature and case4_riccati live between two poles: with
    # neither --t0 nor --t1 they run on theta in [0.1, pi - 0.1]; a span
    # given in full, or in part, keeps the old defaults 0 and 2*pi
    argv = ["catalog", "--case", "case4_riccati", "--param", "mu=0.8",
            "--omega", "2", "--alpha", "0.5", "--samples", "3"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [
        (0.1 - 0.5) / 2, (math.pi / 2 - 0.5) / 2, (math.pi - 0.1 - 0.5) / 2]
    assert cli.main(argv + ["--t0", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(lines[i].split(",")[0]) for i in (1, -1)] == [
        0.1, 2 * math.pi]


def test_solve_stops_at_a_fold_of_the_velocity_law(capsys):
    # g = 0.3*v, omega = 1.5: G'(v) = sin(theta) - 0.45*cos(theta) vanishes
    # at tan(theta) = 0.45, where the velocity is undefined (as in case7)
    code = cli.main(["solve", "--f", "0", "--g", "0.3*v", "--omega", "1.5",
                     "--alpha", "0.2", "--t0", "0.1", "--t1", "1.5",
                     "--x0", "0.3", "--samples", "101"])
    assert code == 2
    err = capsys.readouterr().err
    assert "NonSmoothPoint" in err
    t_fold = float(re.search(r"folds at t = ([-+.0-9e]+)", err).group(1))
    assert abs(t_fold - (math.atan(0.45) - 0.2) / 1.5) < 1e-6


def test_transit_leaving_the_range_of_x_plus_g_is_non_smooth(capsys):
    # x + 0.2*x^2 never goes below -1.25; a collocation iterate through the
    # pole at 2*pi/5 asks for less from the branch x < -2.5
    code = cli.main(["solve", "--f", "1", "--g", "0.2*x^2", "--omega", "5",
                     "--t0", "0.6283185307179586", "--t1", "2",
                     "--x0", "-5", "--v0", "-0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "NonSmoothPoint" in err and "range of x + g" in err
    pole = float(re.search(r"pole t = ([-+.0-9e]+)", err).group(1))
    assert abs(pole - 2 * math.pi / 5) < 1e-12


def test_exit_two_on_numerical_failure(capsys):
    # constant f does not vanish at the cotangent pole, so the crossing
    # velocity diverges and the driver refuses to continue
    code = cli.main(["solve", "--f", "1", "--g", "0", "--omega", "1",
                     "--alpha", "0", "--t0", "0.5", "--t1", "6.0",
                     "--x0", "0.4", "--v0", "0.2"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    # the bracket of case3's root solve leaves the real branch at t = 0.2;
    # the message shows plain numbers, not numpy scalar reprs
    code = cli.main(["catalog", "--case", "case3", "--param", "beta=1",
                     "--param", "gamma=0.3", "--param", "delta=0.5",
                     "--param", "n=3", "--param", "A=1.3", "--t0", "0.2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "BranchViolation: bracket -0.24777" in err
    assert "np." not in err and "numpy" not in err


@pytest.mark.parametrize("argv, name", [
    (["derive", "--omega", "x"], "x"),
    (["derive", "--f", "u"], "u"),
    (["solve", "--g", "u"], "u"),
    (["catalog", "--case", "time_quadrature", "--f", "x", "--param", "A=1"],
     "x"),
    (["derive", "--g", "y"], "y"),
])
def test_exit_one_on_a_name_the_expression_may_not_use(capsys, argv, name):
    # a variable outside the allowed ones is a parse error, like a free
    # parameter (y is one), not a numerical failure
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: unbound name: %s" % name)


def test_singular_coefficient_message_shows_plain_numbers(capsys):
    code = cli.main(["solve", "--f", "0.25*sin(t+0.3)",
                     "--g", "0.1*sin(t+0.3)^2", "--alpha", "0.3",
                     "--t0", "0.5", "--t1", "6", "--method", "second-order",
                     "--samples", "201"])
    assert code == 2
    err = capsys.readouterr().err
    assert "SingularCoefficient" in err
    assert "np.float64" not in err


def test_second_order_march_across_x_plus_g_zero_exits_two(capsys):
    # the march crosses x + g = 0 near t = 2.84, where its coefficient of
    # xdd vanishes, and comes out 4.5e-7 off in x; its first integral,
    # read at every row, drifts past the limit in the span just after
    for rtol in ("1e-10", "1e-13"):
        code = cli.main(["solve", "--f", "0.25*sin(t+0.3)",
                         "--g", "0.1*sin(t+0.3)^2", "--alpha", "0.3",
                         "--t0", "0.5", "--t1", "5", "--method",
                         "second-order", "--samples", "201", "--rtol", rtol])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        m = re.match(r"numerical failure: SingularCoefficient: the "
                     r"second-order march left its first integral between "
                     r"t = (\S+) and t = (\S+) \(", err)
        assert m, err
        ta, tb = map(float, m.groups())
        assert 2.84 < tb < 3.0 and tb - ta == pytest.approx(4.5 / 200)


def test_second_order_drift_reads_alpha_refitted_to_the_start(capsys):
    # --alpha 1 disagrees with --v0 0.7 under the first integral (G reads
    # 0.47 at the start with it); the march starts from (x0, v0), and its
    # drift is read with alpha refitted to that start
    assert cli.main(["solve", "--method", "second-order", "--alpha", "1",
                     "--t0", "0.2", "--v0", "0.7", "--samples", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 6


def test_second_order_drift_stays_below_its_limit_over_many_periods():
    # a healthy march over three periods at rtol 1e-13, where rounding
    # keeps the drift from falling with rtol, and over twenty at 1e-10
    for t1, rtol in (("20", "1e-13"), ("125", "1e-10")):
        assert cli.main(["solve", "--method", "second-order",
                         "--g", "0.2*x^2", "--t1", t1, "--rtol", rtol,
                         "--samples", "401", "--out", os.devnull]) == 0


def test_exit_three_on_verification_failure(monkeypatch, capsys):
    def failing_suite():
        return [verify.Check("stub/always-fails", 1.0, 1e-6, False)]

    monkeypatch.setitem(verify.SUITES, "stub", failing_suite)
    code = cli.main(["verify", "--suite", "stub"])
    assert code == 3
    assert "0/1 checks passed" in capsys.readouterr().out


def test_config_file_supplies_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample run\n"
                   "f = 0.4*sin(t + 0.3)\n"
                   "g = 0\n"
                   "omega = 1\n"
                   "alpha = 0.3\n"
                   "t0 = 0.5\n"
                   "t1 = 2.5\n"
                   "samples = 3\n"
                   "x0 = 1.2\n")
    out1 = tmp_path / "from_config.csv"
    assert cli.main(["solve", "--config", str(cfg),
                     "--out", str(out1)]) == 0
    _, rows = read_rows(out1)
    assert rows.shape == (3, 3)
    assert math.isclose(rows[0, 0], 0.5) and math.isclose(rows[-1, 0], 2.5)

    out2 = tmp_path / "flag_override.csv"
    assert cli.main(["solve", "--config", str(cfg), "--samples", "7",
                     "--out", str(out2)]) == 0
    _, rows = read_rows(out2)
    assert rows.shape == (7, 3)

    # keys for flags that solve does not declare are ignored, so one file
    # can serve several commands
    shared = tmp_path / "shared.cfg"
    shared.write_text(cfg.read_text() + "suite = all\nmode = approx\n")
    out3 = tmp_path / "from_shared.csv"
    assert cli.main(["solve", "--config", str(shared),
                     "--out", str(out3)]) == 0
    assert out3.read_bytes() == out1.read_bytes()

    # a file value is converted by its flag's type like a command-line one
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text() + "samples = many\n")
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "--samples" in capsys.readouterr().err
    bad.write_text(cfg.read_text() + "method = bogus\n")
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err

    missing = cli.main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert missing == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_readme_cli_reference_matches_parser():
    # each subcommand's bullet in README's CLI reference names exactly the
    # flags that subcommand declares, so the docs cannot drift from argparse
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    ref = text[text.index("## CLI reference"):]
    ref = ref[:ref.index("\n## ")]
    flag = re.compile(r"--[a-z][a-z0-9-]*")
    declared = {name: {s for a in p._actions for s in a.option_strings}
                - {"-h", "--help"}
                for name, p in cli.subcommands(cli.build_parser()).items()}
    documented = {}
    for chunk in ref.split("\n- `")[1:]:
        name, body = chunk.split("`", 1)
        documented[name] = set(flag.findall(body.split("\n\n")[0]))
    assert documented == declared
    assert set(flag.findall(ref)) <= set().union(*declared.values())


def test_constant_power_beyond_the_double_range(capsys):
    # derive prints f_x's 2^1100 unfolded; solve evaluates it and reports
    # the typed overflow, not a bare OverflowError
    assert cli.main(["derive", "--f", "2^1100*x", "--g", "0"]) == 0
    assert "f = 2^1100*x" in capsys.readouterr().out
    code = cli.main(["solve", "--f", "2^1100*x", "--g", "0", "--t0", "0.3",
                     "--t1", "1", "--x0", "0.4", "--samples", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip() == "numerical failure: EvalDomainError: overflow in power"
