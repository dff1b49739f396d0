"""Top-level acceptance checks.

One test per shipped guarantee; each prints a single PASS/FAIL line with
the measured worst value against the stated tolerance (visible with
pytest -s; pytest -v also reports one line per criterion).  The numeric
work lives in oscdeform.verify so the same checks back the CLI's
``verify`` subcommand.
"""

import subprocess
import sys

from oscdeform import cli, verify


def _run(criterion, label, names, expect_counts):
    checks = []
    for name, expected in zip(names, expect_counts):
        got = verify.run_suite(name)
        assert len(got) == expected, (name, len(got))
        checks.extend(got)
    worst = max(c.value / c.threshold for c in checks)
    ok = all(c.passed for c in checks)
    print("criterion %2d %-38s %s  (worst margin %.3e of tolerance)"
          % (criterion, label, "PASS" if ok else "FAIL", worst))
    for c in checks:
        assert c.passed, "%s: %g !< %g" % (c.name, c.value, c.threshold)


def test_criterion_01_generated_forms_satisfied():
    # ten deformation pairs spanning time-, position-, velocity-dependent
    # and mixed cases; numerical trajectories satisfy the generated ODE
    assert len(verify.THEOREM_PAIRS) == 10
    kinds = set()
    for f, g in verify.THEOREM_PAIRS:
        if "x" in f or "x" in g:
            kinds.add("x")
        if "v" in f or "v" in g:
            kinds.add("v")
        if "t" in f or "t" in g:
            kinds.add("t")
    assert kinds == {"t", "x", "v"}
    _run(1, "generated forms, residual < 1e-6", ["theorem"], [10])


def test_criterion_02_catalog_solutions_verified():
    # nine closed-form families: residual scan and independent
    # reintegration from matched initial conditions, both < 1e-6
    _run(2, "catalog closed forms < 1e-6", ["catalog"], [18])


def test_criterion_03_phase_function_properties():
    # unit modulus to 1e-12 at 1000 random states; unwrapped argument
    # advances as -2*(omega*t + alpha) to 1e-7 along five trajectories
    _run(3, "phase modulus/argument", ["phase"], [6])


def test_criterion_04_energy_conservation_and_rate():
    # conserved to 1e-8 when undeformed and when dg/dt = f; otherwise the
    # drift matches the closed-form dissipation rate to 1e-6
    _run(4, "energy drift and rate", ["energy"], [3])


def test_criterion_05_isochrony():
    # amplitude-independent crossing times at (n*pi - alpha)/omega for the
    # three isochronous families, to 1e-6 across a tenfold amplitude change
    _run(5, "isochronous crossings < 1e-6", ["isochrony"], [6])


def test_criterion_06_hypergeometric_identities():
    # _hyp2f1_m1 against F(1, 1; 3; z) in closed form, F to 1e-13 and
    # dF/dz to 2e-12, and agreement of the two evaluation paths of the
    # hypergeometric solution to 1e-10
    _run(6, "hypergeometric identities", ["hyp2f1"], [3])


def test_criterion_07_reaction_convection_diffusion():
    # travelling-wave residual < 1e-6, closed form vs quadrature 1e-9,
    # coefficient inversion round-trip 1e-9, (f, g) coefficients vs the
    # power family 1e-12
    _run(7, "travelling waves", ["rcd"], [5])


def test_criterion_08_beam_deformation():
    # deformation solves its defining ODE to 1e-9, cubic coefficients
    # match exactly and sampled to 1e-10, approximate vs direct < 1e-3,
    # approximate vs the ODE generated from (0, g) < 1e-12
    _run(8, "cantilever beam", ["beam"], [5])


def test_criterion_09_riccati_family():
    # generated form residual < 1e-8 for both parameter sets, the
    # closed-form phase matches the trajectory with fitted alpha to 1e-6
    # and the conserved quantity drifts by less than 1e-8
    _run(9, "riccati-reducible family", ["riccati"], [6])


def test_criterion_10_cli_reproducible_and_exit_codes(tmp_path, monkeypatch,
                                                      capsys):
    args = ["solve", "--f", "0.3*sin(t + 0.3)",
            "--g", "0.2*sin(t + 0.3)^2", "--omega", "1", "--alpha", "0.3",
            "--t0", "0.5", "--t1", "6.783185307179586", "--samples", "150",
            "--x0", "0.4", "--v0", "0.9"]
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "oscdeform"] + args + ["--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]

    codes = {}
    out = tmp_path / "ok.csv"
    codes[0] = cli.main(["solve", "--f", "0", "--g", "0", "--x0", "0",
                         "--v0", "1", "--samples", "5", "--out", str(out)])
    codes[1] = cli.main(["solve", "--f", "0.3*sin(t", "--g", "0"])
    codes[2] = cli.main(["solve", "--f", "1", "--g", "0", "--omega", "1",
                         "--alpha", "0", "--t0", "0.5", "--t1", "6.0",
                         "--x0", "0.4", "--v0", "0.2"])
    monkeypatch.setitem(
        verify.SUITES, "stub",
        lambda: [verify.Check("stub/fail", 1.0, 1e-6, False)])
    codes[3] = cli.main(["verify", "--suite", "stub"])
    capsys.readouterr()

    ok = identical and all(codes[k] == k for k in codes)
    print("criterion 10 %-38s %s  (byte-identical=%s, exit codes %s)"
          % ("CLI reproducibility + exit codes", "PASS" if ok else "FAIL",
             identical, codes))
    assert identical
    assert codes == {0: 0, 1: 1, 2: 2, 3: 3}
