"""Command-line front end.

Subcommands: derive (print the generated ODE and first integral), solve
(integrate and export CSV), verify (run a named check suite), rcd
(travelling-wave profile CSV), beam (cantilever trajectories), catalog
(closed-form solution CSV).

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure,
3 verification failure.  CSV output uses 17 significant digits, which
round-trips doubles exactly and keeps reruns byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import apps, catalog
from . import verify as verify_mod
from .deform import (
    DeformedOscillator,
    explicit_acceleration,
    first_integral_velocity,
    fit_alpha,
    generate_ode,
    generate_ode_time_varying,
    integrate_first_integral,
)
from .errors import (
    CotangentPole,
    ExprSyntaxError,
    OscdeformError,
    UnboundNameError,
    UnknownFunctionError,
)
from .exprdsl import to_str
from .numerics import IvpProblem, integrate


class UsageError(Exception):
    pass


_DEFAULTS = {
    "f": "0",
    "g": "0",
    "omega": "1",
    "alpha": None,
    "t0": 0.0,
    "t1": 2.0 * math.pi,
    "samples": 101,
    "rtol": 1e-10,
    "atol": 1e-12,
    "out": None,
    "format": "csv",
    "x0": 0.5,
    "v0": None,
    "method": "first-integral",
    "case": None,
    "mode": "direct",
    "alpha_coef": None,
    "beta_coef": None,
    "suite": None,
}

_FIELD_TYPES = {
    "f": str, "g": str, "omega": str, "alpha": float, "t0": float,
    "t1": float, "samples": int, "rtol": float, "atol": float, "out": str,
    "format": str, "x0": float, "v0": float, "method": str, "case": str,
    "mode": str, "alpha_coef": float, "beta_coef": float, "suite": str,
}


def _parse_kv(text):
    if "=" not in text:
        raise UsageError("expected key=value, got %r" % text)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _load_config_file(path):
    """Flat key=value file; keys 'param.NAME' feed the parameter table."""
    plain, params = {}, {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc)
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _parse_kv(line)
        key = key.replace("-", "_")
        if key.startswith("param."):
            params[key[len("param."):]] = value
        else:
            plain[key] = value
    return plain, params


class RunConfig:
    """Resolved options for one invocation: flags > config file > defaults."""

    def __init__(self, command, values, params):
        self.command = command
        self.params = params
        for key, value in values.items():
            setattr(self, key, value)
        if self.samples < 2:
            raise UsageError("samples must be >= 2")
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise UsageError("tolerances must be positive")
        if self.format != "csv":
            raise UsageError("unsupported output format %r" % self.format)

    @classmethod
    def from_args(cls, args):
        file_plain, file_params = {}, {}
        if getattr(args, "config", None):
            file_plain, file_params = _load_config_file(args.config)

        values = {}
        for key, typ in _FIELD_TYPES.items():
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
            elif key in file_plain:
                try:
                    values[key] = typ(file_plain[key])
                except ValueError:
                    raise UsageError("bad config value for %s: %r"
                                     % (key, file_plain[key]))
            else:
                values[key] = _DEFAULTS[key]

        params = {}
        for key, value in file_params.items():
            params[key] = value
        for item in getattr(args, "param", None) or []:
            key, value = _parse_kv(item)
            params[key] = value
        for key in list(params):
            try:
                params[key] = float(params[key])
            except ValueError:
                raise UsageError("parameter %s must be numeric, got %r"
                                 % (key, params[key]))
        return cls(args.command, values, params)

    def param(self, name, default=None):
        if name in self.params:
            return self.params[name]
        if default is None:
            raise UsageError("missing required parameter %s "
                             "(use --param %s=VALUE)" % (name, name))
        return default

    def omega_value(self):
        try:
            w = float(self.omega)
        except ValueError:
            raise UsageError("this command needs a numeric --omega, got %r"
                             % self.omega)
        if not w > 0.0:
            raise UsageError("omega must be positive")
        return w


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscdeform",
        description="Generalized Lienard equations from deformed oscillators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--f", help="deformation f(t, x, v)")
        p.add_argument("--g", help="deformation g(t, x, v)")
        p.add_argument("--omega", help="base frequency (real, or an "
                                       "expression in t for derive)")
        p.add_argument("--alpha", type=float, help="phase constant")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="bind a named parameter (repeatable)")
        p.add_argument("--t0", type=float)
        p.add_argument("--t1", type=float)
        p.add_argument("--samples", type=int)
        p.add_argument("--rtol", type=float)
        p.add_argument("--atol", type=float)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv"])
        p.add_argument("--config", help="flat key=value config file")
        return p

    common(sub.add_parser("derive", help="print the generated ODE"))
    p = common(sub.add_parser("solve", help="integrate and export CSV"))
    p.add_argument("--x0", type=float)
    p.add_argument("--v0", type=float)
    p.add_argument("--method", choices=["first-integral", "second-order"])
    p = common(sub.add_parser("verify", help="run a named check suite"))
    p.add_argument("--suite", help="suite name, or 'all'")
    common(sub.add_parser("rcd", help="travelling-wave profile CSV"))
    p = common(sub.add_parser("beam", help="cantilever beam trajectory CSV"))
    p.add_argument("--alpha-coef", dest="alpha_coef", type=float)
    p.add_argument("--beta-coef", dest="beta_coef", type=float)
    p.add_argument("--mode", choices=["approx", "direct"])
    p.add_argument("--x0", type=float)
    p.add_argument("--v0", type=float)
    p = common(sub.add_parser("catalog", help="closed-form solution CSV"))
    p.add_argument("--case", help="one of: %s" % ", ".join(catalog.CASE_IDS))
    p.add_argument("--x0", type=float)
    return parser


def _write_csv(out_path, header, rows):
    if out_path:
        fh = open(out_path, "w", newline="")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % float(cell) for cell in row])
    finally:
        if out_path:
            fh.close()


def cmd_derive(cfg):
    alpha = 0.0 if cfg.alpha is None else cfg.alpha
    try:
        w = float(cfg.omega)
        time_varying = False
    except ValueError:
        time_varying = True

    if time_varying:
        form = generate_ode_time_varying(cfg.f, cfg.g, cfg.omega,
                                         params=cfg.params or None)
        integral = ("xd = omega(t)*cot(Phi(t) + alpha)*(x + g) - f,  "
                    "Phi(t) = integral of omega;  omega(t) = %s" % cfg.omega)
    else:
        osc = DeformedOscillator(cfg.f, cfg.g, w, alpha=alpha,
                                 params=cfg.params or None)
        form = generate_ode(osc)
        integral = ("(xd + f) = omega*cot(omega*t + alpha)*(x + g)"
                    "   with omega = %.17g, alpha = %.17g" % (w, alpha))
    print("generated ODE:")
    print("  (%s) * xdd + (%s) * xd + (%s) = 0"
          % (to_str(form.exprs["coeff_xdd"]),
             to_str(form.exprs["coeff_xd"]),
             to_str(form.exprs["remainder"])))
    print("first integral:")
    print("  %s" % integral)
    print("  f = %s" % cfg.f)
    print("  g = %s" % cfg.g)
    return 0


def cmd_solve(cfg):
    w = cfg.omega_value()
    if cfg.alpha is None and cfg.v0 is not None:
        osc = DeformedOscillator(cfg.f, cfg.g, w, alpha=0.0,
                                 params=cfg.params or None)
        alpha = fit_alpha(osc, (cfg.t0, cfg.x0, cfg.v0))
    else:
        alpha = 0.0 if cfg.alpha is None else cfg.alpha
    osc = DeformedOscillator(cfg.f, cfg.g, w, alpha=alpha,
                             params=cfg.params or None)
    grid = np.linspace(cfg.t0, cfg.t1, cfg.samples)

    try:
        if cfg.method == "second-order":
            form = generate_ode(osc)
            v0 = cfg.v0
            if v0 is None:
                v0 = first_integral_velocity(osc, cfg.t0, cfg.x0)

            def rhs(t, y):
                return [y[1], explicit_acceleration(form, (t, y[0], y[1]))]

            traj = integrate(IvpProblem(rhs, "system", cfg.t0, (cfg.x0, v0),
                                        cfg.t1, rtol=cfg.rtol, atol=cfg.atol),
                             t_eval=grid)
        else:
            traj = integrate_first_integral(osc, cfg.t0, cfg.x0, cfg.t1,
                                            t_eval=grid, v0=cfg.v0,
                                            rtol=cfg.rtol, atol=cfg.atol)
    except CotangentPole as exc:
        # without v0 the velocity comes from the first integral, which is
        # singular at a pole start (the defaults t0 = 0, alpha = 0 are one)
        if cfg.v0 is not None:
            raise
        raise UsageError("--t0 sits on a cotangent pole of the first "
                         "integral: give --v0, or move --t0 or --alpha off "
                         "the pole (%s)" % exc)
    _write_csv(cfg.out, ["t", "x", "v"],
               [(s.t, s.x, s.v) for s in traj.states])
    return 0


def cmd_verify(cfg):
    if not cfg.suite:
        raise UsageError("verify needs --suite NAME (or --suite all)")
    names = (sorted(verify_mod.SUITES) if cfg.suite == "all"
             else [cfg.suite])
    for name in names:
        if name not in verify_mod.SUITES:
            raise UsageError("unknown suite %r; available: %s"
                             % (name, ", ".join(sorted(verify_mod.SUITES))))
    checks = []
    for name in names:
        checks.extend(verify_mod.run_suite(name))
    print(verify_mod.format_report(checks))
    failed = [c for c in checks if not c.passed]
    print("%d/%d checks passed" % (len(checks) - len(failed), len(checks)))
    return 3 if failed else 0


def cmd_rcd(cfg):
    params = {
        "beta": cfg.param("beta"),
        "gamma": cfg.param("gamma"),
        "delta": cfg.param("delta"),
        "A": cfg.param("A"),
        "omega": cfg.param("omega", cfg.omega_value()),
        "alpha": cfg.param("alpha",
                           0.0 if cfg.alpha is None else cfg.alpha),
    }
    if "xi_ref" in cfg.params:
        params["xi_ref"] = cfg.params["xi_ref"]
    wave = apps.rcd_travelling_wave(params)
    xi = np.linspace(cfg.t0, cfg.t1, cfg.samples)
    _write_csv(cfg.out, ["xi", "u"], [(x, wave(float(x))) for x in xi])
    return 0


def cmd_beam(cfg):
    if cfg.alpha_coef is None or cfg.beta_coef is None:
        raise UsageError("beam needs --alpha-coef and --beta-coef")
    model = apps.BeamModel(cfg.alpha_coef, cfg.beta_coef,
                           omega=cfg.omega_value(),
                           c1=cfg.param("c1", 0.0))
    u0 = 0.05 if cfg.x0 is None else cfg.x0
    v0 = 0.0 if cfg.v0 is None else cfg.v0
    grid = np.linspace(cfg.t0, cfg.t1, cfg.samples)
    traj = apps.beam_solve(model, cfg.mode, (u0, v0), (cfg.t0, cfg.t1),
                           t_eval=grid, rtol=cfg.rtol, atol=cfg.atol)
    _write_csv(cfg.out, ["t", "u", "v"],
               [(s.t, s.x, s.v) for s in traj.states])
    return 0


def _catalog_solution(cfg):
    w = cfg.omega_value()
    al = 0.0 if cfg.alpha is None else cfg.alpha
    case = cfg.case
    if case == "harmonic":
        return catalog.harmonic(cfg.param("A"), w, al)
    if case == "time_quadrature":
        return catalog.time_quadrature(cfg.f, cfg.g, cfg.param("A"), w, al)
    if case == "case1":
        return catalog.case1(cfg.param("f0"), cfg.param("A"), w, al)
    if case == "case2":
        return catalog.case2(cfg.param("g0"), cfg.param("n"),
                             cfg.param("A"), w, al)
    if case == "case3":
        return catalog.case3(cfg.param("beta"), cfg.param("gamma"),
                             cfg.param("delta"), cfg.param("n"),
                             cfg.param("A"), w, al)
    if case == "case4_riccati":
        return catalog.case4_riccati(cfg.param("mu"), cfg.param("nu", 0.0),
                                     w, al, t0=cfg.t0,
                                     x0=0.5 if cfg.x0 is None else cfg.x0)
    if case == "case5_power":
        return catalog.case5_power(cfg.param("g0"), cfg.param("n"),
                                   cfg.param("A"), w, al)
    if case == "case6":
        return catalog.case6(cfg.param("b"), cfg.param("c1", 0.0), w, al)
    if case == "case7":
        return catalog.case7(cfg.param("c"), cfg.param("A"), w, al)
    raise UsageError("unknown case %r; available: %s"
                     % (case, ", ".join(catalog.CASE_IDS)))


def cmd_catalog(cfg):
    if not cfg.case:
        raise UsageError("catalog needs --case NAME")
    sol = _catalog_solution(cfg)
    grid = np.linspace(cfg.t0, cfg.t1, cfg.samples)
    rows = []
    for t in grid:
        t = float(t)
        rows.append((t, sol(t), sol.v_evaluator(t)))
    _write_csv(cfg.out, ["t", "x", "v"], rows)
    return 0


_DISPATCH = {
    "derive": cmd_derive,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "rcd": cmd_rcd,
    "beam": cmd_beam,
    "catalog": cmd_catalog,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = RunConfig.from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ExprSyntaxError, UnknownFunctionError, UnboundNameError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except OscdeformError as exc:
        print("numerical failure: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print("numerical failure: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
