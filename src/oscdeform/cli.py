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
import functools
import math
import sys

from . import apps, catalog
from . import verify as verify_mod
from .deform import (
    DeformedOscillator,
    first_integral_velocity,
    fit_alpha,
    generate_ode,
    generate_ode_time_varying,
    integrate_first_integral,
    integrate_form,
)
from .errors import (
    CotangentPole,
    ExprSyntaxError,
    OscdeformError,
    SingularCoefficient,
    UnboundNameError,
    UnknownFunctionError,
    ZeroDenominator,
)
from .exprdsl import (
    Num,
    Var,
    _substitute,
    as_expr,
    bind,
    differentiate,
    evaluate,
    to_str,
)
from .numerics import linspace


class UsageError(Exception):
    pass


def _checked(convert, ok, expected):
    """An argparse type: convert(text), accepted only when ok(value)."""
    def parse(text):
        try:
            if ok(convert(text)):
                return convert(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r"
                                         % (expected, text))
    return parse


def _finite_positive(x):
    return 0.0 < x < math.inf


_positive = _checked(float, _finite_positive, "a finite positive number")
_finite = _checked(float, math.isfinite, "a finite number")
_samples = _checked(int, lambda n: n >= 2, "an integer >= 2")


def _constant(text):
    """float(text), or the value of an expression whose t-derivative folds
    to the constant 0, such as "0*t"; ValueError for anything else."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        e = as_expr(text)
        d = differentiate(e, "t")
        if isinstance(d, Num) and d.value == 0.0:
            return evaluate(e, {"t": 0.0})
    except OscdeformError:
        pass
    raise ValueError("not a constant: %r" % text)


def _omega_or_expr(text):
    """derive's --omega: a constant (see _constant) is checked like
    _positive; any other text is kept as an expression in t."""
    try:
        value = _constant(text)
    except ValueError:
        return text
    if not _finite_positive(value):
        raise argparse.ArgumentTypeError(
            "expected a finite positive number, got %r" % text)
    return value


def _parse_kv(text):
    if "=" not in text:
        raise UsageError("expected key=value, got %r" % text)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _parse_params(items, command):
    """Bind 'NAME=VALUE' items to finite floats; a later item wins.  rcd's
    omega takes precedence over --omega, so it gets --omega's check."""
    params = {}
    for item in items:
        key, value = _parse_kv(item)
        check = _positive if (command, key) == ("rcd", "omega") else _finite
        try:
            params[key] = check(value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError("parameter %s: %s" % (key, exc))
    return params


def _need(params, name):
    if name not in params:
        raise UsageError("missing required parameter %s "
                         "(use --param %s=VALUE)" % (name, name))
    return params[name]


def _load_config_file(path):
    """Flat key=value file as flag defaults; keys 'param.NAME' feed --param."""
    values, params = {}, []
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
            params.append("%s=%s" % (key[len("param."):], value))
        else:
            values[key] = value
    values["param"] = params
    return values


_COMMANDS = {
    "derive": "print the generated ODE",
    "solve": "integrate and export CSV",
    "verify": "run a named check suite",
    "rcd": "travelling-wave profile CSV",
    "beam": "cantilever beam trajectory CSV",
    "catalog": "closed-form solution CSV",
}

_GRID = "solve rcd beam catalog"
_TOL = ("DOP853 tolerance of solve where g reads v, of solve --method "
        "second-order and of beam; the pole march resolves y to its chop")

# (flag, the subcommands that read it, its argparse declaration)
_FLAGS = [
    ("--config", " ".join(_COMMANDS),
     dict(metavar="FILE", help="flat key=value config file")),
    ("--param", "derive solve rcd beam catalog",
     dict(action="append", default=[], metavar="K=V",
          help="bind a named parameter (repeatable)")),
    ("--f", "derive solve catalog",
     dict(default="0", help="deformation f(t, x, v)")),
    ("--g", "derive solve catalog",
     dict(default="0", help="deformation g(t, x, v)")),
    ("--omega", "derive",
     dict(type=_omega_or_expr, default="1",
          help="base frequency: a number or an expression in t")),
    ("--omega", _GRID,
     dict(type=_positive, default=1.0, help="base frequency")),
    ("--alpha", "derive rcd catalog",
     dict(type=_finite, default=0.0, help="phase constant")),
    ("--alpha", "solve",
     dict(type=_finite, help="phase constant (default: fitted to --x0 and "
                             "--v0 when --v0 is given, else 0, or where "
                             "0 puts --t0 on a pole, fitted to a start at "
                             "rest)")),
    ("--t0", "solve rcd beam", dict(type=_finite, default=0.0)),
    ("--t1", "solve rcd beam", dict(type=_finite, default=2.0 * math.pi)),
    # catalog's defaults depend on the case (see _catalog_span)
    ("--t0", "catalog", dict(type=_finite)),
    ("--t1", "catalog", dict(type=_finite)),
    ("--samples", _GRID, dict(type=_samples, default=101)),
    ("--out", _GRID, dict(help="output path (default: stdout)")),
    ("--rtol", "solve beam", dict(type=_positive, default=1e-10, help=_TOL)),
    ("--atol", "solve beam", dict(type=_positive, default=1e-12, help=_TOL)),
    ("--x0", "solve beam catalog", dict(type=_finite, default=0.5)),
    ("--v0", "solve", dict(type=_finite)),
    ("--v0", "beam", dict(type=_finite, default=0.0)),
    ("--method", "solve", dict(choices=["first-integral", "second-order"],
                               default="first-integral")),
    ("--suite", "verify", dict(help="suite name, or 'all'")),
    ("--alpha-coef", "beam", dict(type=_finite)),
    ("--beta-coef", "beam", dict(type=_finite)),
    ("--mode", "beam", dict(choices=["approx", "direct"], default="direct")),
    ("--case", "catalog",
     dict(help="one of: %s" % ", ".join(catalog.CASE_IDS))),
]


def build_parser(command=None):
    """The oscdeform parser; given a command, with that subcommand alone,
    so a run builds no other command's parser.  Its metavar then names all
    six, so the usage line argparse prints on an error is the same."""
    parser = argparse.ArgumentParser(
        prog="oscdeform",
        description="Generalized Lienard equations from deformed oscillators")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name, help in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help)
            for flag, readers, declaration in _FLAGS:
                if name in readers.split():
                    p.add_argument(flag, **declaration)
    return parser


def subcommands(parser):
    """The subcommand parsers of a build_parser() parser, by name."""
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def parse_args(argv=None):
    """Parsed flags; precedence is flags > config file > declared defaults.

    Config values become the subcommand's defaults, so argparse converts them
    with each flag's own type.  Keys for flags the subcommand does not
    declare are ignored, so one file can serve several commands.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.config:
        values = _load_config_file(args.config)
        p = subcommands(parser)[args.command]
        declared = {a.dest for a in p._actions
                    if a.default is not argparse.SUPPRESS}
        p.set_defaults(**{k: v for k, v in values.items() if k in declared})
        args = parser.parse_args(argv)
        # argparse checks choices only for values given on the command line
        for a in p._actions:
            if a.choices and getattr(args, a.dest) not in a.choices:
                p.error("argument %s: invalid choice: %r"
                        % (a.option_strings[0], getattr(args, a.dest)))
    if hasattr(args, "param"):
        args.param = _parse_params(args.param, args.command)
    return args


def _grid(args, backward=False):
    """The --samples times from --t0 to --t1, in increasing order, at which
    every CSV command prints its rows.  UsageError unless --t1 > --t0, or
    with backward, --t1 != --t0."""
    if not (args.t1 > args.t0 or (backward and args.t1 < args.t0)):
        raise UsageError("--t1 %r must %s --t0 %r"
                         % (args.t1, "differ from" if backward
                            else "be greater than", args.t0))
    return sorted(linspace(args.t0, args.t1, args.samples))


def _write_csv(out_path, header, rows):
    if out_path:
        try:
            fh = open(out_path, "w", newline="")
        except OSError as exc:
            raise UsageError("cannot write --out: %s" % exc)
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


def _printed(e):
    """The text of e with the velocity v written xd, as derive prints it."""
    return to_str(_substitute(e, {"v": Var("xd")}))


def cmd_derive(args):
    # f, g and omega(t) print with their parameters bound; argparse has
    # checked a constant omega and alpha
    params = args.param or None
    f, g = (bind(e, ("t", "x", "v"), params) for e in (args.f, args.g))
    omega = bind(args.omega, ("t",), params)
    form = generate_ode_time_varying(f, g, omega)
    if isinstance(args.omega, str):  # an expression in t
        integral = ("xd = omega(t)*cot(Phi(t) + alpha)*(x + g) - f,  "
                    "Phi(t) = integral of omega;  omega(t) = %s"
                    % to_str(omega))
    else:
        integral = ("(xd + f) = omega*cot(omega*t + alpha)*(x + g)"
                    "   with omega = %.17g, alpha = %.17g"
                    % (args.omega, args.alpha))
    print("generated ODE:")
    print("  (%s) * xdd + (%s) * xd + (%s) = 0"
          % tuple(_printed(form.exprs[k])
                  for k in ("coeff_xdd", "coeff_xd", "remainder")))
    print("first integral:")
    print("  %s" % integral)
    print("  f = %s" % _printed(f))
    print("  g = %s" % _printed(g))
    return 0


# With _DRIFT_K at 1, healthy second-order marches read at most 0.56 of
# _check_drift's limit (rtol 1e-6 to 1e-14, spans up to 300) and marches
# across x + g = 0 read 800 to 26,000; below rtol 1e-11 drift stops falling.
_DRIFT_K = 30.0


def _check_drift(osc, start, rows, rtol):
    """SingularCoefficient at the first span of rows (t, x, v), from the
    start (t0, x0, v0) on, where G = (v + f) sin(theta) - omega cos(theta)
    (x + g), alpha refitted to the start, passes _DRIFT_K max(rtol, 1e-11)
    (1 + periods of theta marched) of 1 + |v + f| + omega |x + g|."""
    t0, w, alpha = start[0], osc.omega, fit_alpha(osc, start)
    tol, prev = _DRIFT_K * max(rtol, 1e-11), t0
    for t, x, v in sorted(rows, key=lambda row: abs(row[0] - t0)):
        vf, xg = v + osc.f(t, x, v), x + osc.g(t, x, v)
        th = w * t + alpha
        drift = (abs(vf * math.sin(th) - w * math.cos(th) * xg)
                 / (1.0 + abs(vf) + w * abs(xg)))
        limit = tol * (1.0 + w * abs(t - t0) / (2.0 * math.pi))
        if not drift <= limit:
            raise SingularCoefficient(
                "the second-order march left its first integral between "
                "t = %r and t = %r (drift %.3g, limit %.3g), most likely "
                "across x + g = 0, where its coefficient of xdd vanishes"
                % (float(prev), float(t), float(drift), float(limit)))
        prev = t


def cmd_solve(args):
    grid = _grid(args, backward=args.method == "second-order")
    if args.alpha is None and args.v0 is not None:
        osc = DeformedOscillator(args.f, args.g, args.omega, alpha=0.0,
                                 params=args.param or None)
        alpha = fit_alpha(osc, (args.t0, args.x0, args.v0))
    else:
        alpha = 0.0 if args.alpha is None else args.alpha
    osc = DeformedOscillator(args.f, args.g, args.omega, alpha=alpha,
                             params=args.param or None)
    try:
        if args.method == "second-order":
            form = generate_ode(osc)
            v0 = (first_integral_velocity(osc, args.t0, args.x0)
                  if args.v0 is None else args.v0)
            x_of_t, v_of_t = integrate_form(form, args.t0, (args.x0, v0),
                                            args.t1, rtol=args.rtol,
                                            atol=args.atol)
            rows = [(t, x_of_t(t), v_of_t(t)) for t in grid]
            _check_drift(osc, (args.t0, args.x0, v0), rows, args.rtol)
        else:
            traj = integrate_first_integral(osc, args.t0, args.x0, args.t1,
                                            t_eval=grid, v0=args.v0,
                                            rtol=args.rtol, atol=args.atol)
            rows = [(s.t, s.x, s.v) for s in traj.states]
    except CotangentPole as exc:
        # without v0 the velocity comes from the first integral, which is
        # singular at a pole start (the defaults t0 = 0, alpha = 0 are one)
        if args.v0 is not None:
            raise
        if args.alpha is None:
            # neither given: start at rest, with alpha fitted, as --v0 0
            rest = argparse.Namespace(**dict(vars(args), v0=0.0))
            try:
                return cmd_solve(rest)
            except ZeroDenominator:
                raise UsageError(
                    "--x0 %r at rest is the deformed equilibrium (x + g = 0 "
                    "and v + f = 0), where no phase can be fitted: give "
                    "--alpha or a non-zero --v0" % args.x0)
        raise UsageError("--t0 sits on a cotangent pole of the first "
                         "integral: give --v0, or move --t0 or --alpha off "
                         "the pole (%s)" % exc)
    _write_csv(args.out, ["t", "x", "v"], rows)
    return 0


def cmd_verify(args):
    if not args.suite:
        raise UsageError("verify needs --suite NAME (or --suite all)")
    names = (sorted(verify_mod.SUITES) if args.suite == "all"
             else [args.suite])
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


def cmd_rcd(args):
    p = args.param
    params = {
        "beta": _need(p, "beta"),
        "gamma": _need(p, "gamma"),
        "delta": _need(p, "delta"),
        "A": _need(p, "A"),
        "omega": p.get("omega", args.omega),
        "alpha": p.get("alpha", args.alpha),
    }
    if "xi_ref" in p:
        params["xi_ref"] = p["xi_ref"]
    xi = _grid(args)
    wave = apps.rcd_travelling_wave(params)
    _write_csv(args.out, ["xi", "u"], [(x, wave(x)) for x in xi])
    return 0


def cmd_beam(args):
    if args.alpha_coef is None or args.beta_coef is None:
        raise UsageError("beam needs --alpha-coef and --beta-coef")
    grid = _grid(args)
    model = apps.BeamModel(args.alpha_coef, args.beta_coef, omega=args.omega,
                           c1=args.param.get("c1", 0.0))
    traj = apps.beam_solve(model, args.mode, (args.x0, args.v0),
                           (args.t0, args.t1), t_eval=grid,
                           rtol=args.rtol, atol=args.atol)
    _write_csv(args.out, ["t", "u", "v"],
               [(s.t, s.x, s.v) for s in traj.states])
    return 0


def _catalog_solution(args):
    w, al, p = args.omega, args.alpha, args.param
    need = functools.partial(_need, p)
    case = args.case
    if case == "harmonic":
        return catalog.harmonic(need("A"), w, al)
    if case == "time_quadrature":
        return catalog.time_quadrature(args.f, args.g, need("A"), w, al)
    if case == "case1":
        return catalog.case1(need("f0"), need("A"), w, al)
    if case == "case2":
        return catalog.case2(need("g0"), need("n"), need("A"), w, al)
    if case == "case3":
        return catalog.case3(need("beta"), need("gamma"), need("delta"),
                             need("n"), need("A"), w, al)
    if case == "case4_riccati":
        return catalog.case4_riccati(need("mu"), p.get("nu", 0.0), w, al,
                                     t0=args.t0, x0=args.x0)
    if case == "case5_power":
        return catalog.case5_power(need("g0"), need("n"), need("A"), w, al)
    if case == "case6":
        return catalog.case6(need("b"), p.get("c1", 0.0), w, al)
    if case == "case7":
        return catalog.case7(need("c"), need("A"), w, al)
    raise UsageError("unknown case %r; available: %s"
                     % (case, ", ".join(catalog.CASE_IDS)))


# cases whose default span is one pole interval: case4_riccati lives
# between two cotangent poles, and time_quadrature crosses one only where
# g_t - f vanishes there
_ONE_POLE_INTERVAL = ("time_quadrature", "case4_riccati")


def _catalog_span(args):
    """Fill in --t0 and --t1: by default 0 and 2*pi, but for a case of
    _ONE_POLE_INTERVAL given neither, theta from 0.1 to pi - 0.1."""
    if (args.t0 is None and args.t1 is None
            and args.case in _ONE_POLE_INTERVAL):
        args.t0, args.t1 = ((th - args.alpha) / args.omega
                            for th in (0.1, math.pi - 0.1))
    if args.t0 is None:
        args.t0 = 0.0
    if args.t1 is None:
        args.t1 = 2.0 * math.pi


def cmd_catalog(args):
    if not args.case:
        raise UsageError("catalog needs --case NAME")
    _catalog_span(args)
    grid = _grid(args)
    sol = _catalog_solution(args)
    rows = [(t, sol(t), sol.v_evaluator(t)) for t in grid]
    _write_csv(args.out, ["t", "x", "v"], rows)
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
    try:
        args = parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a bad command line
        return 0 if exc.code == 0 else 1
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ExprSyntaxError, UnknownFunctionError, UnboundNameError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 1
    except (OscdeformError, ValueError, ArithmeticError) as exc:
        print("numerical failure: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
