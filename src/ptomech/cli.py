"""Command-line surface: classify, sweep, evolve, steady and figure presets.

Rates are accepted in units of kappa (matching how the parameter points are
usually quoted); ``--kappa-hz`` sets the absolute scale. Times on the command
line are in units of 1/kappa; serialized output uses seconds and meters.
Output is CSV (fixed significant digits, '.' decimal, mandatory header row) or
a JSON mirror with identical field names. Commands hand named columns to
:mod:`.tables`, which documents how each format is written and where the two
differ. Every flag that takes a value can be supplied through an environment
variable with the ``PTOM_`` prefix (e.g. ``PTOM_GAMMA``); only the chosen
subcommand's variables are read, each is checked like its flag, and explicit
flags win. Each command's parser is built once per process and shared
read-only (:func:`build_parser`); the variables, and ``COLUMNS`` for help,
are read on every call.

``classify`` prints everything in units of kappa. Its first six columns are
the row a one-cell ``sweep`` prints at the same point, from the same rule;
the rest are the supermode frequencies and drift eigenvalues of
``spectrum.eigenvalues``, real and imaginary parts.

``evolve`` (and every trajectory figure) tabulates the closed forms next to the
RK4 oracle and reports, in its footer, ``max_rel_discrepancy_x``: the largest
|x_analytic - x_numeric| relative to the oracle's local amplitude
2 x_zpf |<b>| (x itself crosses zero); ``max_rel_discrepancy_numbers``: the
largest relative discrepancy of n_a, n_b and of the stimulated parts n_a_st,
n_b_st (the oracle's, split from its one moment series by
``numeric.stimulated_spontaneous_split``); ``numbers_source`` (always
``analytic``: one closed form covers the whole (gamma, G) plane) and, when
the oracle reached its overflow guard, ``truncated_at_t``. Both relative
errors are floored at 1e-12 in the denominator, and either above
``--max-discrepancy`` (default 1e-6) exits 4.

Exit codes: 0 ok; 2 invalid configuration: a bad flag or ``PTOM_*`` value,
an unwritable ``--out`` or stdout, or a request that cannot be allocated; 3 no
finite steady state at a ``steady`` point (``analytic.NoSteadyState``); 4
analytic/numeric discrepancy above threshold, or a closed form that is not
finite at a requested time (``analytic.ClosedFormError``). :func:`main` alone
maps errors to exit codes, and each failure prints one line on stderr.

A JSON document starts with ``command`` and a ``config`` block of the flags:
``params_in_kappa_units`` (gamma, G, omega1), ``init`` (alpha_mag, alpha_phase,
beta_mag, beta_phase), kappa_hz, mass, t_end, dt, samples, tol, ``output``
(--out), format, precision, ``sweep`` (the grid or curve of a sweep) and
``figure`` (the preset of ``figure --show-preset``); a flag the command does
not have reads null. A figure run records the command it runs, evolve or steady.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import re
import sys

import numpy as np

from . import analytic, numeric, presets, spectrum, tables
from .model import CoherentInit, make_params
from .presets import PRESETS

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSTABLE = 3
EXIT_DISCREPANCY = 4


class DiscrepancyExceeded(Exception):
    """Analytic and numeric trajectories disagree beyond the threshold."""


@contextlib.contextmanager
def _output_errors(output: str | None):
    """Turn an OSError writing ``--out`` (stdout if None) into one ValueError line."""
    try:
        yield
    except OSError as exc:
        if not output:
            # The interpreter flushes stdout again at exit: point its
            # descriptor, if it has one, at os.devnull so that flush succeeds.
            with contextlib.suppress(io.UnsupportedOperation):
                stdout_fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout_fd)
                os.close(devnull)
        target = f"--out {output}" if output else "stdout"
        raise ValueError(f"cannot write {target}: {exc.strerror or exc}")


def _write_output(columns: dict, footer: dict | None, config: dict) -> None:
    """Emit named columns (see :mod:`.tables`) in CSV or JSON, to ``--out`` or stdout."""
    footer = footer or {}
    if config["format"] == "json":
        head = {"command": config["command"], "config": config, "columns": list(columns)}
        pieces = tables.json_pieces(head, columns, footer, config["precision"])
    else:
        pieces = tables.csv_pieces(columns, footer, config["precision"])
    with _output_errors(config["output"]):
        if config["output"]:
            with open(config["output"], "w", newline="") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()


def _build_params(args):
    kappa = args.kappa_hz
    return make_params(kappa, args.gamma * kappa, args.G * kappa, args.omega1 * kappa, args.mass)


# Per label column, the string of each regime code.
_LABEL_STRINGS = dict(zip(("region_id", "pt", "stability"),
                          zip(*[(str(label.region_id), label.pt.value, label.stability.value)
                                for label in spectrum.REGIME_LABELS])))


def _label_columns(codes: np.ndarray) -> dict:
    """region_id, pt and stability of an array of regime codes, as coded columns."""
    return {name: tables.Coded(strings, codes) for name, strings in _LABEL_STRINGS.items()}


def _config_from_args(args, command: str, sweep: dict | None = None) -> dict:
    """The config block (see the module docstring), after checking the flags
    it records that not every command reads: --precision, --tol, --kappa-hz,
    --omega1 and --mass."""
    if args.precision < 1:
        raise ValueError("--precision must be >= 1")
    spectrum.check_tol(args.tol)
    make_params(args.kappa_hz, 0.0, 0.0, args.omega1 * args.kappa_hz, args.mass)
    # Each command's parser defines only its own flags; any other reads None.
    return {
        "command": command,
        "params_in_kappa_units": {name: getattr(args, name, None)
                                  for name in ("gamma", "G", "omega1")},
        "init": {name: getattr(args, name, None)
                 for name in ("alpha_mag", "alpha_phase", "beta_mag", "beta_phase")},
        **{name: getattr(args, name, None)
           for name in ("kappa_hz", "mass", "t_end", "dt", "samples", "tol")},
        "output": args.out,
        "format": args.format,
        "precision": args.precision,
        "sweep": sweep,
        "figure": args.name if command == "figure" else None,
    }


def cmd_classify(args) -> int:
    if args.gamma is None or args.G is None:
        raise ValueError("classify requires --gamma and --G (in units of kappa)")
    _build_params(args)  # for its checks of the rates, and their error lines
    config = _config_from_args(args, "classify")
    # The 1x1 case of sweep's rule, then the closed-form spectrum, all in kappa units.
    g, G = np.array([args.gamma]), np.array([args.G])
    codes, rmax = spectrum._codes_and_rmax(g, G, args.tol)
    columns = {"gamma_over_kappa": g, "G_over_kappa": G, **_label_columns(codes),
               "max_re_lambda": rmax}
    names = ("omega_plus", "omega_minus", "lambda_pp", "lambda_pm", "lambda_mp", "lambda_mm")
    for name, z in zip(names, spectrum.eigenvalues(args.gamma, args.G, args.omega1)):
        columns[f"{name}_re"], columns[f"{name}_im"] = np.array([z.real]), np.array([z.imag])
    _write_output(columns, None, config)
    return EXIT_OK


def cmd_sweep(args) -> int:
    names = ("gamma_min", "gamma_max", "gamma_res", "G_min", "G_max", "G_res")
    config = _config_from_args(args, "sweep", sweep={name: getattr(args, name) for name in names})
    grid = spectrum.phase_diagram((args.gamma_min, args.gamma_max), (args.G_min, args.G_max),
                                  (args.gamma_res, args.G_res), tol=args.tol)
    # Each axis value is formatted once: row i * n_G + j is (gamma_i, G_j).
    i, j = np.indices(grid.codes.shape).reshape(2, -1)
    columns = {
        "gamma_over_kappa": tables.Coded(grid.gamma_over_kappa, i),
        "G_over_kappa": tables.Coded(grid.G_over_kappa, j),
        **_label_columns(grid.codes.ravel()),
        "max_re_lambda": grid.max_re_lambda.ravel(),
    }
    _write_output(columns, None, config)
    return EXIT_OK


def _relmax(a: np.ndarray, b: np.ndarray, scale: np.ndarray, floor: float = 1e-12) -> float:
    """Largest |a - b| relative to ``scale`` (floored); NaN if any difference is NaN."""
    return float(np.max(np.abs(a - b) / np.maximum(scale, floor)))


def _evolve_tables(args):
    """Shared evolution engine for ``evolve`` and the trajectory figures."""
    if args.gamma is None or args.G is None:
        raise ValueError("evolve requires --gamma and --G (in units of kappa)")
    if args.t_end is None or args.t_end <= 0:
        raise ValueError("evolve requires --t-end > 0 (units of 1/kappa)")
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    # Written so that NaN fails too: no discrepancy passes a NaN threshold.
    if not args.max_discrepancy >= 0:
        raise ValueError(f"--max-discrepancy must be >= 0, got {args.max_discrepancy}")
    params = _build_params(args)
    init = CoherentInit.from_polar(args.alpha_mag, args.alpha_phase, args.beta_mag, args.beta_phase)
    k = params.kappa
    t_end_s = args.t_end / k
    dt_s = args.dt / k if args.dt is not None else None

    series = numeric.integrate_moments(params, init, t_end_s, dt=dt_s, n_samples=args.samples)
    t = series.t
    n = len(t)
    x_numeric = params.x_zpf * 2.0 * series.b_mean.real
    split = numeric.stimulated_spontaneous_split(series)
    n_numeric = np.stack([series.n_a, series.n_b, split.n_a_st, split.n_b_st])
    # Only the last row of a truncated run can lie past float range. The closed
    # forms are evaluated on the rows where the oracle is finite; the rest read
    # nan, so the discrepancy gate fails there.
    m = n if np.all(np.isfinite([x_numeric[-1], *n_numeric[:2, -1]])) else n - 1
    # One evaluation of <a>, <b> gives both x and the numbers.
    a, b = analytic.first_moments_closed_form(params, init, t[:m])
    numbers = analytic.numbers_from_moments(params, a, b, t[:m])
    closed = np.full((7, n), np.nan)
    closed[:, :m] = [analytic.displacement_from_moments(params, b, t[:m]),
                     numbers.n_a, numbers.n_b, numbers.n_a_st, numbers.n_b_st,
                     numbers.n_a_sp, numbers.n_b_sp]

    # x crosses zero, so its error is taken relative to the local amplitude
    # 2|<b>| (in units of x_zpf); the numbers are nonnegative and taken
    # relative to themselves.
    disc_x = _relmax(closed[0] / params.x_zpf, x_numeric / params.x_zpf,
                     2.0 * np.abs(series.b_mean))
    disc_n = _relmax(closed[1:5], n_numeric, np.abs(n_numeric))

    names = ["t", "x_analytic", "x_numeric", "n_a", "n_b", "n_a_st", "n_b_st", "n_a_sp", "n_b_sp"]
    columns = dict(zip(names, [t, closed[0], x_numeric, *closed[1:]]))
    footer = {
        "max_rel_discrepancy_x": disc_x,
        "max_rel_discrepancy_numbers": disc_n,
        "numbers_source": "analytic",
    }
    if series.truncated:
        footer["truncated_at_t"] = float(t[-1])
    # np.maximum, unlike max(), keeps a NaN discrepancy.
    return columns, footer, float(np.maximum(disc_x, disc_n))


def cmd_evolve(args) -> int:
    config = _config_from_args(args, "evolve")
    # Overflow is reported through the truncation footer and the discrepancy
    # gate below, not through numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        columns, footer, disc = _evolve_tables(args)
    _write_output(columns, footer, config)
    if not disc <= args.max_discrepancy:
        raise DiscrepancyExceeded(
            f"analytic/numeric discrepancy {disc:.3e} exceeds threshold {args.max_discrepancy:.3e}"
        )
    return EXIT_OK


def _steady_sweep_columns(args, axis: str) -> dict:
    values = np.linspace(args.sweep_min, args.sweep_max, args.sweep_points)
    k = args.kappa_hz
    # Rates out of float range are reported by make_params below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = values * k if args.sweep == "gamma" else np.full_like(values, args.gamma * k)
        G = values * k if args.sweep == "G" else np.full_like(values, args.G * k)
    if values.size:
        # What SystemParams checks (signs, float range) is monotone along a
        # linspace: where both ends pass, every point does.
        make_params(k, gamma[0], G[0], args.omega1 * k, args.mass)
        make_params(k, gamma[-1], G[-1], args.omega1 * k, args.mass)
    n_a_s, n_b_s, missing = analytic.steady_state(k, gamma, G, args.tol)
    return {axis: values, "n_a_s": n_a_s, "n_b_s": n_b_s,
            "stable": tables.Coded((0, 1), (missing == 0).astype(np.intp))}


def cmd_steady(args) -> int:
    if args.sweep:
        config = _config_from_args(args, "steady", sweep={
            "param": args.sweep, "min": args.sweep_min, "max": args.sweep_max,
            "points": args.sweep_points})
        if args.sweep_min is None or args.sweep_max is None:
            raise ValueError("steady sweep requires --sweep-min and --sweep-max")
        if not np.isfinite([args.sweep_min, args.sweep_max]).all():
            raise ValueError(f"steady sweep range must be finite, got "
                             f"[{args.sweep_min}, {args.sweep_max}]")
        if args.sweep_points < 0:
            raise ValueError(f"--sweep-points must be >= 0, got {args.sweep_points}")
        if args.sweep == "gamma" and args.G is None:
            raise ValueError("steady sweep over gamma requires --G")
        if args.sweep == "G" and args.gamma is None:
            raise ValueError("steady sweep over G requires --gamma")
        axis = "gamma_over_kappa" if args.sweep == "gamma" else "G_over_kappa"
        _write_output(_steady_sweep_columns(args, axis), None, config)
        return EXIT_OK
    config = _config_from_args(args, "steady")
    if args.gamma is None or args.G is None:
        raise ValueError("steady requires --gamma and --G (in units of kappa)")
    n_a_s, n_b_s = analytic.steady_numbers(_build_params(args), tol=args.tol)
    _write_output(tables.one_row({"gamma_over_kappa": args.gamma, "G_over_kappa": args.G,
                            "n_a_s": n_a_s, "n_b_s": n_b_s}), None, config)
    return EXIT_OK


def cmd_figure(args) -> int:
    preset = PRESETS.get(args.name)
    if preset is None:
        raise ValueError(f"unknown figure preset {args.name!r}; choose from {sorted(PRESETS)}")
    if args.show_preset:
        config = _config_from_args(args, "figure")
        record = {"name": preset.name, "kind": preset.kind, "description": preset.description}
        for name, value in (("gamma_over_kappa", preset.gamma), ("G_over_kappa", preset.G),
                            ("sweep_param", preset.sweep_param), ("sweep_min", preset.sweep_min),
                            ("sweep_max", preset.sweep_max), ("sweep_points", preset.sweep_points)):
            # Strings and ints as they are, floats at --precision, None as "".
            record[name] = (tables.float_text(value, args.precision) if isinstance(value, float)
                            else "" if value is None else value)
        _write_output(tables.one_row(record), None, config)
        return EXIT_OK
    # Presets fill in whatever the user did not override explicitly.
    if preset.gamma is not None and args.gamma is None:
        args.gamma = preset.gamma
    if preset.G is not None and args.G is None:
        args.G = preset.G
    if preset.kind == "steady_sweep":
        args.sweep = preset.sweep_param
        args.sweep_min = preset.sweep_min
        args.sweep_max = preset.sweep_max
        args.sweep_points = preset.sweep_points
        return cmd_steady(args)
    return cmd_evolve(args)


class _Parser(argparse.ArgumentParser):
    """Each flag that takes a value may also come from ``PTOM_<FLAG>``.

    A call parses with the parser of the command it names (see
    :func:`build_parser`), so only that command's variables are read, on
    every call.
    A set variable is parsed as if its flag came first on the command line:
    argparse converts and checks it (type, choices), and an explicit flag,
    coming later, wins. Errors raise argparse.ArgumentError, which main()
    reports in one line: argparse calls ``error()`` for an unrecognized flag
    or a missing subcommand even with ``exit_on_error=False``.

    A negative number is a value, not a flag, also with an exponent or as
    ``-inf``/``-nan`` (argparse's own pattern takes only -1 and -1.5 forms).
    """

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                                  re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message):
        raise argparse.ArgumentError(None, message)

    def _print_message(self, message, file=None):
        # Only help and usage are left to print once error() raises, both to
        # stdout; a failed write is reported like any other output's.
        with _output_errors(None):
            sys.stdout.write(message)
            sys.stdout.flush()

    def parse_known_args(self, args=None, namespace=None):
        from_env = []
        for action in self._actions:
            if not action.option_strings or action.nargs == 0:
                continue  # positionals and switches have no variable
            raw = os.environ.get(_env_name(action.dest))
            if raw is not None:
                from_env.append(f"{action.option_strings[-1]}={raw}")
        explicit = sys.argv[1:] if args is None else list(args)  # argparse's default
        return super().parse_known_args(from_env + explicit, namespace)


def _env_name(dest: str) -> str:
    return "PTOM_" + dest.upper()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kappa-hz", type=float, default=presets.KAPPA_HZ_DEFAULT,
                        help="cavity loss rate setting the absolute scale, rad/s (default 6.45e6)")
    parser.add_argument("--omega1", type=float, default=presets.OMEGA1_OVER_KAPPA_DEFAULT,
                        help="common frequency in units of kappa (default 2*pi*23.4 MHz / kappa)")
    parser.add_argument("--mass", type=float, default=presets.MASS_DEFAULT,
                        help="mechanical effective mass, kg (default 5e-11)")
    parser.add_argument("--tol", type=float, default=spectrum.DEFAULT_TOL,
                        help="classification tolerance in kappa-normalized units (default 1e-9)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--precision", type=int, default=12,
                        help="significant digits in numeric output (default 12)")
    parser.add_argument("--seedless", action="store_true",
                        help="assert that the run uses no random numbers (always true; "
                             "accepted for audit scripting)")


def _add_point(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", type=float, help="mechanical gain rate in units of kappa")
    parser.add_argument("--G", type=float, help="effective coupling in units of kappa")


def _add_evolution(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha-mag", type=float, default=presets.ALPHA_MAG_DEFAULT)
    parser.add_argument("--alpha-phase", type=float, default=presets.ALPHA_PHASE_DEFAULT,
                        help="initial cavity phase, radians")
    parser.add_argument("--beta-mag", type=float, default=presets.BETA_MAG_DEFAULT)
    parser.add_argument("--beta-phase", type=float, default=presets.BETA_PHASE_DEFAULT,
                        help="initial mechanical phase, radians")
    parser.add_argument("--t-end", type=float, default=presets.T_END_DEFAULT,
                        help="evolution time in units of 1/kappa (default 10)")
    parser.add_argument("--dt", type=float,
                        help="integration step in units of 1/kappa "
                             "(default 1e-3/max(1, gamma, G, omega1))")
    parser.add_argument("--samples", type=int, default=presets.SAMPLES_DEFAULT,
                        help="number of stored sample times (default 200)")
    parser.add_argument("--max-discrepancy", type=float, default=1e-6,
                        help="largest allowed analytic/numeric relative discrepancy (default 1e-6)")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma-min", type=float, default=0.0)
    parser.add_argument("--gamma-max", type=float, default=2.0)
    parser.add_argument("--gamma-res", type=int, default=201)
    parser.add_argument("--G-min", type=float, default=0.0)
    parser.add_argument("--G-max", type=float, default=2.0)
    parser.add_argument("--G-res", type=int, default=201)


def _add_steady(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sweep", choices=("G", "gamma"), help="sweep variable for curve output")
    parser.add_argument("--sweep-min", type=float)
    parser.add_argument("--sweep-max", type=float)
    parser.add_argument("--sweep-points", type=int, default=101)


def _add_figure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", help="preset name, e.g. 3a..3f, 4top, 4bot, 5a..5i, 6a, 6b")
    parser.add_argument("--show-preset", action="store_true",
                        help="print the preset parameter record instead of running it")


# Per command: its help line, what adds its own arguments, in order, and its handler.
_COMMANDS = {
    "classify": ("regime label and spectrum of one parameter point", (_add_point,), cmd_classify),
    "sweep": ("phase-diagram grid over (gamma, G)", (_add_sweep,), cmd_sweep),
    "evolve": ("time evolution: displacement and particle numbers",
               (_add_point, _add_evolution), cmd_evolve),
    "steady": ("steady-state particle numbers (single point or sweep)",
               (_add_point, _add_steady), cmd_steady),
    "figure": ("run a named parameter preset",
               (_add_figure, _add_point, _add_evolution), cmd_figure),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` if it names one: its own arguments, the common
    ones and its handler. Else the full parser, for ``ptomech --help`` and a
    missing or unknown command: its subcommands hold only a name and help line.

    Each is built once per process and shared, so treat it as read-only. It
    keeps no state between calls: ``PTOM_*`` variables are read on each parse
    and ``COLUMNS`` each time help is printed."""
    return _build_parser(command if command in _COMMANDS else None)


@functools.cache
def _build_parser(command: str | None) -> argparse.ArgumentParser:
    # exit_on_error=False: a bad value raises argparse.ArgumentError, which
    # main() reports in one line.
    if command is not None:
        parser = _Parser(prog=f"ptomech {command}", exit_on_error=False)
        _, adders, handler = _COMMANDS[command]
        for add_arguments in (*adders, _add_common):
            add_arguments(parser)
        parser.set_defaults(func=handler)
        return parser
    parser = _Parser(
        prog="ptomech",
        description="Two-mode gain/loss optomechanical dynamics: regimes, spectra, trajectories.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_line, exit_on_error=False)
    return parser


def _argument_error(exc: argparse.ArgumentError) -> str:
    """One line for a bad flag or PTOM_* value, quoting the variable if it is set."""
    text = str(exc)
    if exc.argument_name and exc.argument_name.startswith("--"):
        name = _env_name(exc.argument_name[2:].replace("-", "_"))
        if name in os.environ:
            text += f" ({name}={os.environ[name]!r})"
    return text


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv[1:] if command else argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"ptomech: invalid configuration: {_argument_error(exc)}", file=sys.stderr)
        return EXIT_INVALID
    except analytic.NoSteadyState as exc:
        print(f"ptomech: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (DiscrepancyExceeded, analytic.ClosedFormError) as exc:
        print(f"ptomech: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"ptomech: invalid configuration: cannot allocate memory{detail}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"ptomech: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
