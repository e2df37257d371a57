"""Command-line surface: classify, sweep, evolve, steady and figure presets.

Rates are accepted in units of kappa (matching how the parameter points are
usually quoted); ``--kappa-hz`` sets the absolute scale. Times on the command
line are in units of 1/kappa; serialized output uses seconds and meters.
Output is CSV (fixed significant digits, '.' decimal, mandatory header row) or
a JSON mirror with identical field names. Commands hand the writer named
columns; each float column is formatted once, and CSV and JSON both take
their digits from those strings. Every flag that takes a value can be
supplied through an environment variable with the ``PTOM_`` prefix (e.g.
``PTOM_GAMMA``); only the chosen subcommand's variables are read, each is
checked like its flag, and explicit flags win.

``evolve`` (and every trajectory figure) tabulates the closed forms next to the
RK4 oracle and reports, in its footer, the largest relative discrepancy of the
displacement and of the particle numbers, ``numbers_source`` (always
``analytic``: one closed form covers the whole (gamma, G) plane) and, when
the oracle reached its overflow guard, ``truncated_at_t``.

Exit codes: 0 ok; 2 invalid configuration (a bad flag or ``PTOM_*`` value
included); 3 steady-state query at an unstable point; 4 analytic/numeric
discrepancy above threshold, or a closed form that is not finite at a
requested time (``analytic.ClosedFormError``). Each failure prints one line
on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, numeric, presets, spectrum
from .model import CoherentInit, make_params
from .presets import PRESETS

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSTABLE = 3
EXIT_DISCREPANCY = 4


class UnstableSteadyQuery(Exception):
    """Steady-state query at a point with no finite steady state."""


class DiscrepancyExceeded(Exception):
    """Analytic and numeric trajectories disagree beyond the threshold."""


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of one CLI invocation."""

    command: str
    params_in_kappa_units: dict
    init: dict
    kappa_hz: float = presets.KAPPA_HZ_DEFAULT
    mass: float = presets.MASS_DEFAULT
    t_end: float | None = None
    dt: float | None = None
    samples: int | None = None
    tol: float = spectrum.DEFAULT_TOL
    output: str | None = None
    format: str = "csv"
    precision: int = 12
    sweep: dict | None = None
    figure: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


def _fmt(values, precision: int) -> list[str]:
    """Each float as '%.{precision-1}e'; -0.0 prints as 0 and NaN as 'nan'."""
    fmt = f"%.{precision - 1}e"
    # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
    return [fmt % v for v in (np.asarray(values, dtype=float) + 0.0).tolist()]


def _json_number(text: str) -> float | None:
    return None if text == "nan" else float(text)


def _write_output(columns: dict, footer: dict | None, config: RunConfig) -> None:
    """Emit named columns in CSV or JSON.

    A column is a float ndarray, formatted once by :func:`_fmt` for both
    formats, or a list of str/int cells, written as they are. JSON reads the
    formatted floats back, so it carries the CSV digits (NaN as null). Footer
    floats are formatted the same way.
    """
    p = config.precision
    cells = {name: _fmt(col, p) if isinstance(col, np.ndarray) else col
             for name, col in columns.items()}
    footer = footer or {}
    notes = {k: _fmt([v], p)[0] if isinstance(v, float) else v for k, v in footer.items()}
    if config.format == "json":
        cells = {name: [_json_number(c) for c in cells[name]] if isinstance(col, np.ndarray)
                 else col for name, col in columns.items()}
        payload = {
            "command": config.command,
            "config": config.to_dict(),
            "columns": list(columns),
            "rows": [dict(zip(cells, row)) for row in zip(*cells.values())],
        }
        if footer:
            payload["summary"] = {k: _json_number(notes[k]) if isinstance(v, float) else v
                                  for k, v in footer.items()}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += map(",".join, zip(*[map(str, col) for col in cells.values()]))
        lines += [f"# {k}={v}" for k, v in notes.items()]
        text = "\n".join(lines) + "\n"
    if config.output:
        try:
            with open(config.output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {config.output}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _one_row(record: dict) -> dict:
    """The columns of a one-row table: floats as float arrays, other cells as they are."""
    return {name: np.array([v]) if isinstance(v, float) else [v] for name, v in record.items()}


def _build_params(args):
    kappa = args.kappa_hz
    return make_params(kappa, args.gamma * kappa, args.G * kappa, args.omega1 * kappa, args.mass)


def _build_init(args) -> CoherentInit:
    return CoherentInit.from_polar(args.alpha_mag, args.alpha_phase, args.beta_mag, args.beta_phase)


# Row k: the strings of regime code k. dtype=object, so the cells of a column
# share nine string objects instead of one per cell.
_LABEL_STRINGS = np.array([(str(label.region_id), label.pt.value, label.stability.value)
                           for label in spectrum.REGIME_LABELS], dtype=object)


def _label_columns(codes) -> dict:
    """region_id, pt and stability: a list per column for an array of codes, a string for one."""
    return dict(zip(("region_id", "pt", "stability"), _LABEL_STRINGS[codes].T.tolist()))


def _config_from_args(args, command: str, sweep: dict | None = None) -> RunConfig:
    if args.precision < 1:
        raise ValueError("--precision must be >= 1")
    params = {"gamma": getattr(args, "gamma", None), "G": getattr(args, "G", None),
              "omega1": args.omega1}
    init = {name: getattr(args, name, None)
            for name in ("alpha_mag", "alpha_phase", "beta_mag", "beta_phase")}
    return RunConfig(
        command=command,
        params_in_kappa_units=params,
        init=init,
        kappa_hz=args.kappa_hz,
        mass=args.mass,
        t_end=getattr(args, "t_end", None),
        dt=getattr(args, "dt", None),
        samples=getattr(args, "samples", None),
        tol=args.tol,
        output=args.out,
        format=args.format,
        precision=args.precision,
        sweep=sweep,
        figure=getattr(args, "name", None) if command == "figure" else None,
    )


def cmd_classify(args) -> int:
    if args.gamma is None or args.G is None:
        raise ValueError("classify requires --gamma and --G (in units of kappa)")
    params = _build_params(args)
    config = _config_from_args(args, "classify")
    code = spectrum.REGIME_LABELS.index(spectrum.classify(params, tol=args.tol))
    spec = spectrum.drift_eigenvalues(params, tol=args.tol)
    k = params.kappa
    record = {"gamma_over_kappa": args.gamma, "G_over_kappa": args.G,
              **_label_columns(code),
              "max_re_lambda": spectrum.max_re_lambda(params) / k}
    names = ("omega_plus", "omega_minus", "lambda_pp", "lambda_pm", "lambda_mp", "lambda_mm")
    for name, z in zip(names, (spec.omega_plus, spec.omega_minus, *spec.lambdas)):
        record[f"{name}_re"], record[f"{name}_im"] = z.real / k, z.imag / k
    _write_output(_one_row(record), None, config)
    return EXIT_OK


def cmd_sweep(args) -> int:
    names = ("gamma_min", "gamma_max", "gamma_res", "G_min", "G_max", "G_res")
    config = _config_from_args(args, "sweep", sweep={name: getattr(args, name) for name in names})
    grid = spectrum.phase_diagram((args.gamma_min, args.gamma_max), (args.G_min, args.G_max),
                                  (args.gamma_res, args.G_res), tol=args.tol)
    n_gamma, n_G = grid.codes.shape
    columns = {
        "gamma_over_kappa": np.repeat(grid.gamma_over_kappa, n_G),
        "G_over_kappa": np.tile(grid.G_over_kappa, n_gamma),
        **_label_columns(grid.codes.ravel()),
        "max_re_lambda": grid.max_re_lambda.ravel(),
    }
    _write_output(columns, None, config)
    return EXIT_OK


def _relmax(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), floor)))


def _evolve_tables(args):
    """Shared evolution engine for ``evolve`` and the trajectory figures."""
    if args.gamma is None or args.G is None:
        raise ValueError("evolve requires --gamma and --G (in units of kappa)")
    if args.t_end is None or args.t_end <= 0:
        raise ValueError("evolve requires --t-end > 0 (units of 1/kappa)")
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    params = _build_params(args)
    init = _build_init(args)
    k = params.kappa
    t_end_s = args.t_end / k
    dt_s = args.dt / k if args.dt is not None else None

    first = numeric.integrate_first_moments(params, init, t_end_s, dt=dt_s, n_samples=args.samples)
    second = numeric.integrate_second_moments(params, init, t_end_s, dt=dt_s, n_samples=args.samples)
    # Each series stops at its own overflow sample; keep the rows both reached.
    n = min(len(first.t), len(second.t))
    t = first.t[:n]
    x_numeric = params.x_zpf * 2.0 * first.b_mean[:n].real
    n_numeric = np.stack([second.n_a[:n], second.n_b[:n]])
    # Only the last row of a truncated run can lie past float range. The closed
    # forms are evaluated on the rows where the oracle is finite; the rest read
    # nan, so the discrepancy gate fails there.
    m = n if np.all(np.isfinite([x_numeric[-1], *n_numeric[:, -1]])) else n - 1
    numbers = analytic.numbers(params, init, t[:m])
    closed = np.full((7, n), np.nan)
    closed[:, :m] = [analytic.displacement(params, init, t[:m]),
                     numbers.n_a, numbers.n_b, numbers.n_a_st, numbers.n_b_st,
                     numbers.n_a_sp, numbers.n_b_sp]

    disc_x = _relmax(closed[0] / params.x_zpf, x_numeric / params.x_zpf)
    disc_n = _relmax(closed[1:3], n_numeric)

    names = ["t", "x_analytic", "x_numeric", "n_a", "n_b", "n_a_st", "n_b_st", "n_a_sp", "n_b_sp"]
    columns = dict(zip(names, [t, closed[0], x_numeric, *closed[1:]]))
    footer = {
        "max_rel_discrepancy_x": disc_x,
        "max_rel_discrepancy_numbers": disc_n,
        "numbers_source": "analytic",
    }
    if first.truncated or second.truncated:
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
    n_s = np.full((2, len(values)), np.nan)
    stable = [0] * len(values)
    for i, v in enumerate(values):
        params = _build_params(argparse.Namespace(**{**vars(args), args.sweep: v}))
        try:
            n_s[:, i] = analytic.steady_numbers(params, tol=args.tol)
            stable[i] = 1
        except ValueError:
            pass
    return {axis: values, "n_a_s": n_s[0], "n_b_s": n_s[1], "stable": stable}


def cmd_steady(args) -> int:
    sweep_cfg = None
    if args.sweep:
        sweep_cfg = {"param": args.sweep, "min": args.sweep_min, "max": args.sweep_max,
                     "points": args.sweep_points}
    config = _config_from_args(args, "steady", sweep=sweep_cfg)
    # Checked here: steady_numbers' ValueError means "no steady state" below.
    spectrum.check_tol(args.tol)
    if args.sweep:
        if args.sweep_min is None or args.sweep_max is None:
            raise ValueError("steady sweep requires --sweep-min and --sweep-max")
        if args.sweep == "gamma" and args.G is None:
            raise ValueError("steady sweep over gamma requires --G")
        if args.sweep == "G" and args.gamma is None:
            raise ValueError("steady sweep over G requires --gamma")
        axis = "gamma_over_kappa" if args.sweep == "gamma" else "G_over_kappa"
        _write_output(_steady_sweep_columns(args, axis), None, config)
        return EXIT_OK
    if args.gamma is None or args.G is None:
        raise ValueError("steady requires --gamma and --G (in units of kappa)")
    params = _build_params(args)
    try:
        n_a_s, n_b_s = analytic.steady_numbers(params, tol=args.tol)
    except ValueError as exc:
        raise UnstableSteadyQuery(f"no finite steady state at this point: {exc}")
    _write_output(_one_row({"gamma_over_kappa": args.gamma, "G_over_kappa": args.G,
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
            record[name] = (_fmt([value], args.precision)[0] if isinstance(value, float)
                            else "" if value is None else value)
        _write_output(_one_row(record), None, config)
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

    Only the chosen subcommand's parser runs, so only its variables are read.
    A set variable is parsed as if its flag came first on the command line:
    argparse converts and checks it (type, choices), and an explicit flag,
    coming later, wins. Errors raise argparse.ArgumentError, which main()
    reports in one line: argparse calls ``error()`` for an unrecognized flag
    or a missing subcommand even with ``exit_on_error=False``.
    """

    def error(self, message):
        raise argparse.ArgumentError(None, message)

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


def build_parser() -> argparse.ArgumentParser:
    # exit_on_error=False: a bad value raises argparse.ArgumentError, which
    # main() reports in one line.
    parser = _Parser(
        prog="ptomech",
        description="Two-mode gain/loss optomechanical dynamics: regimes, spectra, trajectories.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, exit_on_error=False)

    p = command("classify", "regime label and spectrum of one parameter point")
    _add_point(p)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = command("sweep", "phase-diagram grid over (gamma, G)")
    p.add_argument("--gamma-min", type=float, default=0.0)
    p.add_argument("--gamma-max", type=float, default=2.0)
    p.add_argument("--gamma-res", type=int, default=201)
    p.add_argument("--G-min", type=float, default=0.0)
    p.add_argument("--G-max", type=float, default=2.0)
    p.add_argument("--G-res", type=int, default=201)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = command("evolve", "time evolution: displacement and particle numbers")
    _add_point(p)
    _add_evolution(p)
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = command("steady", "steady-state particle numbers (single point or sweep)")
    _add_point(p)
    p.add_argument("--sweep", choices=("G", "gamma"), help="sweep variable for curve output")
    p.add_argument("--sweep-min", type=float)
    p.add_argument("--sweep-max", type=float)
    p.add_argument("--sweep-points", type=int, default=101)
    _add_common(p)
    p.set_defaults(func=cmd_steady)

    p = command("figure", "run a named parameter preset")
    p.add_argument("name", help="preset name, e.g. 3a..3f, 4top, 4bot, 5a..5i, 6a, 6b")
    p.add_argument("--show-preset", action="store_true",
                   help="print the preset parameter record instead of running it")
    _add_point(p)
    _add_evolution(p)
    _add_common(p)
    p.set_defaults(func=cmd_figure)

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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"ptomech: invalid configuration: {_argument_error(exc)}", file=sys.stderr)
        return EXIT_INVALID
    except UnstableSteadyQuery as exc:
        print(f"ptomech: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (DiscrepancyExceeded, analytic.ClosedFormError) as exc:
        print(f"ptomech: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except (ValueError, numeric.ConvergenceError) as exc:
        print(f"ptomech: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
