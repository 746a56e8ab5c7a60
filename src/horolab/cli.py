"""Command-line interface.

Subcommands: fourier, dim, equidist, basis-check, spectral-gap, khintchine,
stationary.  Each reads flags (or a key=value config file via --config) and
returns CSV rows and a JSON summary with the fixed key set {command, config,
seed, exponent, stderr, r2, status}, where config echoes every other flag set;
cli_main writes both, the CSV to stdout or --out.  Exit codes: 0 for the
statuses ok, degenerate and superpolynomial, 2 for an inconclusive fit, 1 for
an error (usage errors included).  Identical config + seed produce
byte-identical CSV and JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import measures as _measures
from . import diophantine as _dio
from .automorphic import spectral_gap_csv, spectral_gap_fit
from .experiments import ExperimentConfig, run_basis_identity_check, run_equidistribution
from .fitting import MAX_GRID_POINTS, DecayReport, LiteralParseError, csv_table, geometric_grid
from .oscillatory import (
    ToleranceNotReachedError,
    check_xi_grid,
    envelope_fit,
    oscillatory_integrals,
    parse_phase,
    parse_window,
    stationary_phase_leading,
)
from .testfunctions import EisensteinTest

_YGRID_FIELDS = (("ymax", float), ("ratio", float), ("count", int))


def _parse_triple(text: str, production: str, fields) -> tuple:
    """`a:b:c` as three values; fields holds the (name, type) of each."""
    parts = text.split(":")
    if len(parts) != 3:
        names = ":".join(name for name, _ in fields)
        raise LiteralParseError(production, f"expected {names}, got {text!r}")
    values = []
    for (name, kind), part in zip(fields, parts):
        try:
            values.append(kind(part))
        except ValueError:
            raise LiteralParseError(production, f"bad {name} {part!r} in {text!r}") from None
    return tuple(values)


def _true_or_false(text: str) -> bool:
    """The value of --star: true/yes/1 or false/no/0, in any case."""
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text.lower() in ("true", "yes", "1")


def _write(path: str | None, payload: str, default_stream):
    if path in (None, "-"):
        default_stream.write(payload)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(payload)


def _emit(args, csv_text: str, summary: dict) -> None:
    # strict JSON: a NaN or inf raises here, before any output is written
    json_text = json.dumps(summary, allow_nan=False) + "\n"
    _write(args.out, csv_text, sys.stdout)
    if args.json_out not in (None, "-"):
        _write(args.json_out, json_text, sys.stdout)
    elif args.out not in (None, "-"):
        sys.stdout.write(json_text)
    else:
        sys.stderr.write(json_text)


def _summary(args, report: DecayReport | None = None, exponent=None, stderr=None, status="ok") -> dict:
    """The JSON summary; a fitted report supplies exponent, stderr, r2 and status."""
    r2 = None
    if report is not None:
        exponent, stderr, r2, status = report.exponent, report.exponent_stderr, report.r2, report.status
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config", "out", "json_out", "command", "seed") and v is not None
    }
    return {
        "command": args.command,
        "config": {k: (v if isinstance(v, (int, float, str)) else str(v)) for k, v in config.items()},
        "seed": getattr(args, "seed", None),
        "exponent": exponent,
        "stderr": stderr,
        "r2": r2,
        "status": status,
    }


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_fourier(args) -> tuple[str, dict]:
    measure = _measures.parse_measure(args.measure)
    start, stop, step = _parse_triple(
        args.xi, "<xi-range>", (("start", float), ("stop", float), ("step", float))
    )
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"<xi-range>: {args.xi!r} is not finite")
    if step <= 0:
        raise ValueError("<xi-range>: step must be positive")
    if stop < start:
        raise ValueError("<xi-range>: stop must be >= start")
    if (stop + 0.5 * step - start) / step > MAX_GRID_POINTS:
        raise ValueError(f"<xi-range>: {args.xi!r} has more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points")
    xs = np.arange(start, stop + 0.5 * step, step)
    vals = _measures.fourier_transform(measure, xs, args.tail_tol)
    return csv_table("xi,re,im,abs", xs, vals.real, vals.imag, np.abs(vals)), _summary(args)


def _cmd_dim(args) -> tuple[str, dict]:
    measure = _measures.parse_measure(args.measure)
    if args.xmax < 10_000:
        raise ValueError("<dim>: --xmax must be at least 10^4 (two decades above 100)")
    if args.points > MAX_GRID_POINTS:
        raise ValueError(f"<dim>: --points must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    grid = np.unique(np.round(np.geomspace(100, args.xmax, args.points)).astype(int))
    est = _measures.estimate_dim_l1(
        measure, grid, star=args.star, theta_grid=args.theta_grid
    )
    status = "degenerate" if est.degenerate else "ok"
    summary = _summary(args, exponent=est.dimension, stderr=est.stderr, status=status)
    summary["config"]["slope"] = est.slope
    summary["config"]["slope_full"] = est.slope_full
    leaf, _ = _measures.split_translate(measure)  # a translate keeps both dimensions
    if isinstance(leaf, _measures.FractalMeasure):
        bound = _measures.cvy_bound_for_measure(leaf)
        if bound is not None:  # certified for two or more digits in progression only
            summary["config"]["cvy_lower_bound"] = bound
        summary["config"]["hausdorff_dimension"] = leaf.hausdorff_dimension()
    return csv_table("X,partial_sum", est.X_grid, est.sums), summary


def _experiment_config(args, method_default: str) -> ExperimentConfig:
    y_max, ratio, count = _parse_triple(args.ygrid, "<ygrid>", _YGRID_FIELDS)
    args.method = args.method or method_default  # echoed in the JSON config
    return ExperimentConfig(
        measure=args.measure,
        test=args.test,
        y_max=y_max, y_ratio=ratio, y_count=count,
        x0=args.x0, q=args.q,
        method=args.method,
        budget=args.budget, seed=args.seed, tol=args.tol,
    )


def _cmd_equidist(args) -> tuple[str, dict]:
    report = run_equidistribution(_experiment_config(args, "montecarlo"))
    return report.to_csv(), _summary(args, report)


def _cmd_basis_check(args) -> tuple[str, dict]:
    report = run_basis_identity_check(_experiment_config(args, "cylinder"))
    summary = _summary(args, exponent=report.envelope_constant)
    summary["config"]["max_discrepancy"] = report.max_discrepancy
    return report.to_csv(), summary


def _cmd_spectral_gap(args) -> tuple[str, dict]:
    y_max, ratio, count = _parse_triple(args.ygrid, "<ygrid>", _YGRID_FIELDS)
    phi = EisensteinTest(t=args.t, component="complex")
    report = spectral_gap_fit(phi, geometric_grid(y_max, ratio, count))
    return spectral_gap_csv(report), _summary(args, report)


def _cmd_khintchine(args) -> tuple[str, dict]:
    measure = _measures.parse_measure(args.measure)
    psi = _dio.parse_psi(args.psi)
    profile = _dio.khintchine_profile(
        measure, psi, args.Q, args.samples, args.seed, rate_q_max=args.rate_qmax
    )
    summary = _summary(args)
    summary["config"]["mean_count"] = profile.mean_count
    summary["config"]["mean_count_stderr"] = profile.mean_count_stderr
    summary["config"]["comparison_sum"] = profile.comparison_sum
    summary["config"]["count_ratio"] = profile.mean_count / profile.comparison_sum
    summary["config"]["regime"] = profile.regime
    return profile.to_csv(), summary


def _cmd_stationary(args) -> tuple[str, dict]:
    phase = parse_phase(args.phase)
    window = parse_window(args.window)
    start, stop, count = _parse_triple(
        args.xigrid, "<xi-grid>", (("start", float), ("stop", float), ("count", int))
    )
    if not start > 0:
        raise ValueError(f"<xi-grid>: start must be positive, got {start}")
    if count > MAX_GRID_POINTS:
        raise ValueError(f"<xi-grid>: count must be at most MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    try:
        grid = check_xi_grid(np.geomspace(start, stop, count))
    except ValueError as exc:
        raise ValueError(f"<xi-grid>: {exc}") from None
    try:
        vals = oscillatory_integrals(phase, window, grid, tol=args.tol)
    except ToleranceNotReachedError as exc:  # no --tol cures the other budget errors
        raise ValueError(f"--tol: {exc}") from None
    # Python's abs(complex), not np.abs: the two can differ in the last bit
    report = envelope_fit(grid, [abs(v) for v in vals])
    leads = []
    for xi in grid:
        try:
            leads.append(abs(stationary_phase_leading(phase, window, float(xi))))
        except ValueError:
            leads.append(float("nan"))
    csv_text = csv_table(
        "xi,re,im,abs,leading_abs", grid,
        [v.real for v in vals], [v.imag for v in vals], report.errors, leads,
    )
    return csv_text, _summary(args, report)


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--json-out", dest="json_out", default=None,
                   help="JSON summary path (default: stdout when --out is a file)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 through cli_main, not 2 (an inconclusive fit)
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="horolab",
        description="numerical experiments on horocycle equidistribution",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fourier", help="measure transform sweep (CSV xi,re,im,abs)")
    p.add_argument("--measure", required=True)
    p.add_argument("--xi", required=True, help="start:stop:step")
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("dim", help="Fourier l1-dimension estimate")
    p.add_argument("--measure", required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--points", type=int, default=13)
    p.add_argument("--star", type=_true_or_false, nargs="?", const=True, default=False)
    p.add_argument("--theta-grid", dest="theta_grid", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=_cmd_dim)

    for name, helptext in (
        ("equidist", "horocycle equidistribution decay experiment"),
        ("basis-check", "Fourier-expansion identity check for mu_y"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--measure", required=True)
        p.add_argument("--test", default="eisenstein:t=1")
        p.add_argument("--ygrid", default="0.25:0.5:15", help="ymax:ratio:count")
        p.add_argument("--x0", type=float, default=0.0)
        p.add_argument("--q", type=int, default=1)
        p.add_argument("--method", choices=("cylinder", "montecarlo"), default=None)
        p.add_argument("--budget", type=int, default=10**6)
        p.add_argument("--tol", type=float, default=1e-6)
        _add_common(p)
        p.set_defaults(func=_cmd_equidist if name == "equidist" else _cmd_basis_check)

    p = sub.add_parser("spectral-gap", help="sup Fourier coefficient decay sweep")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--ygrid", default="0.125:0.5:10", help="ymax:ratio:count")
    _add_common(p)
    p.set_defaults(func=_cmd_spectral_gap)

    p = sub.add_parser("khintchine", help="approximation counting profile")
    p.add_argument("--measure", required=True)
    p.add_argument("--psi", default="pow:1")
    p.add_argument("--Q", type=int, default=10**4)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--rate-qmax", dest="rate_qmax", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_khintchine)

    p = sub.add_parser("stationary", help="oscillatory-integral decay sweep")
    p.add_argument("--phase", required=True, help="poly:c0,c1,...")
    p.add_argument("--window", default="coswin:0,1")
    p.add_argument("--xigrid", default="10:10000:25", help="start:stop:count")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=_cmd_stationary)

    return root


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config FILE into leading flags (command line overrides)."""
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    injected = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            # one token, so a value may begin with "-"
            injected.append(f"--{key.replace('_', '-')}={value}")
    # keep the subcommand first, then injected defaults, then explicit flags
    return argv[:1] + injected + [a for i, a in enumerate(argv[1:], 1) if i not in (idx, idx + 1)]


def cli_main(argv: list[str]) -> int:
    parser = build_parser()
    try:
        if argv and argv[0] not in ("-h", "--help") and "--config" in argv:
            argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        csv_text, summary = args.func(args)
        _emit(args, csv_text, summary)
        return 2 if summary["status"] == "inconclusive" else 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"horolab: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
