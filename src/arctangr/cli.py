"""Command-line front end.

Subcommands: describe, fit, compare, risk, plotdata.  Each subcommand
returns one result object, and :func:`main` renders it through the
method named by ``--format``: ``to_text`` for the human table (6
significant digits, the default), ``to_json`` for machine JSON at full
precision, or ``to_csv`` where a fixed column order is defined.  ``fit``
and ``compare`` share one CSV row layout; ``plotdata`` has no CSV, and
``risk --mc-samples`` needs table or JSON.

Each runner imports the modules it calls, so a command loads only those:
``describe`` needs no model code, and ``risk --omega/--psi`` no fit.  Every
command but ``risk --mc-samples`` runs on Python floats and never imports
numpy, except that ``fit``, ``compare``, ``plotdata`` and ``risk --data``
without ``--empirical`` fit samples of more than
:data:`arctangr.fit.FLOAT_FIT_MAX` points on numpy arrays.  JSON output is
strict (RFC 8259): it never holds ``NaN`` or ``Infinity``.

Exit codes: 0 success, 2 usage error, 3 data/domain error (or an ``--out``
that cannot be written), 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import sys

from .dataset import EMBEDDED_INSURANCE, describe, ingest
from .errors import DataError, DomainError, FitConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_RISK_ALPHAS = (0.75, 0.80, 0.85, 0.90, 0.95, 0.99)


def _alpha_list(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse alpha list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return values


class _ModelChoices:
    """The ``--model`` choices of ``fit``: ``sorted(fit.MODELS)`` as argparse
    reads them, importing :mod:`arctangr.fit` only when a value is tested or
    the choices are listed (help, an invalid choice)."""

    def __iter__(self):
        from .fit import MODELS

        return iter(sorted(MODELS))

    def __contains__(self, value):
        from .fit import MODELS

        return value in MODELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arctangr",
        description="Heavy-tailed arctan Gaussian-Rayleigh loss modelling and tail risk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data=True, formats=("csv", "json", "table")):
        if with_data:
            p.add_argument(
                "--data",
                required=True,
                help=f"path to a one-column CSV, or {EMBEDDED_INSURANCE}",
            )
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--format",
            choices=formats,
            default="table",
            help="output format (default: table)",
        )
        p.add_argument("--seed", type=int, default=0, help="RNG seed for Monte Carlo")

    p = sub.add_parser("describe", help="descriptive statistics of a dataset")
    add_common(p)

    p = sub.add_parser("fit", help="fit one model by maximum likelihood")
    add_common(p)
    # add_argument lists the choices once to check the metavar, so they are
    # attached after it
    p.add_argument("--model", default="agr").choices = _ModelChoices()

    p = sub.add_parser("compare", help="fit all models and rank by information criteria")
    add_common(p)

    p = sub.add_parser("risk", help="VaR / TVaR / TV at given confidence levels")
    add_common(p, with_data=False)
    p.add_argument("--data", help="dataset to fit, or to rank directly with --empirical")
    p.add_argument("--model", choices=("agr",), default="agr",
                   help="model fitted when --data is given (AGR only)")
    p.add_argument("--omega", type=float, help="AGR location (skips fitting)")
    p.add_argument("--psi", type=float, help="AGR scale (skips fitting)")
    p.add_argument("--alphas", type=_alpha_list,
                   default=DEFAULT_RISK_ALPHAS, help="comma-separated confidence levels")
    p.add_argument("--empirical", action="store_true",
                   help="order-statistic estimators instead of the fitted model")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="if > 0, append a Monte Carlo cross-check with this many draws")

    p = sub.add_parser("plotdata", help="histogram/boxplot/density/risk data bundle")
    add_common(p, formats=("json", "table"))
    p.add_argument("--bins", type=int, help="histogram bin count (default: Freedman-Diaconis)")

    return parser


def _emit(text: str, out) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _run_describe(args):
    return describe(ingest(args.data))


def _run_fit(args):
    from .fit import MODELS

    return MODELS[args.model].fit(ingest(args.data))


def _run_compare(args):
    from .fit import compare_models

    return compare_models(ingest(args.data))


def _run_risk(args):
    from .risk import RiskReport, empirical_risk_curve, mc_oracle, risk_curve
    from .tail import ArctanGRParams

    if (args.omega is None) != (args.psi is None):
        raise DomainError("--omega and --psi must be given together")
    if args.mc_samples < 0:
        raise DomainError(f"--mc-samples must be >= 0 (0 skips the check), got {args.mc_samples}")
    if args.mc_samples > 0 and args.format == "csv":
        raise DomainError("--mc-samples has no CSV layout; use --format table or json")
    if args.omega is not None:
        if args.empirical:
            raise DomainError("--empirical needs --data, not --omega/--psi")
        params = ArctanGRParams(args.omega, args.psi)
        report = risk_curve(params, args.alphas)
    elif args.data is not None:
        data = ingest(args.data)
        if args.empirical:
            report = empirical_risk_curve(data, args.alphas)
            params = None
        else:
            from .fit import fit_agr

            params = fit_agr(data).params
            report = risk_curve(params, args.alphas)
    else:
        raise DomainError("risk needs either --data or --omega/--psi")

    if args.mc_samples > 0:
        if params is None:
            raise DomainError("--mc-samples applies to model-based risk only")
        from numpy.random import SeedSequence

        seeds = SeedSequence(args.seed).spawn(len(report.rows))
        report = RiskReport(report.rows, report.source, report.method, mc_check=tuple(
            mc_oracle(params, row.alpha, args.mc_samples, seed)
            for row, seed in zip(report.rows, seeds)
        ))
    return report


def _run_plotdata(args):
    from .plotdata import plot_bundle

    return plot_bundle(ingest(args.data), bins=args.bins)


_RUNNERS = {
    "describe": _run_describe,
    "fit": _run_fit,
    "compare": _run_compare,
    "risk": _run_risk,
    "plotdata": _run_plotdata,
}

_RENDERERS = {"table": "to_text", "csv": "to_csv", "json": "to_json"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # SeedSequence takes nonnegative seeds only; every command checks its
        # --seed here, whether or not it draws
        if args.seed < 0:
            raise DomainError(f"--seed must be a nonnegative integer, got {args.seed}")
        text = getattr(_RUNNERS[args.command](args), _RENDERERS[args.format])()
        _emit(text, args.out)
    except (DomainError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
