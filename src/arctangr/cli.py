"""Command-line front end.

Subcommands: describe, fit, compare, risk, plotdata.  All numeric output is
dual-format: a human table (6 significant digits, the default), machine
JSON at full precision, or CSV where a fixed column order is defined.

Exit codes: 0 success, 2 usage error, 3 data/domain error, 4 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import EMBEDDED_INSURANCE, describe, ingest
from .distributions import ArctanGRParams
from .errors import DataError, DomainError, FitConvergenceError
from .fit import compare_models, fit_agr, fit_gaussian, fit_laplace, fit_rayleigh
from .plotdata import plot_bundle
from .risk import empirical_risk_curve, mc_oracle, risk_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_FITTERS = {
    "agr": fit_agr,
    "gaussian": fit_gaussian,
    "rayleigh": fit_rayleigh,
    "laplace": fit_laplace,
}

DEFAULT_RISK_ALPHAS = (0.75, 0.80, 0.85, 0.90, 0.95, 0.99)


def _alpha_list(text: str):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse alpha list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return values


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
    p.add_argument("--model", choices=sorted(_FITTERS), default="agr")

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
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_describe(args) -> str:
    stats = describe(ingest(args.data))
    if args.format == "json":
        return json.dumps(stats.as_dict(), indent=2) + "\n"
    if args.format == "csv":
        d = stats.as_dict()
        head = ",".join(d)
        row = ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in d.values())
        return head + "\n" + row + "\n"
    return "\n".join(f"{k:>16}: {v:.6g}" if isinstance(v, float) else f"{k:>16}: {v}"
                     for k, v in stats.as_dict().items()) + "\n"


def _run_fit(args) -> str:
    result = _FITTERS[args.model](ingest(args.data))
    if args.format == "json":
        return json.dumps(result.as_dict(), indent=2) + "\n"
    par = "; ".join(f"{k}={v:.6g}" for k, v in result.params_dict().items())
    if args.format == "csv":
        head = "model,par,r,loglik,aic,bic,caic,hqic"
        row = ",".join(
            [result.model_name, f'"{par}"', str(result.r)]
            + [f"{getattr(result, c):.6g}" for c in ("loglik", "aic", "bic", "caic", "hqic")]
        )
        return head + "\n" + row + "\n"
    lines = [f"model: {result.model_name}", f"params: {par}",
             f"n: {result.n}    r: {result.r}",
             f"loglik: {result.loglik:.6g}",
             f"aic: {result.aic:.6g}    bic: {result.bic:.6g}",
             f"caic: {result.caic:.6g}    hqic: {result.hqic:.6g}",
             f"converged: {result.converged} "
             f"(iterations={result.iterations}, restarts={result.restarts})"]
    return "\n".join(lines) + "\n"


def _run_compare(args) -> str:
    table = compare_models(ingest(args.data))
    if args.format == "json":
        return table.to_json()
    if args.format == "csv":
        return table.to_csv()
    return table.to_text()


def _run_risk(args) -> str:
    if (args.omega is None) != (args.psi is None):
        raise DomainError("--omega and --psi must be given together")
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
            params = fit_agr(data).params
            report = risk_curve(params, args.alphas)
    else:
        raise DomainError("risk needs either --data or --omega/--psi")

    mc_lines = []
    if args.mc_samples > 0:
        if params is None:
            raise DomainError("--mc-samples applies to model-based risk only")
        seeds = np.random.SeedSequence(args.seed).spawn(len(report.rows))
        checks = [
            mc_oracle(params, row.alpha, args.mc_samples, seed)
            for row, seed in zip(report.rows, seeds)
        ]
        if args.format == "json":
            payload = json.loads(report.to_json())
            payload["mc_check"] = [c._asdict() for c in checks]
            return json.dumps(payload, indent=2) + "\n"
        for row, c in zip(report.rows, checks):
            mc_lines.append(
                f"alpha={row.alpha:.6g}: tvar_mc={c.tvar:.6g} (se {c.tvar_se:.2g}), "
                f"tv_mc={c.tv:.6g} (se {c.tv_se:.2g}), exceedances={c.exceedances}"
            )

    if args.format == "json":
        return report.to_json()
    if args.format == "csv":
        return report.to_csv()
    text = report.to_text()
    if mc_lines:
        text += "monte carlo cross-check (n=%d):\n" % args.mc_samples
        text += "\n".join(mc_lines) + "\n"
    return text


def _run_plotdata(args) -> str:
    bundle = plot_bundle(ingest(args.data), bins=args.bins)
    if args.format == "json":
        return bundle.to_json()
    return bundle.to_text()


_RUNNERS = {
    "describe": _run_describe,
    "fit": _run_fit,
    "compare": _run_compare,
    "risk": _run_risk,
    "plotdata": _run_plotdata,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _RUNNERS[args.command](args)
    except (DomainError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(text, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
