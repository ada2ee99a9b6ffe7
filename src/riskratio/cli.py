"""Command-line interface: fit, study, truth, figure, validate.

Exit codes: 0 success (including NA study rows), 2 usage/config error
(an invalid option value among them), 3 data error (a missing or constant
column, spline knots a column cannot give, and more model parameters than
rows among them), 4 numerical failure of a requested single fit (including
``NoFiniteSolution``, and ``DegenerateInterval`` for an estimate whose
interval is not finite with positive width) or of a study in which no
cell has any successful replication.  The three fit methods share one
input contract (``eecore._in_stacks``), so the same data error gives exit
3 whatever the ``--method``.
"""

from __future__ import annotations

import argparse
import datetime
import sys

import numpy as np

from . import __version__, csvio, inference, report, simlab
from .design import Categorical, build_design_matrix, parse_spec
from .errors import (
    ConfigError,
    DataError,
    DegenerateInterval,
    RiskRatioError,
    SpecParseError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskratio",
        description="Risk/prevalence ratio estimation via the semiparametric "
        "log-linear (robust Poisson) method, log-binomial ML, and "
        "Monte Carlo study tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to a CSV file")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--outcome", required=True)
    fit.add_argument("--exposure", required=True)
    fit.add_argument("--spec", default=None,
                     help="term spec, e.g. '1 + A + rcs(L1,4) + L1:L2'")
    fit.add_argument("--method", default=inference.DEFAULT_METHOD,
                     choices=list(inference.FIT_METHODS))
    fit.add_argument("--estimand", default="coefficient",
                     choices=["coefficient", "marginal", "both"])
    fit.add_argument("--level", type=float, default=0.95)
    fit.add_argument("--boot", type=int, default=0, metavar="B")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default=None)
    fit.add_argument("--format", default="table", choices=["table", "machine"])

    study = sub.add_parser("study", help="run a replication study from a config file")
    study.add_argument("config")
    study.add_argument("--threads", type=int, default=1)
    study.add_argument("--out", default=None)
    study.add_argument("--format", default="table", choices=["table", "machine"])

    truth = sub.add_parser("truth", help="Monte Carlo truth of a scenario")
    truth.add_argument("--scenario", required=True)
    truth.add_argument("--n", type=int, default=1_000_000)
    truth.add_argument("--seed", type=int, default=0)

    figure = sub.add_parser("figure", help="consistency-figure data (CSV)")
    figure.add_argument("--sizes", default="10,25,50,100,250,500,1000,2000")
    figure.add_argument("--replications", type=int, default=200)
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--out", default=None)

    validate = sub.add_parser("validate", help="check a CSV or study config")
    validate.add_argument("--csv", default=None)
    validate.add_argument("--outcome", default=None)
    validate.add_argument("--config", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        report.write_atomic(out, text)


def _default_spec(data, exposure: str) -> str:
    others = [c for c in data.columns if c != exposure]
    return " + ".join(["1", exposure] + others)


def _row(label, estimand, est) -> dict:
    """One estimate row of the fit report.  An interval that is not finite
    with positive width on the log scale, 0 < low < high < inf, raises
    ``DegenerateInterval``: such a fit reports no ratio."""
    if not 0.0 < est.ci_low < est.ci_high < np.inf:
        raise DegenerateInterval(
            f"{estimand} RR of {label}: interval ({est.ci_low:.3g}, {est.ci_high:.3g}) "
            "is not finite with positive width; the data do not identify it")
    return {
        "label": label, "estimand": estimand,
        "rr": est.rr, "ci_low": est.ci_low, "ci_high": est.ci_high,
        "log_rr": est.log_rr, "se_log_rr": est.se_log_rr,
        "method": est.method,
    }


def _fit_estimates(args, data, design, level):
    """One RR row per exposure contrast, for the chosen method/estimand."""
    method = inference.FIT_METHODS[args.method]
    fit = method.fit(design, data.y)
    warnings = []
    if fit.n_mu_gt1:
        warnings.append(f"{fit.n_mu_gt1} fitted means exceed 1")
    if fit.on_boundary:
        warnings.append("on_boundary")
    if design.rank_deficient:
        warnings.append("design matrix is numerically rank deficient")

    estimates = []
    if args.estimand in ("coefficient", "both"):
        for j in design.exposure_cols:
            est = inference.coefficient_rr(fit, j, level)
            estimates.append(_row(design.labels[j], "coefficient", est))
    if args.estimand in ("marginal", "both"):
        cat = next((t for t in design.terms if isinstance(t, Categorical)
                    and t.column == args.exposure), None)
        if cat is not None:
            pairs = [(lev, cat.reference) for lev in cat.levels
                     if lev != cat.reference]
        else:
            pairs = [(1.0, 0.0)]
        for a1, a0 in pairs:
            est = inference.marginal_rr(fit, data, a1, a0, level=level)
            estimates.append(_row(f"{args.exposure}={a1:g} vs {a0:g}",
                                  "marginal", est))
    if args.boot:
        boot = inference.bootstrap_rr(
            method, design,
            lambda f, dm: inference.coefficient_rr(f, design.exposure_cols[0], level),
            B=args.boot, seed=args.seed, level=level, fit=fit,
        )
        estimates.append(_row(design.labels[design.exposure_cols[0]],
                              "coefficient", boot))
        failed = boot.extra["failed_resamples"]
        if failed:
            warnings.append(f"{failed} of {args.boot} bootstrap resamples failed")
    return estimates, warnings


def cmd_fit(args) -> int:
    if args.boot and args.boot < 100:
        raise ConfigError(f"--boot must be 0 or at least 100, got {args.boot}")
    if not 0.0 < args.level < 1.0:
        raise ConfigError(f"--level must be between 0 and 1, got {args.level}")
    data = csvio.read_csv_dataset(args.csv, args.outcome)
    spec_text = args.spec or _default_spec(data, args.exposure)
    terms = parse_spec(spec_text)
    design = build_design_matrix(data, terms, exposure=args.exposure)
    if not design.exposure_cols:
        raise SpecParseError(
            f"spec {spec_text!r} produces no columns for exposure {args.exposure!r}"
        )
    estimates, warnings = _fit_estimates(args, data, design, args.level)
    resolved = {
        "csv": args.csv, "outcome": args.outcome, "exposure": args.exposure,
        "spec": spec_text, "method": args.method, "estimand": args.estimand,
        "level": args.level, "boot": args.boot, "seed": args.seed,
        "format": args.format,
    }
    if args.format == "machine":
        envelope = {
            "version": __version__,
            "command": "fit",
            "config": resolved,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "results": {"estimates": estimates, "n": data.n, "p": design.p},
            "warnings": warnings,
        }
        _emit(report.to_machine_json(envelope), args.out)
    else:
        lines = [f"riskratio fit  (v{__version__})",
                 "config: " + " ".join(f"{k}={v}" for k, v in resolved.items()),
                 ""]
        lines.append(report.fit_table(estimates, args.level))
        for w in warnings:
            lines.append(f"warning: {w}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_study(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    with open(args.config, encoding="utf-8") as handle:
        config = simlab.parse_config(handle.read())
    payload = simlab.run_study(config, threads=args.threads)
    if args.format == "machine":
        _emit(report.to_machine_json(payload), args.out)
    else:
        _emit(report.study_table(payload), args.out)
    return EXIT_OK


def cmd_truth(args) -> int:
    if args.n < 2:
        raise ConfigError(f"--n must be at least 2, got {args.n}")
    result = simlab.monte_carlo_truth(args.scenario, n=args.n, seed=args.seed)
    sys.stdout.write(
        f"scenario={args.scenario} n={args.n} seed={args.seed}\n"
        f"rr_true = {result['rr_true']:.4f} +/- {result['mcse']:.4f} (MCSE)\n"
    )
    return EXIT_OK


def cmd_figure(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(
            f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    demo = simlab.consistency_demo(
        sizes=sizes, replications=args.replications, seed=args.seed
    )
    lines = ["n,rr_hat,ci_low,ci_high"]
    for row in demo["rows"]:
        lines.append(
            f"{row['n']},{row['rr_hat']:.15g},{row['ci_low']:.15g},"
            f"{row['ci_high']:.15g}"
        )
    if demo["dropped"]:
        sizes = ", ".join(str(n) for n in demo["dropped"])
        sys.stderr.write(f"warning: no replication could be fitted at "
                         f"n = {sizes}; dropped from the figure\n")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.csv is None and args.config is None:
        raise ConfigError("validate needs --csv or --config")
    if args.csv is None and args.outcome is not None:
        raise ConfigError("--outcome needs --csv")
    if args.csv is not None:
        if args.outcome is None:
            raise ConfigError("--outcome is required with --csv")
        data = csvio.read_csv_dataset(args.csv, args.outcome)
        sys.stdout.write(
            f"{args.csv}: ok ({data.n} rows, columns: "
            f"{', '.join(sorted(data.columns))})\n"
        )
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            config = simlab.parse_config(handle.read())
        sys.stdout.write(f"{args.config}: ok (scenario={config.scenario})\n")
    return EXIT_OK


# Each command, with the options it passes on under another name: a
# ConfigError whose ``key`` is that name (a config key or a function
# argument) is reported under the option.
_COMMANDS = {
    "fit": (cmd_fit, {}),
    "study": (cmd_study, {}),
    "truth": (cmd_truth, {"truth_n": "--n", "scenario": "--scenario"}),
    "figure": (cmd_figure, {"sizes": "--sizes", "replications": "--replications"}),
    "validate": (cmd_validate, {}),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, options = _COMMANDS[args.command]
    try:
        return command(args)
    except (ConfigError, SpecParseError) as exc:
        option = options.get(getattr(exc, "key", None))
        sys.stderr.write(f"error: {option}: {exc.detail}\n" if option else f"error: {exc}\n")
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except (RiskRatioError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
