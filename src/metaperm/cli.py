"""Command-line interface.

Subcommands cover model fitting, joint and marginal permutation tests,
confidence intervals and regions, coverage simulations, and input
validation. All randomized commands are reproducible from the seed and
the input file alone, and repeated runs emit identical bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 non-convergence,
4 internal error. Warnings go to stderr as plain "warning: <message>"
lines.
"""

import argparse
import sys
import warnings

import numpy as np

from .exceptions import (
    DataError,
    NonConvergenceError,
    SingularInformationError,
    UninformativeComponentError,
)
from .estimators import fit_ml, fit_reml
from .inference import (
    confidence_interval,
    confidence_region,
    wald_inference,
)
from .io import (
    _csv_text,
    _region_rows,
    back_transform,
    ingest_diagnostic,
    ingest_nma,
    ingest_wide,
    results_to_json,
)
from .model import CovStructure
from .permutation import (
    DEFAULT_B,
    DEFAULT_SEED,
    PermutationPlan,
    _default_plan,
    joint_permutation_test,
    marginal_permutation_test,
)
from .simulate import CoverageReport, coverage_experiment, load_scenarios

__all__ = ["main"]

# --stat of test-joint and region: the permutation statistic it names
_STATS = {"t1": "cml", "t2": "moment"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _level(text):
    """argparse type of --alpha: a number strictly between 0 and 1."""
    try:
        if 0.0 < float(text) < 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")


def _add_input_options(sub):
    sub.add_argument("input", help="input CSV file")
    sub.add_argument(
        "--input-format",
        choices=("wide", "diagnostic", "nma"),
        default="wide",
        help="input schema (default wide)",
    )
    sub.add_argument(
        "--reference", default=None, help="reference treatment (nma input only)"
    )


def _add_structure_option(sub):
    sub.add_argument(
        "--structure",
        default="unstructured",
        help="between-study covariance: unstructured, cs:<kappa0>, or cs1:<kappa0> "
        "(t2 takes only unstructured)",
    )


def _add_perm_option(sub):
    sub.add_argument(
        "--perm",
        help="'exhaustive' or the number of random sign assignments (default "
        f"exhaustive up to 12 studies, else {DEFAULT_B} draws seeded by --seed)",
    )


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=_level, default=0.05, help="test level, in (0, 1)")
    common.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="random seed for sign draws"
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument("--output", default=None, help="write output to a file")

    parser = _Parser(
        prog="metaperm",
        description="Permutation inference for multivariate random-effects "
        "meta-analysis.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("fit", help="fit the model by ML or REML", parents=[common])
    sub.add_argument("estimator", choices=("ml", "reml"))
    _add_input_options(sub)
    _add_structure_option(sub)
    sub.set_defaults(func=_cmd_fit)

    sub = subs.add_parser("test-joint", help="joint permutation test of the mean", parents=[common])
    _add_input_options(sub)
    _add_structure_option(sub)
    _add_perm_option(sub)
    sub.add_argument(
        "--mu-null", required=True, help="comma-separated null mean vector"
    )
    sub.add_argument(
        "--stat",
        choices=tuple(_STATS),
        default="t1",
        help="t1 refits the heterogeneity per permutation; t2 uses the "
        "sign-invariant moment plug-in",
    )
    sub.set_defaults(func=_cmd_test_joint)

    sub = subs.add_parser("test-marginal", help="marginal permutation test", parents=[common])
    _add_input_options(sub)
    _add_structure_option(sub)
    _add_perm_option(sub)
    sub.add_argument(
        "--component", required=True, help="outcome label or 1-based index"
    )
    sub.add_argument(
        "--mu1-null", required=True, type=float, help="null value for the component"
    )
    sub.set_defaults(func=_cmd_test_marginal)

    sub = subs.add_parser("ci", help="permutation confidence interval", parents=[common])
    _add_input_options(sub)
    _add_structure_option(sub)
    _add_perm_option(sub)
    sub.add_argument(
        "--component", required=True, help="outcome label or 1-based index"
    )
    sub.set_defaults(func=_cmd_ci)

    sub = subs.add_parser("region", help="joint confidence region on a grid", parents=[common])
    _add_input_options(sub)
    _add_structure_option(sub)
    _add_perm_option(sub)
    sub.add_argument(
        "--axes",
        required=True,
        help="comma-separated outcome labels or 1-based indices (two or more)",
    )
    sub.add_argument(
        "--bounds",
        default=None,
        help="comma-separated low:high pairs, one per axis (default: Wald "
        "box); write --bounds=-1:1,... when the first bound is negative",
    )
    sub.add_argument("--resolution", type=int, default=20, help="points per axis")
    sub.add_argument("--stat", choices=tuple(_STATS), default="t1")
    sub.set_defaults(func=_cmd_region)

    sub = subs.add_parser("simulate", help="coverage experiment on a scenario", parents=[common])
    sub.add_argument("--scenario", required=True, help="scenario name")
    sub.add_argument(
        "--manifest", default=None, help="scenario manifest CSV (default: packaged)"
    )
    sub.add_argument("--reps", type=int, default=500, help="replicates")
    sub.add_argument(
        "--method",
        required=True,
        help="ml-wald, reml-wald, perm-t1, perm-t2, or perm-t3",
    )
    sub.add_argument(
        "--component", type=int, default=1, help="1-based component (marginal methods)"
    )
    _add_structure_option(sub)
    _add_perm_option(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("ingest-check", help="validate an input file", parents=[common])
    _add_input_options(sub)
    sub.set_defaults(func=_cmd_ingest_check)

    return parser


def _load_dataset(args):
    if args.input_format == "wide":
        return ingest_wide(args.input)
    if args.input_format == "diagnostic":
        return ingest_diagnostic(args.input)
    if args.reference is None:
        raise _UsageError("nma input requires --reference")
    return ingest_nma(args.input, args.reference)


def _parse_structure(args):
    try:
        return CovStructure.parse(args.structure)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_plan(args, n_studies):
    if args.perm is None:
        return _default_plan(None, n_studies, args.seed)
    token = args.perm.strip().lower()
    if token == "exhaustive":
        return PermutationPlan.exhaustive()
    try:
        n_draws = int(token)
    except ValueError:
        raise _UsageError(
            f"--perm must be 'exhaustive' or an integer, got {args.perm!r}"
        ) from None
    return PermutationPlan.random(n_draws=n_draws, seed=args.seed)


def _parse_mu(text, p):
    parts = [t for t in text.split(",") if t.strip() != ""]
    if len(parts) != p:
        raise _UsageError(f"--mu-null needs {p} comma-separated values, got {len(parts)}")
    try:
        return np.array([float(t) for t in parts])
    except ValueError as exc:
        raise _UsageError(f"bad --mu-null value: {exc}") from None


def _resolve_component(data, token):
    token = str(token).strip()
    for j, label in enumerate(data.labels):
        if token == label:
            return j
    try:
        idx = int(token)
    except ValueError:
        raise _UsageError(
            f"unknown outcome {token!r}; labels are {', '.join(data.labels)}"
        ) from None
    return _zero_based(idx, data.p)


def _zero_based(idx, p):
    """0-based index of a 1-based component; usage error unless in 1..p."""
    if not 1 <= idx <= p:
        raise _UsageError(f"component index {idx} out of range 1..{p}")
    return idx - 1


def _parse_axes(data, text):
    tokens = [t for t in text.split(",") if t.strip() != ""]
    if len(tokens) < 2:
        raise _UsageError("--axes needs at least two outcomes")
    return tuple(_resolve_component(data, t) for t in tokens)


def _parse_bounds(text, n_axes):
    pairs = [t for t in text.split(",") if t.strip() != ""]
    if len(pairs) != n_axes:
        raise _UsageError(f"--bounds needs {n_axes} low:high pairs")
    out = []
    for pair in pairs:
        bits = pair.split(":")
        if len(bits) != 2:
            raise _UsageError(f"bad bounds pair {pair!r}; expected low:high")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError:
            raise _UsageError(f"bad bounds pair {pair!r}") from None
        out.append((lo, hi))
    return out


def _kv_rows(payload):
    """Flat key,value CSV rows for scalar/vector payload dicts."""
    rows = [["key", "value"]]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, np.ndarray):
            value = ";".join(repr(float(v)) for v in np.ravel(value))
        elif isinstance(value, (list, tuple)):
            value = ";".join(str(v) for v in value)
        rows.append([key, value])
    return rows


def _reported_scale_extras(data, component, values):
    scale = data.scales[component]
    if scale == "identity":
        return {}
    extras = {"scale": scale}
    for key, v in values.items():
        extras[key] = back_transform(v, scale)
    return extras


# Each command returns (result, extra, rows): the result and extra
# top-level keys for results_to_json, and the CSV rows, header first.


def _cmd_fit(args):
    data = _load_dataset(args)
    structure = _parse_structure(args)
    fit = fit_ml(data, structure) if args.estimator == "ml" else fit_reml(data, structure)
    extra = {"labels": list(data.labels), "scales": list(data.scales)}
    payload = {
        "method": fit.method,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "mu": fit.mu,
        "tau": fit.het.tau,
        "labels": list(data.labels),
    }
    if any(s != "identity" for s in data.scales):
        extra["mu_reported"] = payload["mu_reported"] = [
            back_transform(float(m), s) for m, s in zip(fit.mu, data.scales)
        ]
    return fit, extra, _kv_rows(payload)


def _cmd_test_joint(args):
    data = _load_dataset(args)
    structure = _parse_structure(args)
    plan = _parse_plan(args, data.n_studies)
    mu0 = _parse_mu(args.mu_null, data.p)
    res = joint_permutation_test(
        data, mu0, plan=plan, stat=_STATS[args.stat], structure=structure
    )
    reject = res.p_value <= args.alpha
    extra = {"alpha": args.alpha, "reject": reject, "seed": plan.seed}
    return res, extra, _kv_rows(
        {
            "stat": args.stat,
            "statistic": res.statistic,
            "p_value": res.p_value,
            "n_permutations": res.n_permutations,
            "n_failed": res.n_failed,
            "reject": reject,
        }
    )


def _cmd_test_marginal(args):
    data = _load_dataset(args)
    structure = _parse_structure(args)
    plan = _parse_plan(args, data.n_studies)
    component = _resolve_component(data, args.component)
    res = marginal_permutation_test(
        data, args.mu1_null, component, plan=plan, structure=structure
    )
    reject = res.p_value <= args.alpha
    extra = {
        "alpha": args.alpha,
        "reject": reject,
        "label": data.labels[component],
        "seed": plan.seed,
    }
    extra.update(
        _reported_scale_extras(data, component, {"value_reported": args.mu1_null})
    )
    return res, extra, _kv_rows(
        {
            "component": data.labels[component],
            "value": args.mu1_null,
            "statistic": res.statistic,
            "p_value": res.p_value,
            "n_permutations": res.n_permutations,
            "n_failed": res.n_failed,
            "reject": reject,
        }
    )


def _cmd_ci(args):
    data = _load_dataset(args)
    structure = _parse_structure(args)
    plan = _parse_plan(args, data.n_studies)
    component = _resolve_component(data, args.component)
    interval = confidence_interval(
        data, component, alpha=args.alpha, plan=plan, structure=structure
    )
    extra = {"label": data.labels[component], "seed": plan.seed}
    extra.update(
        _reported_scale_extras(
            data,
            component,
            {
                "lower_reported": interval.lower,
                "upper_reported": interval.upper,
                "center_reported": interval.center,
            },
        )
    )
    payload = {
        "component": data.labels[component],
        "alpha": interval.alpha,
        "lower": interval.lower,
        "upper": interval.upper,
        "center": interval.center,
    }
    payload.update({k: v for k, v in extra.items() if k != "label"})
    return interval, extra, _kv_rows(payload)


def _cmd_region(args):
    data = _load_dataset(args)
    structure = _parse_structure(args)
    plan = _parse_plan(args, data.n_studies)
    axes = _parse_axes(data, args.axes)
    bounds = _parse_bounds(args.bounds, len(axes)) if args.bounds else None
    grid = confidence_region(
        data,
        components=axes,
        alpha=args.alpha,
        bounds=bounds,
        resolution=args.resolution,
        stat=_STATS[args.stat],
        plan=plan,
        structure=structure,
    )
    return grid, {"labels": [data.labels[j] for j in axes]}, _region_rows(grid)


def _cmd_simulate(args):
    scenarios = load_scenarios(args.manifest)
    if args.scenario not in scenarios:
        raise _UsageError(
            f"unknown scenario {args.scenario!r}; "
            f"{len(scenarios)} names available in the manifest"
        )
    scenario = scenarios[args.scenario]
    structure = _parse_structure(args)
    plan = _parse_plan(args, scenario.n_studies)
    report = coverage_experiment(
        scenario,
        args.method,
        reps=args.reps,
        plan=plan,
        seed=args.seed,
        alpha=args.alpha,
        component=_zero_based(args.component, scenario.p),
        structure=structure,
    )
    return report, {"seed": args.seed}, [CoverageReport.header(), report.to_row()]


def _cmd_ingest_check(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = _load_dataset(args)
    payload = {
        "kind": "ingest-check",
        "input": args.input,
        "input_format": args.input_format,
        "n_studies": data.n_studies,
        "n_outcomes": data.p,
        "labels": list(data.labels),
        "scales": list(data.scales),
        "complete": data.complete,
        "observed_per_outcome": data.observed.sum(axis=0).tolist(),
        "warnings": [str(w.message) for w in caught],
    }
    return payload, None, _kv_rows({k: v for k, v in payload.items() if k != "kind"})


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one plain line on stderr, without source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = _build_parser()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            args = parser.parse_args(argv)
            result, extra, rows = args.func(args)
            text = _csv_text(rows) if args.format == "csv" else results_to_json(result, extra=extra)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, UninformativeComponentError, SingularInformationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
