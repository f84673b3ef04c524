"""Data ingestion, serialization, and back-transformation.

Three CSV schemas are supported (UTF-8, header row, "." decimals):

wide effect tables
    id, y1, se1, y2, se2, ... (or var1, var2, ... instead of se),
    optional rho12, rho13, ... within-study correlation columns. A
    blank y or se cell marks the outcome unobserved for that study.

2x2 diagnostic tables
    id, tp, fn, tn, fp nonnegative integer counts per study; outcome 1
    is logit sensitivity, outcome 2 logit false positive rate.

arm-level comparative tables
    study, treatment, events, total; one row per arm. Outcomes are log
    odds ratios against a designated reference treatment.

Results serialize to versioned JSON; region grids to plot-ready CSV.
"""

import csv
import io
import json
import math
import warnings
from collections import defaultdict
from dataclasses import asdict

import numpy as np

from .exceptions import DataError
from .model import Dataset

__all__ = [
    "ingest_wide",
    "write_wide",
    "ingest_diagnostic",
    "ingest_nma",
    "write_region_csv",
    "results_to_json",
    "back_transform",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

# fictitious reference-arm counts for studies lacking the reference:
# nearly zero information, so only within-study contrasts carry weight
PSEUDO_ARM_EVENTS = 0.001

# added to a 2x2 margin's count at 0 or full, and twice to its size
CONTINUITY_CORRECTION = 0.5


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, header row required")
        fields = [f.strip() for f in reader.fieldnames]
        rows = [
            {k.strip(): (v.strip() if isinstance(v, str) else v) for k, v in row.items()}
            for row in reader
        ]
    if not rows:
        raise DataError(f"{path}: no data rows")
    return fields, rows


def _blank(v):
    return v is None or v == ""


def _parse_float(value, where):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DataError(f"{where}: cannot parse {value!r} as a number") from None


def ingest_wide(path):
    """Dataset from a wide effect-size table.

    Outcome j is read from columns yj together with sej or varj; blank
    cells mark the outcome unobserved. Optional rhojk columns give
    within-study correlations; when none are present the off-diagonals
    default to zero with a warning, since ignoring known within-study
    correlation changes the model.
    """
    fields, rows = _read_rows(path)
    lower = {f.lower(): f for f in fields}
    if "id" not in lower:
        raise DataError(f"{path}: missing required column 'id'")
    outcomes = sorted(
        int(f[1:]) for f in lower if f.startswith("y") and f[1:].isdigit()
    )
    if not outcomes:
        raise DataError(f"{path}: no outcome columns (y1, y2, ...) found")
    if outcomes != list(range(1, len(outcomes) + 1)):
        raise DataError(f"{path}: outcome columns must be consecutive starting at y1")
    p = len(outcomes)
    use_se = "se1" in lower
    use_var = "var1" in lower
    if use_se == use_var:
        raise DataError(
            f"{path}: provide exactly one scale family, se1..se{p} or var1..var{p}"
        )
    spread = "se" if use_se else "var"
    for j in range(1, p + 1):
        if f"{spread}{j}" not in lower:
            raise DataError(f"{path}: missing column {spread}{j}")
    rho_cols = {}
    for j in range(1, p + 1):
        for k in range(j + 1, p + 1):
            name = f"rho{j}{k}"
            if name in lower:
                rho_cols[(j - 1, k - 1)] = lower[name]
    if p > 1 and not rho_cols:
        warnings.warn(
            f"{path}: no within-study correlation columns (rho12, ...); "
            "assuming zero within-study correlation for every study",
            stacklevel=2,
        )

    ids = []
    Y = np.zeros((len(rows), p))
    S = np.zeros((len(rows), p, p))
    masks = np.zeros((len(rows), p), dtype=bool)
    # y, S_i and observed are row views of Y, S and masks, filled in place
    for y, S_i, observed, (i, row) in zip(Y, S, masks, enumerate(rows, 2)):
        sid = row.get(lower["id"]) or f"row{i}"
        where = f"{path} row {i} (study {sid})"
        var = np.ones(p)
        for j in range(p):
            y_cell = row.get(lower[f"y{j + 1}"], "")
            s_cell = row.get(lower[f"{spread}{j + 1}"], "")
            if _blank(y_cell) != _blank(s_cell):
                raise DataError(
                    f"{where}: outcome {j + 1} needs both value and {spread} or neither"
                )
            if _blank(y_cell):
                continue
            observed[j] = True
            y[j] = _parse_float(y_cell, where)
            s = _parse_float(s_cell, where)
            if s <= 0:
                raise DataError(f"{where}: {spread}{j + 1} must be positive")
            var[j] = s * s if spread == "se" else s
        if not observed.any():
            raise DataError(f"{where}: study reports no outcomes")
        S_i[np.arange(p), np.arange(p)] = var
        for (a, b), col in rho_cols.items():
            cell = row.get(col, "")
            if _blank(cell):
                continue
            r = _parse_float(cell, where)
            if not -1.0 <= r <= 1.0:
                raise DataError(f"{where}: correlation {col} outside [-1, 1]")
            S_i[a, b] = S_i[b, a] = r * math.sqrt(var[a] * var[b])
        ids.append(sid)
    return Dataset(Y=Y, S=S, observed=masks, ids=ids)


def write_wide(data, path):
    """Serialize a dataset to the wide CSV schema (inverse of ingest_wide).

    Numbers are written with full round-trip precision; unobserved
    cells are blank. Within-study correlations are emitted for every
    outcome pair, blank where either outcome is unobserved.
    """
    p = data.p
    header = ["id"]
    for j in range(1, p + 1):
        header += [f"y{j}", f"se{j}"]
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    header += [f"rho{a + 1}{b + 1}" for a, b in pairs]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for sid, y, S, observed in zip(data.ids, data.Y, data.S, data.observed):
            row = [sid]
            se = np.sqrt(np.clip(np.diag(S), 0.0, None))
            for j in range(p):
                if observed[j]:
                    row += [repr(float(y[j])), repr(float(se[j]))]
                else:
                    row += ["", ""]
            for a, b in pairs:
                if observed[a] and observed[b] and se[a] > 0 and se[b] > 0:
                    row.append(repr(float(S[a, b] / (se[a] * se[b]))))
                else:
                    row.append("")
            w.writerow(row)


def _logit_outcome(x, n, where):
    """Empirical logit and its variance with continuity correction."""
    if n < 1:
        raise DataError(f"{where}: empty margin")
    corrected = False
    x = float(x)
    n = float(n)
    if x == 0.0 or x == n:
        x += CONTINUITY_CORRECTION
        n += 2.0 * CONTINUITY_CORRECTION
        corrected = True
    return math.log(x / (n - x)), 1.0 / x + 1.0 / (n - x), corrected


def ingest_diagnostic(path):
    """Dataset of logit sensitivity and logit false positive rate.

    Per study, outcome 1 uses the true-positive margin (tp of tp + fn)
    and outcome 2 the false-positive margin (fp of tn + fp); variances
    are 1/x + 1/(n - x) and the within-study correlation is zero. A
    margin at 0 or full gets CONTINUITY_CORRECTION (0.5) added to its
    count, and twice that to its size, before the transform. One
    warning, "<path>: continuity correction applied to studies <id>,
    ...", names the corrected studies.
    """
    fields, rows = _read_rows(path)
    lower = {f.lower(): f for f in fields}
    for col in ("id", "tp", "fn", "tn", "fp"):
        if col not in lower:
            raise DataError(f"{path}: missing required column '{col}'")
    ids = []
    Y = np.zeros((len(rows), 2))
    S = np.zeros((len(rows), 2, 2))
    corrected_ids = []
    # y and S_i are row views of Y and S, filled in place
    for y, S_i, (i, row) in zip(Y, S, enumerate(rows, 2)):
        sid = str(row.get(lower["id"]) or f"row{i}")
        where = f"{path} row {i} (study {sid})"
        counts = {}
        for col in ("tp", "fn", "tn", "fp"):
            v = _parse_float(row.get(lower[col], ""), where)
            if v < 0 or v != int(v):
                raise DataError(f"{where}: {col} must be a nonnegative integer")
            counts[col] = v
        y[0], S_i[0, 0], c1 = _logit_outcome(
            counts["tp"], counts["tp"] + counts["fn"], where
        )
        y[1], S_i[1, 1], c2 = _logit_outcome(
            counts["fp"], counts["tn"] + counts["fp"], where
        )
        if c1 or c2:
            corrected_ids.append(sid)
        ids.append(sid)
    if corrected_ids:
        warnings.warn(
            f"{path}: continuity correction applied to studies "
            f"{', '.join(corrected_ids)}",
            stacklevel=2,
        )
    return Dataset(
        Y=Y, S=S, ids=ids, labels=("sens", "fpr"), scales=("logit", "logit")
    )


def _check_connected(arm_sets, treatments):
    """All treatments reachable from each other through shared studies."""
    adjacency = {t: set() for t in treatments}
    for arms in arm_sets:
        arms = list(arms)
        for a in arms:
            adjacency[a].update(arms)
    start = next(iter(treatments))
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for u in adjacency[t]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    missing = sorted(set(treatments) - seen)
    if missing:
        raise DataError(
            f"treatment network is disconnected; unreachable: {', '.join(missing)}"
        )


def ingest_nma(path, reference):
    """Dataset of log odds ratios versus a reference treatment.

    Each study contributes one outcome per non-reference treatment it
    includes: the log odds ratio of that treatment against the
    reference, with variance summing the four reciprocal cell counts and,
    between two outcomes of the same study, covariance equal to the
    reference arm's variance contribution (the shared-arm term). A
    study without the reference arm is augmented with a fictitious
    reference arm of nearly zero counts, which inflates the common
    variance term so that only the contrasts among its observed arms
    carry information. A study with any zero or full events cell has
    CONTINUITY_CORRECTION (0.5) added to the events and twice that to
    the total of every arm, keeping the shared-arm terms consistent
    across its contrasts. Treatments never compared, directly or
    indirectly, are an error.
    """
    fields, rows = _read_rows(path)
    lower = {f.lower(): f for f in fields}
    for col in ("study", "treatment", "events", "total"):
        if col not in lower:
            raise DataError(f"{path}: missing required column '{col}'")
    by_study = defaultdict(dict)
    order = []
    for i, row in enumerate(rows, 2):
        sid = str(row.get(lower["study"]) or "")
        trt = str(row.get(lower["treatment"]) or "")
        where = f"{path} row {i} (study {sid})"
        if not sid or not trt:
            raise DataError(f"{where}: study and treatment are required")
        events = _parse_float(row.get(lower["events"], ""), where)
        total = _parse_float(row.get(lower["total"], ""), where)
        if events < 0 or total < events or total <= 0:
            raise DataError(f"{where}: need 0 <= events <= total with total > 0")
        if trt in by_study[sid]:
            raise DataError(f"{where}: duplicate arm {trt}")
        if sid not in order:
            order.append(sid)
        by_study[sid][trt] = (events, total)

    treatments = sorted({t for arms in by_study.values() for t in arms})
    reference = str(reference)
    if reference not in treatments:
        raise DataError(f"reference treatment {reference!r} not present in {path}")
    for sid in order:
        if len(by_study[sid]) < 2:
            raise DataError(f"{path}: study {sid} has fewer than two arms")
    _check_connected((set(arms) for arms in by_study.values()), treatments)

    others = [t for t in treatments if t != reference]
    p = len(others)
    col_of = {t: j for j, t in enumerate(others)}
    Y = np.zeros((len(order), p))
    S = np.zeros((len(order), p, p))
    masks = np.zeros((len(order), p), dtype=bool)
    # y, S_i and observed are row views of Y, S and masks, filled in place
    for y, S_i, observed, sid in zip(Y, S, masks, order):
        arms = dict(by_study[sid])
        if reference not in arms:
            arms[reference] = (PSEUDO_ARM_EVENTS, 2.0 * PSEUDO_ARM_EVENTS)
        if any(e == 0.0 or e == n for e, n in arms.values()):
            c = CONTINUITY_CORRECTION
            arms = {t: (e + c, n + 2.0 * c) for t, (e, n) in arms.items()}
        contrib = {
            t: (math.log(e / (n - e)), 1.0 / e + 1.0 / (n - e))
            for t, (e, n) in arms.items()
        }
        ref_logodds, ref_var = contrib[reference]
        cols = [col_of[t] for t in arms if t != reference]
        for t in arms:
            if t == reference:
                continue
            j = col_of[t]
            observed[j] = True
            y[j] = contrib[t][0] - ref_logodds
            S_i[j, j] = contrib[t][1] + ref_var
        for a in cols:
            for b in cols:
                if a != b:
                    S_i[a, b] = ref_var
    return Dataset(
        Y=Y, S=S, observed=masks, ids=order, labels=tuple(others), scales=("log",) * p
    )


def _csv_text(rows):
    """Rows as CSV text, the header first, as csv.writer writes them."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _region_rows(grid):
    """Region grid as CSV rows; see write_region_csv."""
    k = len(grid.axis_components)
    rows = [[f"mu{j + 1}" for j in grid.axis_components]
            + ["statistic", "threshold", "accepted", "p_value"]]
    for row in grid.to_rows():
        out = [repr(float(v)) for v in row[:k]]
        stat, thr, acc, pv = row[k:]
        out += [repr(float(stat)), repr(float(thr)),
                "true" if acc else "false", repr(float(pv))]
        rows.append(out)
    return rows


def write_region_csv(grid, path):
    """Region grid as plot-ready CSV.

    One row per lattice point: the axis null values (columns named
    mu<j+1> for each axis component j), then statistic, threshold,
    accepted, p_value. Failed points carry NaN statistics and
    accepted=false.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(_region_rows(grid)))


def back_transform(value, scale):
    """Map a working-scale value back to the reporting scale.

    logit outcomes map through the inverse logit to probabilities, log
    outcomes through exp to ratios, identity outcomes unchanged. Works
    elementwise on arrays; the maps are monotone, so transformed
    interval endpoints stay ordered.
    """
    if scale == "identity":
        return value
    arr = np.asarray(value, dtype=float)
    if scale == "logit":
        out = 1.0 / (1.0 + np.exp(-arr))
    elif scale == "log":
        out = np.exp(arr)
    else:
        raise ValueError(f"unknown scale {scale!r}")
    if np.isscalar(value) or np.ndim(value) == 0:
        return float(out)
    return out


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        x = float(x)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _fit_payload(fit):
    return {
        "kind": "fit",
        "method": fit.method,
        "mu": fit.mu,
        "tau": fit.het.tau,
        "kappa": fit.het.kappa,
        "sigma": fit.sigma,
        "information": fit.information,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "pseudoinverse_used": fit.pseudoinverse_used,
    }


def _test_payload(res):
    return {
        "kind": "test",
        "stat": res.stat,
        "statistic": res.statistic,
        "p_value": res.p_value,
        "mu_null": res.mu_null,
        "component": res.component,
        "n_permutations": res.n_permutations,
        "mode": res.distribution.mode,
        "includes_identity": res.distribution.includes_identity,
        "n_failed": res.n_failed,
        "pseudoinverse_used": res.used_pinv,
    }


def _interval_payload(iv):
    diag = {
        side: {
            "monotone_crossing": iv.boundary_diagnostics[side]["monotone_crossing"],
            "open_ended": iv.boundary_diagnostics[side]["open_ended"],
            "n_probes": len(iv.boundary_diagnostics[side]["scan"]),
        }
        for side in ("lower", "upper")
        if side in iv.boundary_diagnostics
    }
    return {
        "kind": "interval",
        "component": iv.component,
        "alpha": iv.alpha,
        "lower": iv.lower,
        "upper": iv.upper,
        "center": iv.center,
        "boundary": diag,
    }


def _wald_payload(w):
    return {
        "kind": "wald",
        "alpha": w.alpha,
        "estimate": w.estimate,
        "se": w.se,
        "lower": w.lower,
        "upper": w.upper,
        "mu_null": w.mu_null,
        "chi2_statistic": w.chi2_statistic,
        "chi2_threshold": w.chi2_threshold,
        "p_value": w.p_value,
    }


def _coverage_payload(rep):
    return {"kind": "coverage", **asdict(rep)}


def _region_payload(grid):
    return {
        "kind": "region",
        "alpha": grid.alpha,
        "stat": grid.stat,
        "axis_components": list(grid.axis_components),
        "axis_values": [v for v in grid.axis_values],
        "fixed_components": {str(k): v for k, v in grid.fixed_components.items()},
        "statistic": grid.statistic,
        "threshold": grid.threshold,
        "p_value": grid.p_value,
        "accepted": grid.accepted,
        "failed": grid.failed,
    }


def results_to_json(result, extra=None):
    """Serialize a result object to a versioned JSON string.

    Accepts fits, test results, intervals, Wald summaries, coverage
    reports, and region grids; extra key/value pairs are merged at the
    top level. Output keys are sorted so equal results serialize to
    identical bytes.
    """
    from .estimators import FitResult
    from .inference import Interval, RegionGrid, WaldSummary
    from .permutation import TestResult
    from .simulate import CoverageReport

    if isinstance(result, FitResult):
        payload = _fit_payload(result)
    elif isinstance(result, TestResult):
        payload = _test_payload(result)
    elif isinstance(result, Interval):
        payload = _interval_payload(result)
    elif isinstance(result, WaldSummary):
        payload = _wald_payload(result)
    elif isinstance(result, CoverageReport):
        payload = _coverage_payload(result)
    elif isinstance(result, RegionGrid):
        payload = _region_payload(result)
    elif isinstance(result, dict):
        payload = dict(result)
    else:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    payload["schema_version"] = SCHEMA_VERSION
    if extra:
        payload.update(extra)
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True)
