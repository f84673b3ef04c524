#!/usr/bin/env python3
"""End-to-end workflow for a diagnostic test accuracy meta-analysis.

Starts from a 2x2 count table (one row per study), ingests it as logit
sensitivity and logit false positive rate, fits the bivariate model,
and reports a permutation confidence interval for the sensitivity
both on the logit working scale and back-transformed to a probability.
"""

import tempfile
import warnings

from metaperm import (
    PermutationPlan,
    back_transform,
    confidence_interval,
    fit_ml,
    ingest_diagnostic,
)

COUNTS = """id,tp,fn,tn,fp
study-01,47,13,80,20
study-02,38,12,63,37
study-03,52,8,71,29
study-04,29,21,90,10
study-05,61,9,58,42
study-06,44,16,77,23
study-07,35,5,69,31
study-08,50,10,84,16
study-09,42,18,66,34
study-10,57,3,73,27
"""


def main():
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write(COUNTS)
        path = fh.name

    # corrected studies are named in a warning, as `metaperm ingest-check` reports them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = ingest_diagnostic(path)
    print(f"{data.n_studies} studies; outcomes {data.labels} on {data.scales} scales")
    for w in caught:
        # "<path>: continuity correction applied to studies <id>, ..."
        print(str(w.message).split(": ", 1)[1])

    fit = fit_ml(data)
    names = dict(zip(data.labels, fit.mu))
    print("\nML estimates (working scale):")
    for label, value in names.items():
        prob = back_transform(value, "logit")
        print(f"  {label}: {value:+.4f}  ->  {prob:.3f} as a probability")
    print(f"  between-study correlation: {fit.het.kappa[0, 1]:+.3f}")

    j = data.labels.index("sens")
    plan = PermutationPlan.random(n_draws=500, seed=20240101)
    iv = confidence_interval(data, j, alpha=0.05, plan=plan)
    lo, hi = back_transform(iv.lower, "logit"), back_transform(iv.upper, "logit")
    print(f"\n95% permutation interval for logit sensitivity: "
          f"[{iv.lower:+.4f}, {iv.upper:+.4f}]")
    print(f"as sensitivity:                                 [{lo:.3f}, {hi:.3f}]")


if __name__ == "__main__":
    main()
