"""Correctness gate: a run's outputs against the reference outputs.

reference.json holds the outputs of the base problem (zero shift),
recorded by record_reference.py at the commit that introduced the
benchmark. A run on seed s solved the base problem moved by a location
shift, so its location outputs (interval endpoints, estimate, lattice
axes) must equal the reference plus the shift, and everything fixed by
the sign plan (p-values, acceptance, coverage, non-convergence counts)
must equal the reference exactly.
"""

# Optimizer-determined values may move by this much on the working
# scale. It is a tenth of the interval bisection tolerance (1e-4), so a
# single changed accept/reject decision, which moves an endpoint by at
# least half of that, still fails the gate.
TOL = 1e-5


def _close(got, expected):
    return abs(got - expected) <= TOL


def _interval(out, ref, shift):
    return [
        f"{key}: got {out[key]!r}, expected {ref[key] + shift[0]!r}"
        for key in ("mue", "lower", "upper")
        if not _close(out[key], ref[key] + shift[0])
    ]


def _region(out, ref, shift):
    fails = []
    for k, (got, base) in enumerate(zip(out["axis_values"], ref["axis_values"], strict=True)):
        if len(got) != len(base) or not all(_close(g, b + shift[k]) for g, b in zip(got, base)):
            fails.append(f"axis {k}: lattice values differ from the reference")
    for key in ("p_value", "accepted", "failed"):
        if out[key] != ref[key]:
            n = sum(g != b for g, b in zip(out[key], ref[key])) if len(out[key]) == len(ref[key]) else "all"
            fails.append(f"{key}: {n} lattice points differ from the reference")
    return fails


def _coverage(out, ref, shift):
    if len(out["rows"]) != len(ref["rows"]):
        return ["coverage table has a different number of rows"]
    fails = []
    for got, want in zip(out["rows"], ref["rows"]):
        if got != want:
            fails.append(f"row {want['scenario']} {want['method']}: got {got}, expected {want}")
    return fails


CHECKS = {"interval-t3": _interval, "region-t2": _region, "coverage-table": _coverage}


def check(workload, outputs, reference, shift):
    """Return a list of differences; an empty list means the gate passes."""
    return CHECKS[workload](outputs, reference["workloads"][workload], shift)
