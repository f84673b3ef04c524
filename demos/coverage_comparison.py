#!/usr/bin/env python3
"""Coverage comparison: permutation test versus the Wald comparator.

Repeatedly simulates datasets from one scenario, tests the true mean
with each method at the 5% level, and tallies how often the truth is
accepted. With few studies the Wald ellipsoid relies on asymptotics
and undercovers; the permutation test holds its level by construction
of the sign-flip null distribution.
"""

import argparse
import time

from metaperm import coverage_experiment, load_scenarios


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="gauss2-s4")
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20240101)
    args = ap.parse_args()

    scenario = load_scenarios()[args.scenario]
    print(
        f"{scenario.name}: N={scenario.n_studies}, "
        f"between-study SD {scenario.tau[0]:.3f}, kappa {scenario.kappa}"
    )
    print(f"{args.reps} replicates, nominal coverage 0.95\n")

    for method in ("ml-wald", "reml-wald", "perm-t1", "perm-t2"):
        t0 = time.monotonic()
        rep = coverage_experiment(scenario, method, reps=args.reps, seed=args.seed)
        dt = time.monotonic() - t0
        print(
            f"  {method:>9}: coverage {rep.coverage:.3f} "
            f"(MC se {rep.monte_carlo_se:.3f}, "
            f"{rep.non_convergence} failures, {dt:.1f}s)"
        )


if __name__ == "__main__":
    main()
