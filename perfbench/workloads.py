"""The three benchmark workloads: their inputs, warm-up and measured body.

Each workload calls metaperm's public API the way the matching CLI
subcommand does (``ci``, ``region``, ``simulate``) and returns the
outputs the correctness gate compares plus the probe and failure counts
that only the results themselves carry.

The interval and region inputs are a fixed base dataset moved by a
location shift drawn from the seed. A shift leaves every statistic,
p-value and optimizer path unchanged up to rounding, so the work done,
and with it the run time, does not depend on the seed, while the
numbers the program reads and returns do. Datasets drawn afresh from
each seed made ``interval-t3`` take 20.6 to 30.5 s over six seeds,
because the cost of the marginal refits depends on the data; that
spread is wider than any regression bound the benchmark could hold.
The reference outputs of any seed follow from the base ones: location
outputs move by the shift, p-values stay put.

The coverage table is one fixed experiment, the paper table at the
CLI's default seed, and the run's seed does not change it. Shifting
the Gaussian scenario's mean, which alters the arithmetic only by
rounding, already changed which ML fits converge (21 of 100 failed on
the base scenario, 17 on a shifted one), so neither its outputs nor
its run time would hold still under a seed-dependent input.
"""

import contextlib
import time

import numpy as np

ALPHA = 0.05
COMPONENT = 0
# the CLI's default --seed; random sign plans and the coverage replicate
# stream use it, so the seed of a run moves only the location
FIXED_SEED = 20240101
# largest location shift per component, on the working scale
SHIFT_HALF_WIDTH = 0.5

# generator settings of the bivariate12 test fixture
BIVARIATE12 = dict(
    seed=20240915,
    tau=(0.3, 0.4),
    kappa=0.5,
    mu=(0.5, -0.3),
    var_range=(0.02, 0.10),
    rho_range=(0.0, 0.4),
)

# the default bounds (the inflated 99.9% Wald box) that confidence_region
# chose for the unshifted region-t2 dataset; passing them, shifted, as
# --bounds keeps the lattice independent of the ML fit's last digits
REGION_BOUNDS = (
    (-0.05267604969504858, 1.1498517121956677),
    (-0.7259478099771464, 0.4192230819539488),
)

COVERAGE_REPS = 100
# perm-t1 draws 100 random sign rows, not the exhaustive 2^8 plan: the
# exhaustive row alone takes about 43 s on a 2-CPU Xeon, more than one
# benchmark run can spend on a whole workload
COVERAGE_ROWS = (
    ("diag-n8-d1-h2", "ml-wald", None),
    ("diag-n8-d1-h2", "reml-wald", None),
    ("diag-n8-d1-h2", "perm-t2", None),
    ("diag-n8-d1-h2", "perm-t1", 100),
    ("gauss3m-s2", "ml-wald", None),
    ("gauss3m-s2", "reml-wald", None),
)


def location_shift(seed, p):
    """Seeded location shift of length p; zero for the base problem."""
    if seed is None:
        return np.zeros(p)
    rng = np.random.default_rng([seed, p])
    return rng.uniform(-SHIFT_HALF_WIDTH, SHIFT_HALF_WIDTH, size=p)


def make_mvn(seed, n_studies, tau, kappa, mu, var_range, rho_range):
    """Complete dataset from the multivariate random-effects model.

    Same generator as the package's test fixtures, returned as arrays.
    """
    rng = np.random.default_rng(seed)
    tau = np.asarray(tau, dtype=float)
    mu = np.asarray(mu, dtype=float)
    p = tau.size
    sigma = np.outer(tau, tau) * np.where(np.eye(p, dtype=bool), 1.0, kappa)
    Y = np.empty((n_studies, p))
    S = np.empty((n_studies, p, p))
    for i in range(n_studies):
        v = rng.uniform(var_range[0], var_range[1], size=p)
        r = rng.uniform(rho_range[0], rho_range[1])
        Si = np.diag(v)
        for j in range(p):
            for k in range(j + 1, p):
                Si[j, k] = Si[k, j] = r * np.sqrt(v[j] * v[k])
        S[i] = Si
        Y[i] = rng.multivariate_normal(mu, sigma + Si)
    return Y, S


def _median_us(fn, calls):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


class _WideInput:
    """A bivariate dataset written with write_wide and read with ingest_wide."""

    name = None
    n_studies = None

    def __init__(self, mp, seed, workdir):
        self.mp = mp
        self.shift = location_shift(seed, 2)
        self.path = workdir / f"{self.name}-{'base' if seed is None else seed}.csv"
        self.structure = mp.CovStructure.unstructured()
        self.data = None

    def prepare(self):
        settings = dict(BIVARIATE12)
        Y, S = make_mvn(settings.pop("seed"), self.n_studies, **settings)
        data = self.mp.Dataset.from_arrays(
            Y + self.shift, S, ids=[f"st{i + 1}" for i in range(self.n_studies)]
        )
        self.mp.write_wide(data, self.path)

    def read(self):
        self.data = self.mp.ingest_wide(self.path)

    def ingest_ms(self, calls=5):
        return _median_us(lambda: self.mp.ingest_wide(self.path), calls) / 1e3

    def model_terms_us(self, calls=200):
        fit = self.mp.fit_ml(self.data, self.structure)
        return _median_us(lambda: self.mp.model_terms(self.data, fit.mu, fit.sigma), calls)


class IntervalT3(_WideInput):
    """``metaperm ci --perm 100``: median-unbiased estimate, then the interval."""

    name = "interval-t3"
    n_studies = 12
    calls_per_rep = 2
    # calibration kernels that match the body (see worker.py): refits only
    yardstick = ("fit",)

    def __init__(self, mp, seed, workdir):
        super().__init__(mp, seed, workdir)
        self.plan = mp.PermutationPlan.random(n_draws=100, seed=FIXED_SEED)

    def warm_up(self):
        fit = self.mp.fit_ml(self.data, self.structure)
        self.mp.fit_marginal_null(self.data, fit.mu[COMPONENT], COMPONENT, self.structure)

    def body(self, span):
        mp = self.mp
        with span("mue"):
            mue, diag = mp.median_unbiased_estimate(
                self.data, COMPONENT, self.plan, self.structure, full_output=True
            )
        with span("ci"):
            iv = mp.confidence_interval(
                self.data,
                COMPONENT,
                alpha=ALPHA,
                plan=self.plan,
                structure=self.structure,
                center=mue,
            )
        bd = iv.boundary_diagnostics
        # the center probe heads both scan lists; count it once
        ci_probes = 1 + sum(len(bd[side]["scan"]) - 1 for side in ("lower", "upper"))
        outputs = {"mue": float(mue), "lower": float(iv.lower), "upper": float(iv.upper)}
        counts = {"mue_probes": len(diag["trace"]), "ci_probes": ci_probes}
        return outputs, counts

    def operations(self, outputs, counts):
        # an operation is one call; a call that raised never gets here
        return self.calls_per_rep, 0


class RegionT2(_WideInput):
    """``metaperm region --stat t2 --perm exhaustive --resolution 20 --bounds=...``, N = 16."""

    name = "region-t2"
    n_studies = 16
    calls_per_rep = 1
    yardstick = ("fit", "stream")

    def __init__(self, mp, seed, workdir):
        super().__init__(mp, seed, workdir)
        self.plan = mp.PermutationPlan.exhaustive()

    def warm_up(self):
        fit = self.mp.fit_ml(self.data, self.structure)
        self.mp.joint_permutation_test(self.data, fit.mu, plan=self.plan, stat="moment")

    def body(self, span):
        with span("region"):
            grid = self.mp.confidence_region(
                self.data,
                components=(0, 1),
                alpha=ALPHA,
                bounds=[(lo + s, hi + s) for (lo, hi), s in zip(REGION_BOUNDS, self.shift)],
                resolution=20,
                stat="moment",
                plan=self.plan,
                structure=self.structure,
            )
        p_value = [None if np.isnan(v) else float(v) for v in grid.p_value.ravel()]
        outputs = {
            "axis_values": [[float(v) for v in axis] for axis in grid.axis_values],
            "p_value": p_value,
            "accepted": [int(v) for v in grid.accepted.ravel()],
            "failed": [int(v) for v in grid.failed.ravel()],
        }
        counts = {"points": int(grid.failed.size), "points_failed": int(grid.failed.sum())}
        return outputs, counts

    def operations(self, outputs, counts):
        return counts["points"], counts["points_failed"]


class CoverageTable:
    """``metaperm simulate`` for each row of the coverage table, 100 replicates."""

    name = "coverage-table"
    calls_per_rep = len(COVERAGE_ROWS)
    yardstick = ("fit", "stream")

    # the seed moves nothing here, see the module docstring
    shift = ()

    def __init__(self, mp, seed, workdir):
        self.mp = mp
        self.scenarios = None

    def prepare(self):
        pass

    def read(self):
        self.scenarios = self.mp.load_scenarios()

    def _terms_dataset(self):
        return self.mp.generate(self.scenarios[COVERAGE_ROWS[0][0]], FIXED_SEED)

    def warm_up(self):
        for name in dict.fromkeys(row[0] for row in COVERAGE_ROWS):
            data = self.mp.generate(self.scenarios[name], FIXED_SEED)
            # the table counts replicates whose fit fails; so does the warm-up
            with contextlib.suppress(self.mp.MetapermError):
                self.mp.fit_ml(data)
                self.mp.fit_reml(data)
        data = self._terms_dataset()
        self.mp.joint_permutation_test(
            data, self.mp.fit_ml(data).mu, plan=self.mp.PermutationPlan.exhaustive(), stat="moment"
        )

    def body(self, span):
        rows = []
        for name, method, draws in COVERAGE_ROWS:
            plan = None
            if draws is not None:
                plan = self.mp.PermutationPlan.random(n_draws=draws, seed=FIXED_SEED)
            with span(f"row:{name}.{method}"):
                rep = self.mp.coverage_experiment(
                    self.scenarios[name],
                    method,
                    reps=COVERAGE_REPS,
                    plan=plan,
                    seed=FIXED_SEED,
                    alpha=ALPHA,
                    component=COMPONENT,
                )
            rows.append(
                {
                    "scenario": name,
                    "method": method,
                    "coverage": float(rep.coverage),
                    "replications": int(rep.replications),
                    "non_convergence": int(rep.non_convergence),
                }
            )
        return {"rows": rows}, {}

    def operations(self, outputs, counts):
        rows = outputs["rows"]
        return (
            sum(r["replications"] + r["non_convergence"] for r in rows),
            sum(r["non_convergence"] for r in rows),
        )

    def ingest_ms(self, calls=5):
        return _median_us(self.mp.load_scenarios, calls) / 1e3

    def model_terms_us(self, calls=200):
        data = self._terms_dataset()
        fit = self.mp.fit_ml(data)
        return _median_us(lambda: self.mp.model_terms(data, fit.mu, fit.sigma), calls)


WORKLOADS = {w.name: w for w in (IntervalT3, RegionT2, CoverageTable)}
