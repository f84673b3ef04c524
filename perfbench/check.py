"""Print every metric with its unit and check the benchmark itself.

    python3 perfbench/check.py [--workload NAME ...] [--seed N]

For each workload (all three by default) this runs run.py once untraced
and twice traced on one seed, and prints every end-to-end and per-layer
metric with its unit. It fails (exit code 1) when

- the correctness gate rejects a run's outputs, or a traced rep returned
  other outputs than the untraced rep of the same run;
- the two traced runs disagree on a count that must repeat exactly;
- the gate still passes after a reference value has been perturbed.

A full check of all three workloads takes about six minutes on a 2-CPU
Xeon.
"""

import argparse
import copy
import json
import subprocess
import sys
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# machine-independent counts; two traced runs on one seed must agree
STABLE_COUNTS = (
    "estimators.refits",
    "estimators.minimize_per_refit",
    "model.passes",
    "permutation.draws",
    "inference.mue_probes",
    "inference.ci_probes",
    "inference.points",
)


def _run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "10", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def _perturbations(workload, reference):
    """Copies of the reference, each with one value moved past the gate's tolerance."""
    ref = reference["workloads"][workload]
    out = []

    def moved(label, edit):
        changed = copy.deepcopy(reference)
        edit(changed["workloads"][workload])
        out.append((label, changed))

    if workload == "interval-t3":
        for key in ("mue", "lower", "upper"):
            moved(key, lambda r, key=key: r.__setitem__(key, r[key] + 1e-4))
    elif workload == "region-t2":
        i = next(k for k, v in enumerate(ref["p_value"]) if v is not None)
        moved("p_value", lambda r: r["p_value"].__setitem__(i, r["p_value"][i] + 2.0**-16))
        moved("accepted", lambda r: r["accepted"].__setitem__(i, 1 - r["accepted"][i]))
        moved("axis_values", lambda r: r["axis_values"][0].__setitem__(3, r["axis_values"][0][3] + 1e-4))
    else:
        moved("coverage", lambda r: r["rows"][0].__setitem__("coverage", r["rows"][0]["coverage"] + 0.01))
        moved(
            "non_convergence",
            lambda r: r["rows"][-1].__setitem__("non_convergence", r["rows"][-1]["non_convergence"] + 1),
        )
    return out


def check(workload, seed):
    problems = []
    detail, plain = _run(workload, seed, 0)
    traced = [_run(workload, seed, 1) for _ in range(2)]
    print(f"== {workload}, seed {seed}")
    for result in (plain, traced[0][1]):
        for name, m in result["metrics"].items():
            print(f"  {name:45s} {m['value']!r:>24} {m['unit']}")
    for label, (d, r) in (("untraced", (detail, plain)), ("traced", traced[0]), ("traced", traced[1])):
        if not r["correct"]:
            problems.append(f"{label} run failed the gate: {d['gate']}")
    first, second = (t[1]["metrics"] for t in traced)
    for name in STABLE_COUNTS:
        if first[name]["value"] != second[name]["value"]:
            problems.append(
                f"{name} did not repeat: {first[name]['value']} then {second[name]['value']}"
            )

    record = json.loads((ROOT / ".perfbench_run" / f"result-{workload}-{seed}-trace0.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    if gate.check(workload, record["outputs"], reference, record["shift"]):
        problems.append("the gate rejects the outputs it accepted during the run")
    for label, perturbed in _perturbations(workload, reference):
        if not gate.check(workload, record["outputs"], perturbed, record["shift"]):
            problems.append(f"the gate passed with a perturbed reference {label}")
    print(f"  gate: {detail['gate']}; counts repeat: "
          f"{all(first[n]['value'] == second[n]['value'] for n in STABLE_COUNTS)}")
    return problems


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    problems = []
    for workload in args.workload or names:
        problems += [f"{workload}: {p}" for p in check(workload, args.seed)]
    for p in problems:
        print(f"FAIL {p}")
    print("check passed" if not problems else f"check failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
