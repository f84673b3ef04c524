"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload interval-t3 --seed 1 --seconds 10 --trace 0

Run it from the repository root; it uses the package under src/ and
writes its inputs and full results under .perfbench_run/. The last line
of standard output is the result: correctness, operations attempted and
failed, and the metrics (end-to-end ones with --trace 0, per-layer ones
with --trace 1). The line before it records the environment, the
individual timings and the gate's findings. perfbench/METRICS.md says
what each metric means.
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in
# every worker, which inherits the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_run"
# fresh interpreters timed for setup_s in an untraced run; the last one
# goes on to run the body
SETUP_SAMPLES = 4
# one worker must finish well inside the 180 s a run may take
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _spawn(args, timeout):
    """Run worker.py; return (seconds until it was ready, its last JSON line)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{err}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return lines[0]["ready"] - t0, lines[-1]


def _environment(seed):
    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "metaperm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "metaperm" / "__init__.py").is_file():
        raise BenchError(f"no metaperm package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import metaperm

    import gate
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workloads.WORKLOADS[workload](metaperm, seed, WORKDIR).prepare()
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(WORKDIR)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn([*base, "--mode", "setup"], WORKER_TIMEOUT_S)[0])
    ready, res = _spawn(
        [*base, "--mode", "run", "--seconds", str(seconds), "--trace", str(trace)],
        WORKER_TIMEOUT_S,
    )
    setups.append(ready)

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    findings = gate.check(workload, res["outputs"], reference, res["shift"])
    if trace and not res["traced_identical"]:
        findings.append("the traced rep returned other outputs than the untraced rep")

    if trace:
        declared, values = spec["per_layer"], res["layers"]
    else:
        declared = spec["end_to_end"]
        # times are divided by the slowdown the worker measured alongside
        values = {
            "wall_s": statistics.median(t / s for t, s in zip(res["times"], res["slowdowns"])),
            "setup_s": statistics.median(setups) / res["slowdown"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    detail = {
        "workload": workload,
        "trace": trace,
        "environment": _environment(seed),
        "wall_s_reps": res["times"],
        "slowdown_reps": res["slowdowns"],
        "slowdown_run": res["slowdown"],
        "setup_s_samples": setups,
        "shift": res["shift"],
        "gate": findings or "pass",
    }
    record = dict(detail, outputs=res["outputs"], spans=res.get("spans"))
    out_path = WORKDIR / f"result-{workload}-{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(record), encoding="utf-8")
    result = {
        "correct": not findings,
        "attempted": res["calls"],
        "failed": 0,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
