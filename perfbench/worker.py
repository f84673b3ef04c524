"""One measured process: import, read the input, warm up, run the body.

Started by run.py in a fresh interpreter. It prints the monotonic clock
at the moment it is ready (imports done, input read, warm-up call made)
so that the parent can time the set-up from the outside, then, unless
only the set-up is wanted, runs the workload body and prints one JSON
line with what it measured and what the program returned.

While the body runs, a second thread times fixed calibration kernels
every 0.2 s on the same CPU. On a shared host the speed of one CPU
drifts by 20 % and more within minutes, because other tenants contend
for the caches and cores; the kernels' median time during a rep,
divided by their reference time, is the slowdown that run.py divides
out.
"""

import os

# BLAS threads are pinned before numpy is first imported, and the body
# and the calibration thread share one CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

CAL_PERIOD_S = 0.2
# Two calibration kernels, one per kind of work the workloads do: an
# L-BFGS-B fit of a 3-parameter objective made of small numpy calls,
# like one refit, and a 4 MiB array streamed from beyond the 4 MiB L2,
# like the sign matrices of region-t2. Each workload names the kernels
# that match its body. They use numpy and scipy alone, never metaperm,
# so a change to the program cannot move the yardstick.
_CAL_BIG = np.arange(1 << 19, dtype=np.int64)
_CAL_M = np.array([[3.0, 0.4, 0.1], [0.4, 2.0, 0.3], [0.1, 0.3, 1.5]])
_CAL_C = np.array([1.0, -2.0, 0.5])


def _cal_objective(x):
    w, Q = np.linalg.eigh(_CAL_M + np.diag(np.exp(x)))
    value = x @ _CAL_M @ x - _CAL_C @ x + np.log(w).sum()
    grad = 2.0 * _CAL_M @ x - _CAL_C + np.exp(x) * np.einsum("ij,ij->i", Q, Q / w)
    return value, grad


def _cal_fit():
    minimize(_cal_objective, np.zeros(3), jac=True, method="L-BFGS-B", bounds=[(-5.0, 5.0)] * 3)


def _cal_stream():
    int(((_CAL_BIG >> 3) & 1).sum())


# kernel and its CPU time, in ms, that counts as slowdown 1: about its
# median during runs on a 2-CPU Xeon; it fixes the unit only
CAL_KERNELS = {"fit": (_cal_fit, 1.0), "stream": (_cal_stream, 1.5)}


class SpeedProbe:
    """Times the workload's calibration kernels every CAL_PERIOD_S from a thread."""

    def __init__(self, kernels):
        self._kernels = [CAL_KERNELS[k][0] for k in kernels]
        self._ref_s = sum(CAL_KERNELS[k][1] for k in kernels) / 1e3
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(CAL_PERIOD_S):
            # CPU time of this thread alone: waits for the interpreter
            # lock, while the body runs, do not count
            t0 = time.thread_time()
            for kernel in self._kernels:
                kernel()
            self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, since=0):
        """Median kernel time since sample `since`, over the reference time."""
        return statistics.median(self.samples[since:]) / self._ref_s


def _untraced(name):
    return nullcontext()


def _rep(workload, span, probe):
    """Run the body once; return (seconds, slowdown, outputs, counts)."""
    since = len(probe.samples)
    t0 = time.perf_counter()
    outputs, counts = workload.body(span)
    t = time.perf_counter() - t0
    # a JSON round trip makes outputs comparable with the reference file
    return t, probe.slowdown(since), json.loads(json.dumps(outputs)), counts


def _untraced_reps(workload, seconds, probe):
    """Repeat the body while another rep still fits in the run length."""
    times, slowdowns, outputs = [], [], None
    start = time.perf_counter()
    while True:
        t, slow, out, _ = _rep(workload, _untraced, probe)
        times.append(t)
        slowdowns.append(slow)
        if outputs is None:
            outputs = out
        elif out != outputs:
            raise RuntimeError("two reps on one input returned different outputs")
        if time.perf_counter() - start + t > seconds:
            return {"times": times, "slowdowns": slowdowns, "reps": len(times), "outputs": outputs}


def _traced(workload, tracing, workload_rows, probe):
    """One untraced rep, then one traced rep, then the direct timings."""
    t_plain, slow_plain, outputs, counts = _rep(workload, _untraced, probe)
    tracer = tracing.Tracer()
    with tracer.installed():
        t_traced, slow_traced, traced_outputs, _ = _rep(workload, tracer.span, probe)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace_overhead"] = (t_traced / slow_traced) / (t_plain / slow_plain) - 1.0
    metrics["model.terms_us"] = workload.model_terms_us()
    metrics["io.ingest_ms"] = workload.ingest_ms()
    rows_s = tracing.row_seconds(tracer)
    for name, method, _ in workload_rows:
        metrics[f"simulate.wall_s.{name}.{method}"] = rows_s.get(f"{name}.{method}", 0.0)
    metrics["inference.mue_probes"] = counts.get("mue_probes", 0)
    metrics["inference.ci_probes"] = counts.get("ci_probes", 0)
    metrics["inference.points"] = counts.get("points", 0)
    metrics["inference.points_failed"] = counts.get("points_failed", 0)
    rows = outputs.get("rows", [])
    reps = sum(r["replications"] + r["non_convergence"] for r in rows)
    metrics["simulate.nonconv_ratio"] = (
        sum(r["non_convergence"] for r in rows) / reps if reps else 0.0
    )
    attempted, failed = workload.operations(outputs, counts)
    metrics["error_rate"] = failed / attempted
    return {
        "times": [t_plain],
        "slowdowns": [slow_plain],
        "reps": 2,
        "outputs": outputs,
        "traced_identical": traced_outputs == outputs,
        "layers": metrics,
        "spans": tracer.spans(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    import metaperm as mp

    if root / "src" not in Path(mp.__file__).resolve().parents:
        print(f"metaperm was imported from {mp.__file__}, not from src/", file=sys.stderr)
        return 3
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](mp, args.seed, Path(args.workdir))
    workload.read()
    workload.warm_up()
    print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}), flush=True)
    if args.mode == "setup":
        return 0

    with SpeedProbe(workload.yardstick) as probe:
        if args.trace:
            result = _traced(workload, tracing, workloads.COVERAGE_ROWS, probe)
        else:
            result = _untraced_reps(workload, args.seconds, probe)
    result["slowdown"] = probe.slowdown()
    result["calls"] = workload.calls_per_rep * result["reps"]
    result["shift"] = [float(v) for v in workload.shift]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
