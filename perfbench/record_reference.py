"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs each workload's body once on its base problem (zero shift) with
the package under src/ and writes perfbench/reference.json. Run it only
at a commit whose outputs are known to be right; a later change that
alters an output on purpose says so and records the file again.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import metaperm

    import workloads

    workdir = ROOT / ".perfbench_run"
    workdir.mkdir(exist_ok=True)
    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(metaperm, None, workdir)
        workload.prepare()
        workload.read()
        outputs, _ = workload.body(lambda _name: nullcontext())
        recorded[name] = json.loads(json.dumps(outputs))
        print(f"recorded {name}", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    ).stdout.strip()
    payload = {"recorded_at_commit": commit or None, "workloads": recorded}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
