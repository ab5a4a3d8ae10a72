"""snapnet benchmark: one run of one workload.

    python3 perfbench/run.py --workload place-e12 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run itself happens in a child
process (worker.py), so that the child's peak resident memory is the
workload's alone; this process adds it as `peak_rss_mb`.  The output is
report lines, one line per metric, and last a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main(argv: list) -> int:
    if not (ROOT / "src" / "snapnet" / "__init__.py").is_file():
        print(f"run.py: no snapnet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run.py must not leave the worker running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run.py: the run took over {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        finally:
            if child.poll() is None:
                child.kill()
    if child.returncode != 0:
        sys.stdout.write(out)
        print(f"run.py: the run failed with exit code {child.returncode}",
              file=sys.stderr)
        return child.returncode
    *report, last = out.splitlines()
    result = json.loads(last)
    if not args.trace:
        # ru_maxrss is in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": rss / 1024,
                                            "unit": "MB"}
    for line in report:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:30} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
