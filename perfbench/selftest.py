"""Self-test of the benchmark: exact counters and fingerprints repeat.

Runs ``run.py --trace 1`` twice per workload with one seed, each in its own
process, and requires every ``count`` metric and the simulated fingerprint
to be identical across the two.  It also checks that ``BENCHMARK.json``
names exactly the metrics the code reports.  From the root of a checkout::

    python3 perfbench/selftest.py                       # heating-season
    python3 perfbench/selftest.py --workload churn-sweep --seed 101

twin-serve is refused: its injects land at simulated times set by the
host's speed, so its simulated counts differ between runs by design.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, Tuple

from layers import PER_LAYER
from run import END_TO_END


def check_manifest() -> bool:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    declared = [(m["name"], m["unit"], m["better"])
                for m in manifest["per_layer"]]
    e2e = [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
    ok = declared == PER_LAYER and e2e == list(END_TO_END)
    print(f"manifest matches the reported metrics: {ok}")
    return ok


def traced_run(workload: str, seed: int) -> Tuple[Dict[str, float], str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run failed its checks:\n{proc.stdout}")
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] == "count"}
    fingerprint = next(ln for ln in lines if ln.startswith("fingerprint: "))
    return counts, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="heating-season",
                        choices=("heating-season", "churn-sweep",
                                 "baseline-worlds"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = check_manifest()
    (c1, f1), (c2, f2) = (traced_run(args.workload, args.seed)
                          for _ in range(2))
    differing = sorted(k for k in c1 if c1[k] != c2.get(k))
    print(f"{args.workload} seed {args.seed}: {len(c1)} counters, "
          f"differing: {differing or 'none'}; "
          f"fingerprint repeats: {f1 == f2}")
    ok = ok and not differing and f1 == f2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
