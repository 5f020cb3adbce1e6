"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workloads circles-sweep ...]

Runs `perfbench/run.py --trace 0` once per seed on every workload, going
round-robin over the workloads within each seed so a slow spell of the host
spreads over all of them, after one discarded warm-up run per workload.
Prints, per workload and metric, the median and the quartile spread
(Q3 - Q1) / median, and flags a spread above a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return result


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    for workload in args.workloads:  # warm-up, discarded
        run_once(workload, args.first_seed + args.seeds, seconds)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            result = run_once(workload, seed, seconds)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, metrics in values.items():
        print(f"\n{workload}")
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above a third of the bound"
                steady = False
            print(f"  {name:20s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}{flag}")
    print(json.dumps(values), file=sys.stderr)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
