"""copysampler's benchmark: one sweep workload per run.

    python3 perfbench/run.py --workload circles-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  With `--trace 0` it runs the workload's
sweep as a user does, `copysampler run` in a fresh child process, until
`--seconds` of sweeping have passed (at least once), and takes fresh-process
set-up samples before and after.  With `--trace 1` it runs the same untraced
sweeps and then one traced sweep in process (`perfbench/traced.py`).  Every
sweep's outputs are checked.  The last line of standard output is one JSON
object with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`) that BENCHMARK.json names.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child: unpinned OpenBLAS
# threads oversubscribe a small machine and make CPU time exceed wall time.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / ".work"
# A run must end within 180 s.  A sweep still going SWEEP_LIMIT_S into the
# run is killed and counts as entirely failed; the set-up samples after it
# get the time up to RUN_LIMIT_S.
SWEEP_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 9


class Child:
    """A child process in its own session, so a kill reaches its children too."""

    def __init__(self, argv, log: Path, env):
        self.killed = False
        self.start = time.perf_counter()
        with log.open("wb") as out:
            self.proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                                         start_new_session=True)

    def _time_out(self):
        self.killed = True
        self._kill_group()

    def _kill_group(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, deadline: float):
        """Wall seconds, rusage and exit status; killed once `deadline` passes."""
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self._time_out)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        # anything left in the session (say, an oracle server) goes too
        self._kill_group()
        for _ in range(100):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return wall, usage, self.proc.returncode


def machine_probe() -> dict:
    """Seconds for a fixed numpy kernel and a fixed pure-Python loop (median of 3)."""
    import numpy as np

    def numpy_kernel():
        a = np.arange(200_000, dtype=np.float64)
        for _ in range(20):
            a = np.sqrt(a * a + 1.0)
        return float(a[-1])

    def python_kernel():
        return sum(i * i % 7 for i in range(300_000))

    probe = {}
    for name, kernel in (("numpy_s", numpy_kernel), ("python_s", python_kernel)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        probe[name] = statistics.median(times)
    return probe


def digest(out: Path) -> dict:
    """sha256 of every dataset file, and of report.csv without wall_time_s."""
    files = sorted((out / "datasets").glob("*")) + sorted((out / "reference").glob("*"))
    found = {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
             for p in files}
    with (out / "report.csv").open(newline="") as f:
        rows = list(csv.reader(f))
    drop = rows[0].index("wall_time_s")
    report = "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows)
    found["report.csv"] = hashlib.sha256(report.encode()).hexdigest()
    return found


def check_outputs(out: Path, config: Path, code: int, killed: bool):
    """(attempted, failed, problems) of one sweep directory."""
    datasets, cells = workloads.expected_tasks(config)
    attempted = len(datasets) + len(cells)
    if killed:
        return attempted, attempted, [f"killed at the {SWEEP_LIMIT_S:.0f} s sweep limit"]
    problems = [] if code == 0 else [f"exit code {code}"]
    missing = [d for d in datasets if not (out / "datasets" / f"{d}.csv").exists()]
    missing += [c for c in cells if not (out / "cells" /
                f"{c[0]}__{c[1]}__n{c[2]}__r{c[3]:02d}.csv").exists()]
    if missing:
        problems.append(f"{len(missing)} task outputs missing, e.g. {missing[0]}")
    report = out / "report.csv"
    if not report.exists():
        return attempted, attempted, problems + ["no report.csv"]
    with report.open(newline="") as f:
        rows = [(r["method"], r["arch"], int(r["N"])) for r in csv.DictReader(f)]
    wanted = sorted((m, a, n) for m, a, n, _ in cells)
    if sorted(rows) != wanted:
        problems.append("report.csv does not hold one row per (method, arch, N, rep)")
    meta = out / "reference" / "reference.meta.json"
    if not meta.exists() or not json.loads(meta.read_text())["metadata"].get("complete"):
        problems.append("reference set is not complete")
    return attempted, len(missing), problems


def sweep_stats(out: Path) -> dict:
    """queries_per_sample and r_fb_mean of a finished sweep directory."""
    sides = layers.sidecars(out) + [layers.reference_sidecar(out)]
    queries = sum(s["query_count"] for s in sides)
    kept = sum(s["rows"] for s in sides)
    with (out / "report.csv").open(newline="") as f:
        r_fb = [float(r["R_Fb"]) for r in csv.DictReader(f)]
    return {"queries_per_sample": queries / kept, "r_fb_mean": sum(r_fb) / len(r_fb)}


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        t0 = time.perf_counter()
        self.sweep_deadline = t0 + SWEEP_LIMIT_S
        self.deadline = t0 + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        tag = f"{args.workload}-seed{args.seed}"
        self.scratch = WORK / "runs" / f"{tag}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.config = workloads.prepare(args.workload, args.seed, WORK / "inputs" / tag)
        self.digest_path = WORK / "digests" / f"{tag}.json"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sweeps: list[dict] = []
        self.setups: list[float] = []

    def _child(self, name: str, argv) -> Child:
        return Child([sys.executable, *argv], self.scratch / f"{name}.log", self.env)

    def setup_sample(self):
        child = self._child("setup", [str(HERE / "setup_probe.py"), str(self.config)])
        wall, _, code = child.wait(self.deadline)
        if code != 0:
            self.problems.append(f"set-up probe exited with {code}")
        self.setups.append(wall)

    def sweep(self, traced: bool = False, spans: Path | None = None) -> dict:
        out = self.scratch / f"out{len(self.sweeps)}"
        run_args = ["--config", str(self.config), "--out", str(out),
                    "--seed", str(self.args.seed), "--workers", "1"]
        argv = ([str(HERE / "traced.py"), str(spans), *run_args] if traced
                else ["-m", "copysampler.cli", "run", *run_args])
        child = self._child(out.name, argv)
        wall, usage, code = child.wait(self.sweep_deadline)
        killed = child.killed
        attempted, failed, problems = check_outputs(out, self.config, code, killed)
        self.attempted += attempted
        self.failed += failed
        record = {"traced": traced, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024, "exit_code": code, "killed": killed,
                  "attempted": attempted, "failed": failed, "out": out}
        if not problems:
            record.update(sweep_stats(out))
            problems = self._compare_digest(digest(out))
        self.problems += [f"{'traced ' if traced else ''}sweep: {p}" for p in problems]
        self.sweeps.append(record)
        return record

    def _compare_digest(self, found: dict) -> list[str]:
        """Every run of one seed must write the same bytes."""
        if not self.digest_path.exists():
            self.digest_path.parent.mkdir(parents=True, exist_ok=True)
            self.digest_path.write_text(json.dumps(found, indent=1, sort_keys=True))
            return []
        known = json.loads(self.digest_path.read_text())
        changed = sorted(k for k in known.keys() | found.keys() if known.get(k) != found.get(k))
        return [f"outputs differ from an earlier run of this seed: {changed[:3]}"] if changed else []

    def untraced_sweeps(self):
        swept = 0.0
        while True:
            record = self.sweep()
            swept += record["wall_s"]
            if record["killed"] or swept >= self.args.seconds:
                return
            # start another sweep only if it can finish before the sweep limit
            if time.perf_counter() + 1.5 * record["wall_s"] > self.sweep_deadline:
                return

    def traced_sweep(self) -> dict:
        """Per-layer metrics of one traced sweep; its spans stay in WORK/traces."""
        spans = WORK / "traces" / f"{self.args.workload}-seed{self.args.seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
        untraced = statistics.median([s["wall_s"] for s in self.sweeps])
        traced = self.sweep(traced=True, spans=spans)
        if traced["killed"] or not spans.exists():
            return {}
        return layers.layer_metrics(spans, traced["out"], traced["wall_s"], untraced,
                                    traced["failed"])

    def end_to_end(self) -> dict:
        """Medians over the run's untraced sweeps and set-up samples."""
        finished = [s for s in self.sweeps if "r_fb_mean" in s]
        first = finished[0] if finished else {"queries_per_sample": 0.0, "r_fb_mean": 1.0}
        return {
            "sweep_s": statistics.median([s["wall_s"] for s in self.sweeps]),
            "cpu_s": statistics.median([s["cpu_s"] for s in self.sweeps]),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in self.sweeps]),
            "queries_per_sample": first["queries_per_sample"],
            "r_fb_mean": first["r_fb_mean"],
            # Laplace's rule of succession: never 0, and one failed task in
            # a hundred doubles it
            "failed_frac": (self.failed + 1) / (self.attempted + 2),
        }

    def cleanup(self):
        for s in self.sweeps:
            shutil.rmtree(s.pop("out"), ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/copysampler/cli.py", "configs/toy-circles.ini", "BENCHMARK.json"):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the root of a copysampler "
                  "checkout", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(args, root)
    probe = machine_probe()
    if args.trace:
        run.untraced_sweeps()
        metrics = {} if run.sweeps[-1]["killed"] else run.traced_sweep()
    else:
        half = SETUP_SAMPLES // 2
        for _ in range(SETUP_SAMPLES - half):
            run.setup_sample()
        run.untraced_sweeps()
        for _ in range(half):
            run.setup_sample()
        metrics = run.end_to_end()
    run.cleanup()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing[:5]}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": BLAS_THREADS, "machine_probe": probe,
              "setup_samples_s": run.setups, "sweeps": run.sweeps,
              "problems": run.problems, "result": result}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1))
    shutil.rmtree(run.scratch, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(run.sweeps)} sweep(s), "
          f"{len(run.setups)} set-up sample(s); machine probe numpy "
          f"{probe['numpy_s'] * 1e3:.1f} ms, python {probe['python_s'] * 1e3:.1f} ms")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in result["metrics"].items():
        print(f"  {name:44s} {value['value']:14.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
