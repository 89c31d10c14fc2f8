"""homoglab benchmark: runs a workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; homoglab is imported from ./src.
Closed loop, one client: the workload runs in a fresh process
(perfbench/worker.py), one at a time, each starting after the previous one
ends, until ``--seconds`` have passed and at least MIN_RUNS runs (MIN_PAIRS
pairs when traced) are done.
BLAS threads are capped at the number of usable cores.

With ``--trace 0`` the end-to-end metrics (wall_s, setup_s, peak_rss_mb)
are the medians over the untraced runs.  With ``--trace 1`` untraced and
traced runs alternate; the per-layer metrics are the medians over the
traced runs, except the *_peak_mb values, which come from one more traced
run with tracemalloc on (it would slow the spans it measures), and
trace.overhead_s is the traced minus the untraced median wall_s.  The
spans of the last traced run are kept in
.perfbench-out/<workload>-seed<N>-spans.json.

A run that exits non-zero, raises, or misses an oracle tolerance counts as
one failed operation and gives no timing.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  ``all``
runs every workload traced and untraced and prints every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER_UNITS  # noqa: E402

WORKLOAD_NAMES = ("grid_checkerboard_2d", "grid_laminate_3d", "anomalous_limit",
                  "laminate_batch")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_RUNS = 3           # untraced runs per invocation with --trace 0
MIN_PAIRS = 2          # untraced/traced pairs per invocation with --trace 1
RUN_TIMEOUT_S = 150.0  # one workload process
DEADLINE_S = 150.0     # no new run starts if it could end after this


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    cores = str(usable_cores())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def run_worker(workload: str, inputs: Path, out: Path, trace: int) -> dict:
    """One workload process; returns its report or {'errors': [...]}."""
    out.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--out", str(out), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"timed out after {RUN_TIMEOUT_S:g} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"exit code {proc.returncode}: {tail[0]}"]}
    return json.loads((out / "result.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


LABELS = {0: "untraced", 1: "traced", 2: "traced with memory peaks"}


class Measurement:
    """The runs of one workload at one seed, and what they measured."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.inputs = work / "inputs"
        self.work = work
        self.attempted = self.failed = 0
        self.runs: dict[int, list[dict]] = {mode: [] for mode in LABELS}

    def prepare(self) -> None:
        from workloads import WORKLOADS  # numpy stays out of this process until here
        self.inputs.mkdir()
        WORKLOADS[self.workload].prepare(self.seed, self.inputs)
        # Untimed import, so the timed runs find compiled bytecode and warm
        # file caches, as a user's second run would.
        subprocess.run([sys.executable, "-c", "import homoglab"], cwd=ROOT / "src",
                       env=worker_env(), check=True, timeout=RUN_TIMEOUT_S)

    def one(self, mode: int) -> None:
        self.attempted += 1
        out = self.work / f"run{self.attempted}"
        report = run_worker(self.workload, self.inputs, out, mode)
        if report["errors"]:
            self.failed += 1
            for e in report["errors"][:5]:
                print(f"  run {self.attempted} ({LABELS[mode]}) FAILED: {e}")
            shutil.rmtree(out, ignore_errors=True)
            return
        print(f"  run {self.attempted} ({LABELS[mode]}): wall_s={report['wall_s']:.4f} "
              f"setup_s={report['setup_s']:.4f} peak_rss_mb={report['peak_rss_mb']:.1f}"
              + "".join(f" {k}={v}" for k, v in report["info"].items()))
        self.runs[mode].append(report)
        if mode == 1:
            keep = ROOT / ".perfbench-out"
            keep.mkdir(exist_ok=True)
            shutil.copy(out / "spans.json",
                        keep / f"{self.workload}-seed{self.seed}-spans.json")
        shutil.rmtree(out, ignore_errors=True)

    def measure(self, trace: int) -> None:
        """Untraced runs, or untraced/traced pairs and one memory run."""
        start = time.perf_counter()
        longest = 0.0
        least = MIN_PAIRS if trace else MIN_RUNS
        for done in itertools.count():
            elapsed = time.perf_counter() - start
            if done >= least and (elapsed >= self.seconds
                                  or elapsed + longest > DEADLINE_S):
                break
            if self.failed == self.attempted > 0:
                break  # nothing works; do not spend the budget failing
            t = time.perf_counter()
            self.one(0)
            if trace:
                self.one(1)
            longest = max(longest, time.perf_counter() - t)
        if trace and self.runs[1]:
            self.one(2)

    def layer_values(self, name: str) -> list[float]:
        mode = 2 if name.endswith("_peak_mb") else 1
        return [r["layers"][name] for r in self.runs[mode]]

    def metrics(self, trace: int) -> dict:
        plain, traced = self.runs[0], self.runs[1]
        if not trace:
            return {name: {"value": statistics.median(r[name] for r in plain),
                           "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()} if plain else {}
        if not (plain and traced and self.runs[2]):
            return {}
        out = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(self.layer_values(name))
            out[name] = {"value": value, "unit": unit}
        return out

    def summary(self, trace: int) -> None:
        print(f"{self.workload} seed={self.seed}: {self.attempted} attempted, "
              f"{self.failed} failed; medians (q1, q3) over "
              + (f"{len(self.runs[1])} traced runs, peaks from {len(self.runs[2])}"
                 if trace else f"{len(self.runs[0])} untraced runs"))
        units = {n: u for n, u in PER_LAYER_UNITS.items() if n != "trace.overhead_s"} \
            if trace else END_TO_END_UNITS
        for name, unit in units.items():
            values = self.layer_values(name) if trace else [r[name] for r in self.runs[0]]
            if values:
                q1, q2, q3 = quartiles(values)
                print(f"  {name:36s} {q2:14.6g} {unit:6s} ({q1:.6g}, {q3:.6g})")


def measure(workload: str, seed: int, seconds: float, trace: int) -> Measurement:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        meas = Measurement(workload, seed, seconds, work)
        meas.prepare()
        meas.measure(trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meas.summary(trace)
    return meas


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "homoglab" / "__init__.py").is_file():
        print(f"error: no homoglab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    print(f"seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"cores={usable_cores()} python={sys.version.split()[0]}")
    if args.workload == "all":
        measurements = {(w, t): measure(w, args.seed, args.seconds, t)
                    for w in WORKLOAD_NAMES for t in (0, 1)}
        metrics = {f"{w}.{name}": m for (w, t), s in measurements.items()
                   for name, m in s.metrics(t).items()}
        result = {"correct": all(s.failed == 0 for s in measurements.values()),
                  "attempted": sum(s.attempted for s in measurements.values()),
                  "failed": sum(s.failed for s in measurements.values()),
                  "metrics": metrics}
    else:
        s = measure(args.workload, args.seed, args.seconds, args.trace)
        result = {"correct": s.failed == 0, "attempted": s.attempted,
                  "failed": s.failed, "metrics": s.metrics(args.trace)}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
