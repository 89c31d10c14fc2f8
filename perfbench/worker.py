"""One workload run in a fresh process, started by run.py.

    python3 perfbench/worker.py --workload NAME --inputs DIR --out DIR --trace 0|1|2

``import homoglab`` is the first import that loads numpy, so the import
time (``setup_s``) includes everything homoglab pulls in.  ``wall_s`` is
that import plus the time from the first call into homoglab to the return
of the last one; loading inputs between the two is not counted.  The
result, including oracle failures, is written to ``DIR/result.json``.
``--trace 1`` records spans (to ``DIR/spans.json``) and the per-layer
metrics; ``--trace 2`` also measures the memory peaks inside spans.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (standard library only)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))

    t0 = time.perf_counter()
    import homoglab as hg
    setup_s = time.perf_counter() - t0

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    data = workload.load(args.inputs, args.out)
    recorder = tracing.Recorder(memory=args.trace == 2) if args.trace else None
    if recorder:
        recorder.install(hg)
    try:
        t1 = time.perf_counter()
        result = workload.call(hg, data)
        call_s = time.perf_counter() - t1
    finally:
        if recorder:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"wall_s": setup_s + call_s, "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb,
              "errors": workload.check(hg, data, result),
              "info": workload.info(data, result)}
    if recorder:
        artifacts = sum(p.stat().st_size for p in args.out.rglob("*")
                        if p.is_file() and p.parent != args.out)
        report["layers"] = tracing.layer_metrics(recorder.spans, artifacts)
        (args.out / "spans.json").write_text(json.dumps(recorder.spans))
    (args.out / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
