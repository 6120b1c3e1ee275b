"""One fresh process of a benchmark run: set up, then run one timed unit.

Started by run.py, never by hand. `--t0` is the parent's monotonic clock
just before it started this process, so set-up time covers interpreter
start, imports, loading inputs, building the model and the warm-up step.
The result goes to `--out` as JSON; stdout is the program's own output.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads
from probe import Probe


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True, help="directory holding the generated inputs")
    parser.add_argument("--unit", required=True, help="scratch directory for the unit's outputs")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced unit writes its spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    probe = Probe(tracing=bool(args.trace))
    # counters go in before the warm-up so its tape counts as live later
    probe.install_counters()
    state = workload.setup(args.work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        workloads.fresh_dir(args.unit)
        probe.reset()
        if args.trace:
            probe.install_spans()
        start = time.perf_counter()
        unit = workload.run(args.work, args.unit, state)
        unit_s = time.perf_counter() - start
        probe.uninstall()
        result.update({
            "unit_s": unit_s,
            "ops": unit["ops"],
            "prepare_docs": unit["prepare_docs"],
            "prepare_s": unit["prepare_s"],
            "step_ms": probe.step_ms,
            "train_docs": probe.train_docs,
            "predict_docs": probe.predict_docs,
            "predict_s": probe.predict_s,
            "counters": probe.counters(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fingerprint": workload.fingerprint(args.unit, unit),
        })
        if args.trace:
            result["layers"] = probe.layers(unit_s)
            if args.spans:
                probe.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
