#!/usr/bin/env python3
"""hanst benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload tagstudy-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

The run writes its inputs from --seed, then starts fresh worker processes
one at a time (see worker.py). Each worker sets up and runs one timed unit,
until the units add up to --seconds and at least three set-ups were timed.
With --trace 1 the workers alternate untraced and traced units; the traced
ones give the per-layer metrics and the difference is the tracing overhead.

Everything the run leaves goes to .perfbench/ at the repository root. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")

DEFAULT_SEED = 1
# references exist for this seed too; re-check a gain on it before claiming it
HELD_OUT_SEED = 2
MIN_SETUPS = 3
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0
REL_TOL = 1e-6

# (name, unit, better); the untraced run reports END_TO_END, the traced run LAYERS
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]
# printed and saved with each untraced run; not every workload has them
PHASES = [
    ("prepare_docs_per_s", "docs/s", "higher"),
    ("train_docs_per_s", "docs/s", "higher"),
    ("train_step_ms_p50", "ms", "lower"),
    ("train_step_ms_tail", "ms", "lower"),
    ("predict_docs_per_s", "docs/s", "higher"),
    ("failed_ratio", "ratio", "lower"),
]
LAYERS = [
    ("autodiff.tape_nodes_per_step", "count", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.adam_step.s", "s", "lower"),
    ("autodiff.tape_mib_per_step", "MiB", "lower"),
    ("autodiff.live_tapes_at_step_start", "count", "lower"),
    ("models.word_bilstm.fwd_s", "s", "lower"),
    ("models.word_attn.fwd_s", "s", "lower"),
    ("models.sent_bilstm.fwd_s", "s", "lower"),
    ("models.sent_attn.fwd_s", "s", "lower"),
    ("models.forward.s", "s", "lower"),
    ("models.token_fill", "ratio", "higher"),
    ("models.sentence_fill", "ratio", "higher"),
    ("models.pad_batch.s", "s", "lower"),
    ("models.save_checkpoint.s", "s", "lower"),
    ("models.load_checkpoint.s", "s", "lower"),
    ("models.checkpoint_bytes", "bytes", "lower"),
    ("training.train_epoch.s", "s", "lower"),
    ("training.predict.s", "s", "lower"),
    ("training.make_batches.s", "s", "lower"),
    ("training.resample_balanced.s", "s", "lower"),
    ("training.steps", "count", "higher"),
    ("textprep.segment_sentences.s", "s", "lower"),
    ("textprep.segment_sentences.chars_in", "count", "lower"),
    ("textprep.chars_kept_ratio", "ratio", "higher"),
    ("textprep.tokenize.s", "s", "lower"),
    ("textprep.encode_document.s", "s", "lower"),
    ("textprep.build_vocabulary.s", "s", "lower"),
    ("corpus.load_corpus.s", "s", "lower"),
    ("corpus.bytes_read", "bytes", "lower"),
    ("evalstats.vote_aggregate.s", "s", "lower"),
    ("evalstats.mcnemar_exact.s", "s", "lower"),
    ("evalstats.save_predictions.s", "s", "lower"),
    ("cli.cmd_prepare.s", "s", "lower"),
    ("cli.cmd_train.s", "s", "lower"),
    ("cli.cmd_evaluate.s", "s", "lower"),
    ("cli.cmd_significance.s", "s", "lower"),
    ("cli.write_prepared.s", "s", "lower"),
    ("cli.load_prepared.s", "s", "lower"),
    ("cli.prepared_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.untraced_share", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def source_sha256() -> str:
    """Hash of the program and benchmark sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "hanst"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if not os.path.exists(path):
            return ref
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "commit": commit(),
        "source_sha256": source_sha256(),
    }


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

def spawn(name: str, work: str, trace: int, setup_only: bool, index: int) -> dict:
    out = os.path.join(OUT, "workers", f"{name}-{index}.json")
    spans = os.path.join(OUT, "traces", f"{name}-unit{index}.json")
    for path in (out, spans):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.exists(path):
            os.unlink(path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--work", work, "--unit", os.path.join(work, "unit"), "--trace", str(trace),
           "--spans", spans, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    # string hashing order changes how many objects imports allocate, which
    # moves the cyclic collector and with it the live-tape count: pin it
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    with open(os.path.join(OUT, f"{name}.log"), "a", encoding="utf-8") as log:
        log.write(f"--- worker {index} trace={trace} setup_only={setup_only}\n")
        log.flush()
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=log, stderr=log, env=env,
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"worker exited {proc.returncode}; see {os.path.join(OUT, name + '.log')}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["trace"] = trace
    result["elapsed_s"] = time.monotonic() - t0
    return result


def run_workers(name: str, work: str, seconds: float, trace: int) -> tuple[list, list]:
    """Units (untraced first, then alternating when tracing) and set-up times."""
    units, setups = [], []
    start = time.monotonic()
    slowest = 0.0
    while True:
        traced = [u for u in units if u["trace"]]
        untraced = [u for u in units if not u["trace"]]
        measured = sum(u["unit_s"] for u in (traced if trace else untraced))
        want_unit = measured < seconds or (trace and len(traced) < len(untraced))
        if not want_unit and len(setups) >= MIN_SETUPS:
            break
        if units and time.monotonic() - start + slowest > RUN_LIMIT_S:
            if not trace or len(traced) == len(untraced):
                break
        mode = 1 if trace and len(traced) < len(untraced) else 0
        result = spawn(name, work, mode, not want_unit, len(setups))
        slowest = max(slowest, result["elapsed_s"])
        setups.append(result["setup_s"])
        if want_unit:
            units.append(result)
    return units, setups


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def same(a, b) -> bool:
    """Exact for strings, ints and bools; floats within REL_TOL relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or not all(
                isinstance(x, (int, float)) for x in (a, b)):
            return False
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def check_ops(units: list, reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons). An op fails if it raised, exited
    non-zero, missed its own check, or its outputs differ from the stored
    reference or from the run's first unit."""
    attempted = failed = 0
    reasons = []
    first = units[0]["fingerprint"]
    for i, unit in enumerate(units):
        for op, status in unit["ops"].items():
            attempted += status["n"]
            got = unit["fingerprint"].get(op)
            why = None
            if not status["ok"]:
                why = "failed or missed its output check"
            elif reference is not None and op in reference and not same(got, reference[op]):
                why = "differs from the stored reference"
            elif op in first and not same(got, first[op]):
                why = "differs from the run's first unit"
            if why:
                failed += status["n"]
                reasons.append(f"unit {i} {op}: {why}")
    return attempted, failed, reasons


def counter_drift(name: str, seed: int, units: list) -> list[str]:
    """The exact counters must repeat across units and across runs of the
    same sources, per tracing mode (tracing allocates, which moves the
    cyclic collector and so the live-tape count)."""
    drift = []
    path = os.path.join(OUT, "counters.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    code = source_sha256()
    for trace in (0, 1):
        group = [u["counters"] for u in units if u["trace"] == trace]
        if not group:
            continue
        key = f"{name}|seed={seed}|trace={trace}|{code}"
        expected = seen.setdefault(key, group[0])
        for counters in group:
            if counters != expected:
                drift.append(f"trace={trace}: counters {counters} != {expected}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return drift


def load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def phase_metrics(units: list, attempted: int, failed: int) -> dict:
    steps = [ms for u in units for ms in u["step_ms"]]
    prepare_s = sum(u["prepare_s"] for u in units)
    predict_s = sum(u["predict_s"] for u in units)
    out = {"failed_ratio": failed / attempted}
    if prepare_s:
        out["prepare_docs_per_s"] = sum(u["prepare_docs"] for u in units) / prepare_s
    if steps:
        out["train_docs_per_s"] = sum(u["train_docs"] for u in units) / (sum(steps) / 1000.0)
        out["train_step_ms_p50"] = stats.median(steps)
        tail = stats.tail(steps)
        if tail:
            out["train_step_ms_tail"] = tail[0]
            out["train_step_ms_tail_percentile"] = tail[1]
            out["train_step_ms_tail_steps"] = tail[2]
    if predict_s:
        out["predict_docs_per_s"] = sum(u["predict_docs"] for u in units) / predict_s
    return out


def layer_metrics(units: list) -> dict:
    traced = [u for u in units if u["trace"]]
    untraced = [u for u in units if not u["trace"]]
    out = {name: stats.median([u["layers"][name] for u in traced])
           for name, _, _ in LAYERS if name in traced[0]["layers"]}
    out["trace.overhead_s"] = (stats.median([u["unit_s"] for u in traced])
                               - stats.median([u["unit_s"] for u in untraced]))
    # tracing allocates, which moves the cyclic collector: the exact counters
    # come from the untraced units
    out.update(untraced[0]["counters"])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, record: bool) -> int:
    workload = workloads.WORKLOADS[name]
    work = workloads.fresh_dir(os.path.join(OUT, "work", name))
    open(os.path.join(OUT, f"{name}.log"), "w", encoding="utf-8").close()
    start = time.monotonic()
    workload.generate(seed, work)
    generate_s = time.monotonic() - start
    try:
        units, setups = run_workers(name, work, seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1

    references = load_references()
    reference = None if record else references.get(name, {}).get(str(seed))
    attempted, failed, reasons = check_ops(units, reference)
    drift = counter_drift(name, seed, units)
    untraced = [u for u in units if not u["trace"]]
    end_to_end = {
        "setup_s": stats.median(setups),
        "wall_s": stats.median([u["unit_s"] for u in untraced]),
        "peak_rss_mib": stats.median([u["peak_rss_mib"] for u in untraced]),
    }
    phases = phase_metrics(untraced, attempted, failed)
    layers = layer_metrics(units) if trace else {}
    record_doc = {
        "workload": name, "seed": seed, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": seconds, "trace": trace,
        "machine": machine(), "generate_s": generate_s, "setup_samples_s": setups,
        "end_to_end": end_to_end, "phases": phases, "layers": layers,
        "counters": untraced[0]["counters"], "reference_checked": reference is not None,
        "failures": reasons, "counter_drift": drift,
        "units": [{k: v for k, v in u.items() if k not in ("fingerprint", "step_ms")}
                  for u in units],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record_doc, fh, indent=1, sort_keys=True)

    if record and not reasons and not drift:
        references.setdefault(name, {})[str(seed)] = units[0]["fingerprint"]
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print_report(record_doc, units)
    for line in reasons + drift:
        print(f"  CHECK FAILED: {line}")
    shown = layers if trace else end_to_end
    metrics = {n: {"value": shown[n], "unit": u} for n, u, _ in (LAYERS if trace else END_TO_END)}
    print(json.dumps({"correct": failed == 0 and not drift, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_report(doc: dict, units: list) -> None:
    m = doc["machine"]
    print(f"== {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
          f"units {len(units)}  set-ups {len(doc['setup_samples_s'])}  "
          f"reference {'checked' if doc['reference_checked'] else 'none for this seed'}")
    print(f"   machine: nproc={m['nproc']} cpu={m['cpu']!r} mem={m['mem_total_gib']:.1f}GiB "
          f"python={m['python']} numpy={m['numpy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']} commit={m['commit'][:12]}")
    rows = [(n, doc["end_to_end"][n], u, b) for n, u, b in END_TO_END]
    rows += [(n, doc["phases"].get(n), u, b) for n, u, b in PHASES]
    if doc["trace"]:
        rows += [(n, doc["layers"].get(n), u, b) for n, u, b in LAYERS]
    for name, value, unit, better in rows:
        shown = "n/a (not in this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"   {name:<38} {shown:<30} {better} is better")
    tail = doc["phases"].get("train_step_ms_tail_percentile")
    if tail is not None:
        print(f"   (train_step_ms_tail is p{tail:.2f} of "
              f"{doc['phases']['train_step_ms_tail_steps']} steps)")
    print(f"   counters: {json.dumps(doc['counters'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["all", "tagstudy-small", "han-paper", "prepare-long"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed unit seconds to gather (at least one unit runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.exists(os.path.join(SRC, "hanst", "__init__.py")):
        print(f"error: no hanst sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    names = ["tagstudy-small", "han-paper", "prepare-long"] if args.workload == "all" \
        else [args.workload]
    code = 0
    for name in names:
        code |= run_workload(name, args.seed, args.seconds, args.trace, args.record_reference)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
