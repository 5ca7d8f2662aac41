"""Child process of ``run.py``: sets up inputs, or runs one workload's closed loop.

    worker.py setup --workload W --seed N --size S --dir D
        write the workload's inputs into D; print their digest
    worker.py run --workload W --seed N --size S --dir D --seconds T --trace 0|1
                  --result R [--spans P]
        one warm-up operation, then operations back to back for T seconds;
        write op times, output checks, peak RSS and (traced) the per-layer
        summary to R as JSON
    worker.py reference --size S
        run every pool seed once and write the outputs to reference.json

``fewcache`` is imported from ``src/`` of the checkout (``run.py`` sets
PYTHONPATH and pins the BLAS threads before this process starts).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import SEED_POOL, SIZES, WORKLOADS, inputs_digest, op_seed

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"


def numpy_fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas_vendor": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown")}


def cmd_setup(args) -> int:
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload](args.size, directory).setup(args.seed)
    print(inputs_digest(directory))
    return 0


def _attempt(workload, reference, run_seed, seed, tracer=None, index=-1) -> dict:
    """Run one operation; time only the call into the program."""
    if tracer is not None:
        tracer.op = index
        tracer.install()
    problems = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = workload.run_op(seed)
    except Exception as exc:  # an operation that raises counts as failed
        code = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
    quality = None
    if code not in (0, None):
        problems.append(f"exit code {code}")
    if not problems:
        try:
            quality = workload.quality(seed)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    if not problems:
        want = reference.get(workload.reference_key(run_seed, seed))
        problems += workload.check(quality, want) if want else [f"no reference for seed {seed}"]
    return {"index": index, "seed": seed, "traced": tracer is not None, "wall_s": wall,
            "cpu_s": cpu, "problems": problems, "quality": quality}


def cmd_run(args) -> int:
    workload = WORKLOADS[args.workload](args.size, Path(args.dir))
    os.chdir(workload.dir)
    workload.prepare()
    with open(REFERENCE) as f:
        reference = json.load(f)[args.size][args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    warmup = _attempt(workload, reference, args.seed, op_seed(args.seed, 0))
    first_record = workload.record_bytes() if hasattr(workload, "record_bytes") else None
    record_identical = None

    ops = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        seed = op_seed(args.seed, index)
        if tracer is None:
            ops.append(_attempt(workload, reference, args.seed, seed, index=index))
        else:
            # Same seed untraced and traced, alternating which goes first.
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            for t in order:
                ops.append(_attempt(workload, reference, args.seed, seed, t, index))
        if index == 0 and first_record is not None:
            # Acceptance criterion 8: a rerun at the same seed writes the
            # same record.json bytes.
            record_identical = workload.record_bytes() == first_record
        index += 1

    headline = {}
    good = [op["quality"] for op in ops if not op["problems"]]
    if good:
        figures = [type(workload).headline(q) for q in good]
        headline = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    result = {
        "fingerprint": numpy_fingerprint(),
        "warmup": {"wall_s": warmup["wall_s"], "problems": warmup["problems"]},
        "ops": [{k: v for k, v in op.items() if k != "quality"} for op in ops],
        "record_identical": record_identical,
        "quality": headline,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.close()
        n_traced = sum(op["traced"] for op in ops)
        result["per_layer"] = tracer.summary(n_traced)
        result["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    return 0


def cmd_reference(args) -> int:
    """Record each pool seed's output; run on the seed commit only."""
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc["pool"] = SEED_POOL
    doc[args.size] = {}
    scratch = BENCH / ".work" / "reference"
    home = Path.cwd()
    for name, cls in WORKLOADS.items():
        entries = {}
        for seed in range(SEED_POOL):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            workload = cls(args.size, scratch)
            workload.setup(seed)
            os.chdir(scratch)
            workload.prepare()
            code = workload.run_op(seed)
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: exit code {code}")
            quality = workload.quality(seed)
            if quality.pop("split_problems", []) or not quality.pop("report_written", True):
                raise SystemExit(f"{name} seed {seed}: output fails its check")
            entries[workload.reference_key(seed, seed)] = quality
            os.chdir(home)
        doc[args.size][name] = entries
        print(f"{args.size} {name}: {len(entries)} references", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run", "reference"):
        p = sub.add_parser(mode)
        p.add_argument("--size", choices=sorted(SIZES), default="full")
        if mode == "reference":
            continue
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--result", required=True)
            p.add_argument("--spans", default=None)
    args = parser.parse_args()
    return {"setup": cmd_setup, "run": cmd_run, "reference": cmd_reference}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
