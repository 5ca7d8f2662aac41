"""fewcache benchmark: one workload, one seed, closed loop, one result line.

    python3 bench/run.py --workload desk_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Set-up runs ``SETUP_REPEATS`` times, each in a
fresh process (interpreter start, imports and input generation), half before
and half after the timed loop, and ``setup_s`` is their median. The operations then run in one more fresh process,
so ``peak_rss_mb`` is that process's high-water mark. ``--trace 1`` runs
traced and untraced operations in pairs and reports the per-layer metrics and
the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
the environment fingerprint, goes to ``bench/results/``. Exit status is 0 when
a result was produced (``correct`` says whether it is right), 1 when set-up or
the worker failed, 2 when the checkout holds no ``src/fewcache``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# One BLAS thread: on a 2-vCPU x86_64 host, 1 vs 2 OpenBLAS threads moved
# operation times by up to ~20% in either direction, so every result records
# and uses this one value.
BLAS_THREADS = 1
# Set-up runs this many times, half before the timed loop and half after it,
# so its median samples the host at both ends of the run.
SETUP_REPEATS = 8
WORKLOAD_NAMES = ("desk_sweep", "slide_eval", "coreset_sample")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}

_TIMED = (
    "trainer.train", "cache_branch.cache_loss_and_grads", "prior_branch.prior_loss_and_grads",
    "numerics.adam_step", "cache_branch.project", "sampler.kmeans", "cache_branch.retrieve",
    "dataset.read_embeddings", "fusion_eval.instance_auc", "fusion_eval.sweep_alpha",
    "fusion_eval.bag_pool", "prior_branch.prior_predict", "harness.run_single",
)
PER_LAYER = {f"{name}.{field}": unit for name in _TIMED
             for field, unit in (("calls", "count"), ("s", "s"))}
PER_LAYER.update({
    "trainer.train.self_s": "s",
    "trainer.train.steps": "count",
    "numerics.as_matrix.calls": "count",
    "sampler.sample_split.s": "s",
    "sampler.sample_split.self_s": "s",
    "sampler.select_core_set.s": "s",
    "sampler.select_core_set.self_s": "s",
    "sampler.kmeans.iters": "count",
    "sampler.kmeans.work": "count",
    "cache_branch.retrieve.rows": "count",
    "cache_branch.retrieve.attention_bytes": "B",
    "cache_branch.retrieve.rss_delta_mb": "MB",
    "dataset.load_manifest.s": "s",
    "dataset.load_manifest.self_s": "s",
    "dataset.load_manifest.bytes": "B",
    "dataset.load_manifest.rss_delta_mb": "MB",
    "harness.run_single.self_s": "s",
    "harness.write_run_record.s": "s",
    "harness.emit_report.s": "s",
    "encoders.resolve_source.s": "s",
    "trainer.restore.s": "s",
    "cli.main.s": "s",
    "trace.overhead_frac": "fraction",
})


def tail_percentile(n: int) -> float:
    """75; with 20 to 39 operations the highest percentile that leaves at
    least ten beyond it; with fewer than 20, 100 (the maximum)."""
    if n >= 40:
        return 75.0
    if n < 20:
        return 100.0
    return float(int(100.0 * (1.0 - 10.0 / n)))


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _meminfo_mb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fewcache").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": _meminfo_mb(),
        "blas_threads": BLAS_THREADS,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], timeout: float, log: Path) -> subprocess.CompletedProcess:
    """Run worker.py to completion; its stderr goes to ``log``."""
    with open(log, "w") as err:
        return subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              stdout=subprocess.PIPE, stderr=err, text=True,
                              env=_child_env(), timeout=timeout)


def _fail(message: str, log: Path | None = None) -> int:
    print(f"error: {message}", file=sys.stderr)
    if log is not None and log.exists():
        sys.stderr.write(log.read_text()[-4000:])
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fewcache benchmark (closed loop, one client)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fewcache" / "__init__.py").is_file():
        print(f"error: no src/fewcache under {ROOT}; run from a fewcache checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.size != "full":
        tag += f"_{args.size}"
    work = BENCH / ".work" / f"{tag}_{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, tag, work)
    except subprocess.TimeoutExpired as exc:
        return _fail(f"worker did not finish within {exc.timeout:g} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, tag: str, work: Path) -> int:
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setup_times, digests = [], []

    def setup(r: int) -> int:
        inputs, log = work / f"inputs{r}", work / f"setup{r}.log"
        start = time.perf_counter()
        done = _worker(["setup", *common, "--dir", str(inputs)], 60, log)
        setup_times.append(time.perf_counter() - start)
        if done.returncode != 0:
            return _fail(f"set-up exited {done.returncode}", log)
        digests.append(done.stdout.split()[-1])
        if r:
            shutil.rmtree(inputs)
        return 0

    half = SETUP_REPEATS // 2
    for r in range(half):
        if setup(r):
            return 1
    raw = work / "worker_result.json"
    spans = RESULTS / f"{tag}_spans.json.gz"
    log = work / "run.log"
    done = _worker(["run", *common, "--dir", str(work / "inputs0"),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(raw), "--spans", str(spans)],
                   args.seconds + 60, log)
    if done.returncode != 0 or not raw.exists():
        return _fail(f"worker exited {done.returncode}", log)
    worker = json.loads(raw.read_text())
    for r in range(half, SETUP_REPEATS):
        if setup(r):
            return 1

    ops = worker["ops"]
    timed = [op["wall_s"] for op in ops if not op["traced"]]
    failed = sum(bool(op["problems"]) for op in ops)
    checks = {
        "warmup_ok": not worker["warmup"]["problems"],
        "inputs_identical": len(set(digests)) == 1,
        "record_identical": worker["record_identical"],
    }
    correct = failed == 0 and checks["warmup_ok"] and checks["inputs_identical"] \
        and checks["record_identical"] is not False

    tail_p = tail_percentile(len(timed))
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(timed) / sum(timed),
        "op_s_p50": statistics.median(timed),
        "op_s_tail": percentile(timed, tail_p),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "fingerprint": {**fingerprint(), **worker["fingerprint"]},
        "correct": correct, "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops),
        "checks": checks,
        "quality": worker["quality"],
        "op_s_tail_percentile": tail_p,
        "op_count": len(timed),
        "setup_times_s": setup_times,
        "op_times_s": timed,
        "op_cpu_s": [op["cpu_s"] for op in ops if not op["traced"]],
        "failures": [op for op in ops if op["problems"]] + (
            [{"warmup": worker["warmup"]["problems"]}] if not checks["warmup_ok"] else []),
    }
    if args.trace:
        layers = worker["per_layer"]
        traced_wall = [op["wall_s"] for op in ops if op["traced"]]
        pairs = {}
        for op in ops:
            pairs.setdefault(op["index"], {})[op["traced"]] = op["wall_s"]
        overhead = statistics.median((p[True] - p[False]) / p[False] for p in pairs.values())
        layers["trace.overhead_frac"] = overhead
        result["per_layer_all"] = layers
        result["traced_op_s_mean"] = statistics.fmean(traced_wall)
        result["untraced_op_s_mean"] = statistics.fmean(timed)
        result["span_count"] = worker["span_count"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        result["end_to_end"] = end_to_end
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result["metrics"] = metrics
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    summary = ", ".join(f"{k}={v:.6g}" for k, v in worker["quality"].items())
    print(f"{args.workload} seed {args.seed}: {len(timed)} ops, tail p{tail_p:g}, "
          f"{failed}/{len(ops)} failed, {summary}, checks {checks}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
