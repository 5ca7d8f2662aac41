"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Runs every workload once untraced and once traced and checks that:

* the result line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``; every operation passed its output check (``failed_frac`` 0);
* the metrics are exactly the ones BENCHMARK.json names, each with its unit;
* the traced per-layer self times sum to the traced operation's wall time
  within the measured tracing overhead;
* each layer the prediction table ties to a workload was exercised there, and
  the layers it says a workload bypasses were not called;
* in a directory holding only BENCHMARK.json and ``bench/``, the benchmark
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Layers each workload must exercise (nonzero), and layers it must bypass.
EXERCISED = {
    "desk_sweep": [
        "trainer.train.calls", "trainer.train.steps", "cache_branch.cache_loss_and_grads.calls",
        "prior_branch.prior_loss_and_grads.calls", "numerics.adam_step.calls",
        "cache_branch.project.calls", "numerics.as_matrix.calls", "sampler.sample_split.s",
        "sampler.kmeans.calls", "sampler.kmeans.iters", "sampler.kmeans.work",
        "cache_branch.retrieve.calls", "cache_branch.retrieve.attention_bytes",
        "fusion_eval.sweep_alpha.calls", "fusion_eval.instance_auc.calls",
        "fusion_eval.bag_pool.calls", "prior_branch.prior_predict.calls",
        "harness.run_single.calls", "harness.write_run_record.s", "harness.emit_report.s",
        "encoders.resolve_source.s",
    ],
    "slide_eval": [
        "cache_branch.retrieve.calls", "cache_branch.retrieve.rows",
        "cache_branch.retrieve.attention_bytes", "dataset.load_manifest.s",
        "dataset.load_manifest.bytes", "dataset.read_embeddings.calls",
        "fusion_eval.instance_auc.calls", "fusion_eval.bag_pool.calls",
        "prior_branch.prior_predict.calls", "trainer.restore.s",
    ],
    "coreset_sample": [
        "sampler.sample_split.s", "sampler.select_core_set.s", "sampler.kmeans.calls",
        "sampler.kmeans.iters", "sampler.kmeans.work", "dataset.load_manifest.bytes",
        "dataset.read_embeddings.calls",
    ],
}
BYPASSED = {
    "desk_sweep": ["trainer.restore.s"],
    "slide_eval": ["trainer.train.calls", "sampler.kmeans.calls", "fusion_eval.sweep_alpha.calls"],
    "coreset_sample": ["trainer.train.calls", "cache_branch.retrieve.calls",
                       "fusion_eval.instance_auc.calls"],
}


def _bench(cwd: Path, workload: str, trace: int, size: str = "tiny") -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace)]
    if size:
        cmd += ["--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    for workload in EXERCISED:
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            done = _bench(ROOT, workload, trace)
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            line = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(line) == ["attempted", "correct", "failed", "metrics"],
                   f"{where}: result keys {sorted(line)}")
            expect(line["correct"] is True, f"{where}: not correct: {done.stderr[-2000:]}")
            expect(line["failed"] == 0 and line["attempted"] >= 1,
                   f"{where}: {line['failed']} of {line['attempted']} failed")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == units[trace], f"{where}: metrics/units differ from BENCHMARK.json: "
                   f"{sorted(set(got.items()) ^ set(units[trace].items()))}")
            expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{where}: a metric value is not a number")

            result = json.loads((BENCH / "results" / f"{workload}_seed1_trace{trace}_tiny.json")
                                .read_text())
            expect(result["failed_frac"] == 0, f"{where}: failed_frac {result['failed_frac']}")
            expect(set(result["fingerprint"]) >= {"git_sha", "python", "numpy", "blas_vendor",
                                                  "blas_threads", "nproc", "mem_total_mb"},
                   f"{where}: fingerprint incomplete: {sorted(result['fingerprint'])}")
            if trace == 0:
                expect(line["metrics"]["setup_s"]["value"] > 0, f"{where}: setup_s is 0")
                continue
            layers = result["per_layer_all"]
            self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            wall = result["traced_op_s_mean"]
            overhead = abs(wall - result["untraced_op_s_mean"])
            expect(abs(wall - self_sum) <= max(overhead, 1e-3),
                   f"{where}: self times sum to {self_sum:.6f} s, traced op wall {wall:.6f} s, "
                   f"overhead {overhead:.6f} s")
            for name in EXERCISED[workload]:
                expect(line["metrics"][name]["value"] > 0, f"{where}: {name} is 0")
            for name in BYPASSED[workload]:
                expect(line["metrics"][name]["value"] == 0, f"{where}: {name} is nonzero")

    bare = BENCH / ".work" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results",
                                                                         "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _bench(bare, "desk_sweep", 0, size="")
    shutil.rmtree(bare, ignore_errors=True)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    expect(done.returncode != 0 and not last.startswith("{"),
           f"bare directory: exit {done.returncode}, stdout {done.stdout[-300:]!r}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
