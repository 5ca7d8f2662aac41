"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py --base parent/*.json --new bench/results/*.json

Each side is a list of result files written by ``run.py`` (several seeds of
one commit). For every workload and end-to-end metric it prints the median and
quartiles of each side and the change of the medians, and flags:

    worse     the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json
    unresolved  the base side's own quartile spread is wider than the bound

Traced result files are compared as per-layer medians, without verdicts.
Refuses (exit 2) to compare results whose fingerprints differ in BLAS thread
count or nproc: the thread pin alone moves operation times by up to ~20%.
Exit status is 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ("blas_threads", "nproc")


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths if not p.endswith(".gz")]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    pins = {tuple(r["fingerprint"].get(k) for k in PINNED) for r in base + new}
    if len(pins) != 1:
        print(f"refusing to compare: {', '.join(PINNED)} differ across results: "
              f"{sorted(pins, key=str)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"== {workload}")
        for trace, section in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not b or not n:
                continue
            print(f"  {'metric':44} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} change")
            for metric in section:
                name = metric["name"]
                bq = _quartiles([r["metrics"][name]["value"] for r in b])
                nq = _quartiles([r["metrics"][name]["value"] for r in n])
                change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
                verdict = ""
                if "bound" in metric:
                    loss = change if metric["better"] == "lower" else -change
                    if bq[1] and (bq[2] - bq[0]) / bq[1] > metric["bound"]:
                        verdict = "unresolved"
                    elif loss > metric["bound"]:
                        verdict = "worse"
                        worse += 1
                print(f"  {name:44} {bq[1]:12.6g} [{bq[0]:9.4g}, {bq[2]:9.4g}]"
                      f" {nq[1]:12.6g} [{nq[0]:9.4g}, {nq[2]:9.4g}] {change:+7.1%} {verdict}")
        print(f"  runs: base {len([r for r in base if r['workload'] == workload])}, "
              f"new {len([r for r in new if r['workload'] == workload])}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
