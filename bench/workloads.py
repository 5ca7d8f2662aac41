"""The three benchmark workloads: input set-up, one operation, its output check.

Every operation goes through the public entry point a user calls,
``fewcache.cli.main``, with a config file written at set-up. ``cli.main`` is
looked up on the module at every call so a traced run sees its wrappers.

Operation seeds come from a fixed pool of ``SEED_POOL`` values so that every
operation has a reference output recorded at the seed commit
(``reference.json``). A run with seed ``s`` starts at pool entry ``s % 16``
and walks the pool; the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from fewcache import cli
from fewcache.cache_branch import build_cache
from fewcache.dataset import SynthSpec, load_manifest, save_dataset, synth_generate
from fewcache.encoders import synthetic_prompt_features
from fewcache.prior_branch import prior_from_features
from fewcache.sampler import FewShotSpec, FewShotSplit, load_split
from fewcache.trainer import snapshot

SEED_POOL = 16

# Absolute tolerance on a macro AUC and relative tolerance on the core-set
# cost. Rank-based AUC is unmoved by last-digit float changes; a different
# core set or an early-stopped k-means moves these by more.
AUC_TOL = 0.01
COST_REL_TOL = 0.01

# The acceptance suite's NOISY source (2 classes, d=32, 16x200 instances per
# class, noise 0.6) with cache beta 20.
NOISY_SPEC = {
    "num_classes": 2, "dim": 32, "bags_per_class": 16, "instances_per_bag": 200,
    "positive_fraction": 0.2, "noise_sigma": 0.6, "seed": 0,
}

SIZES = {
    "full": {
        "desk_sweep": {"spec": NOISY_SPEC, "test_bags": 8, "bag_shots": [1, 4],
                       "instance_shot": 16, "steps": 200, "repeats": 1},
        "slide_eval": {"dim": 256, "bags_per_class": 6, "instances_per_bag": 1000,
                       "noise_sigma": 0.2, "cache_rows": 1000},
        "coreset_sample": {"dim": 64, "bags_per_class": 10, "instances_per_bag": 150,
                           "coreset_fraction": 0.1},
    },
    "tiny": {
        "desk_sweep": {"spec": dict(NOISY_SPEC, bags_per_class=4, instances_per_bag=50),
                       "test_bags": 2, "bag_shots": [1, 2], "instance_shot": 4,
                       "steps": 20, "repeats": 1},
        "slide_eval": {"dim": 32, "bags_per_class": 2, "instances_per_bag": 200,
                       "noise_sigma": 0.2, "cache_rows": 100},
        "coreset_sample": {"dim": 16, "bags_per_class": 4, "instances_per_bag": 50,
                           "coreset_fraction": 0.1},
    },
}


def op_seed(run_seed: int, index: int) -> int:
    """Pool seed of the index-th operation of a run."""
    return (run_seed + index) % SEED_POOL


def inputs_digest(directory: Path) -> str:
    """sha256 over every file set-up wrote, so repeated set-ups can be compared."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


class Workload:
    """Inputs live in ``directory``; operations run with it as working directory."""

    name = ""

    def __init__(self, size: str, directory: Path):
        self.size = size
        self.cfg = SIZES[size][self.name]
        self.dir = Path(directory)

    def setup(self, run_seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Load what the output check needs, before the timed loop."""

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def run_op(self, seed: int) -> int:
        return cli.main(self.argv(seed))

    def reference_key(self, run_seed: int, seed: int) -> str:
        """Which reference entry an operation is checked against."""
        return str(seed)

    def quality(self, seed: int) -> dict:
        """Quality figures of the operation just run, read from its output files."""
        raise NotImplementedError

    def check(self, quality: dict, reference: dict) -> list[str]:
        """Problems with an operation's output; empty when it is correct."""
        raise NotImplementedError


def _auc_problems(got: dict, want: dict, keys) -> list[str]:
    problems = []
    for key in keys:
        if got.get(key) is None or abs(got[key] - want[key]) > AUC_TOL:
            problems.append(f"{key} {got.get(key)} vs reference {want[key]} (tol {AUC_TOL})")
    return problems


class DeskSweep(Workload):
    """``fewcache sweep`` on the NOISY source: sample, train, tune, evaluate, report."""

    name = "desk_sweep"

    def setup(self, run_seed: int) -> None:
        c = self.cfg
        _write_json(self.dir / "sweep.json", {
            "source": {"kind": "synthetic", "spec": c["spec"],
                       "test_bags_per_class": c["test_bags"],
                       "prompt_sigma": 0.45, "prompt_seed": 1},
            "bag_shots": c["bag_shots"],
            "instance_shots": [c["instance_shot"]],
            "train": {"steps": c["steps"]},
            "cache_beta": 20.0,
            "repeats": c["repeats"],
        })

    def argv(self, seed: int) -> list[str]:
        return ["sweep", "--config", "sweep.json", "--seed", str(seed), "--out", "out"]

    def record_bytes(self) -> bytes:
        return (self.dir / "out" / "record.json").read_bytes()

    def quality(self, seed: int) -> dict:
        record = json.loads(self.record_bytes())
        cells = {}
        for cell in record["cells"]:
            agg = cell["aggregates"]
            cells[str(cell["bag_shot"])] = {
                "instance_auc": agg.get("instance_auc_mean"),
                "bag_auc": agg.get("bag_auc_mean"),
                "failures": len(cell["failures"]),
            }
        return {"cells": cells, "report_written": (self.dir / "out" / "report.csv").exists()}

    def check(self, quality: dict, reference: dict) -> list[str]:
        problems = []
        if not quality["report_written"]:
            problems.append("report.csv not written")
        for shot, want in reference["cells"].items():
            got = quality["cells"].get(shot)
            if got is None:
                problems.append(f"no cell for bag shot {shot}")
                continue
            if got["failures"]:
                problems.append(f"bag shot {shot}: {got['failures']} failed runs")
            problems += [f"bag shot {shot}: {p}"
                         for p in _auc_problems(got, want, ("instance_auc", "bag_auc"))]
        return problems

    @staticmethod
    def headline(quality: dict) -> dict:
        """Fused-branch AUCs of the largest bag shot."""
        cells = quality["cells"]
        top = cells[max(cells, key=int)]
        return {"instance_auc": top["instance_auc"], "bag_auc": top["bag_auc"]}


class SlideEval(Workload):
    """``fewcache eval`` of a fixed checkpoint on a slide-like test set."""

    name = "slide_eval"

    def setup(self, run_seed: int) -> None:
        c = self.cfg
        data_seed = run_seed % SEED_POOL
        spec = SynthSpec(num_classes=2, dim=c["dim"], bags_per_class=c["bags_per_class"],
                         instances_per_bag=c["instances_per_bag"],
                         noise_sigma=c["noise_sigma"], seed=data_seed)
        save_dataset(synth_generate(spec), self.dir / "test")
        # A Tip-Adapter style cache: keys are training features, values their
        # one-hot labels; the prior is the noisy class prototypes.
        train = synth_generate(SynthSpec(num_classes=2, dim=c["dim"], bags_per_class=10,
                                         instances_per_bag=200, noise_sigma=c["noise_sigma"],
                                         seed=data_seed + SEED_POOL))
        rng = np.random.default_rng(data_seed)
        rows = np.sort(rng.choice(train.num_instances, c["cache_rows"], replace=False))
        split = FewShotSplit(
            selected_bags=[b.id for b in train.bags], labeled_rows=rows,
            labeled_classes=train.instance_labels_vector()[rows],
            unlabeled_rows=np.empty(0, dtype=np.int64), seed=data_seed,
        )
        cache = build_cache(split, train.store, train.classes, beta=20.0)
        prior = prior_from_features(
            synthetic_prompt_features(2, c["dim"], sigma=0.45, seed=data_seed), train.classes
        )
        snapshot(cache, prior, self.dir / "checkpoint")
        _write_json(self.dir / "eval.json", {
            "dataset": "test/manifest.json", "checkpoint": "checkpoint",
            "alpha": 0.5, "pooling": "topk_mean",
        })

    def argv(self, seed: int) -> list[str]:
        return ["eval", "--config", "eval.json", "--out", "out"]

    def reference_key(self, run_seed: int, seed: int) -> str:
        return str(run_seed % SEED_POOL)

    def quality(self, seed: int) -> dict:
        with open(self.dir / "out" / "eval.json") as f:
            doc = json.load(f)
        return {
            "instance_auc": (doc.get("instance_auc") or {}).get("macro"),
            "bag_auc": (doc.get("bag_auc") or {}).get("macro"),
            "n_instances": doc.get("n_instances"),
        }

    def check(self, quality: dict, reference: dict) -> list[str]:
        problems = _auc_problems(quality, reference, ("instance_auc", "bag_auc"))
        if quality["n_instances"] != reference["n_instances"]:
            problems.append(f"n_instances {quality['n_instances']} vs {reference['n_instances']}")
        return problems

    @staticmethod
    def headline(quality: dict) -> dict:
        return {"instance_auc": quality["instance_auc"], "bag_auc": quality["bag_auc"]}


class CoresetSample(Workload):
    """``fewcache sample`` over every bag: the k-means core set dominates."""

    name = "coreset_sample"

    def _spec(self, seed: int) -> dict:
        c = self.cfg
        return {"bag_shot": c["bags_per_class"], "instance_shot": 16,
                "coreset_fraction": c["coreset_fraction"], "coreset_cap": 1000, "seed": seed}

    def setup(self, run_seed: int) -> None:
        c = self.cfg
        spec = SynthSpec(num_classes=2, dim=c["dim"], bags_per_class=c["bags_per_class"],
                         instances_per_bag=c["instances_per_bag"], seed=0)
        save_dataset(synth_generate(spec), self.dir / "data")
        doc = self._spec(0)
        del doc["seed"]
        _write_json(self.dir / "sample.json", dict(doc, dataset="data/manifest.json"))

    def prepare(self) -> None:
        self.dataset = load_manifest(self.dir / "data" / "manifest.json")

    def argv(self, seed: int) -> list[str]:
        return ["sample", "--config", "sample.json", "--seed", str(seed), "--out", "out"]

    def quality(self, seed: int) -> dict:
        split = load_split(self.dir / "out" / "split.json")
        problems = []
        try:
            split.check(self.dataset, FewShotSpec(**self._spec(seed)))
        except AssertionError as exc:
            problems.append(f"FewShotSplit.check: {exc}")
        return {"coreset_cost": coreset_cost(self.dataset, split),
                "n_core": split.n_cache, "split_problems": problems}

    def check(self, quality: dict, reference: dict) -> list[str]:
        problems = list(quality["split_problems"])
        want = reference["coreset_cost"]
        if abs(quality["coreset_cost"] - want) > COST_REL_TOL * want:
            problems.append(f"coreset_cost {quality['coreset_cost']} vs reference {want} "
                            f"(rel tol {COST_REL_TOL})")
        if quality["n_core"] != reference["n_core"]:
            problems.append(f"core set holds {quality['n_core']} rows, reference {reference['n_core']}")
        return problems

    @staticmethod
    def headline(quality: dict) -> dict:
        return {"coreset_cost": quality["coreset_cost"]}


def coreset_cost(dataset, split: FewShotSplit, chunk: int = 2048) -> float:
    """Mean squared distance from each selected instance to its nearest core row."""
    selected = set(split.selected_bags)
    rows = np.concatenate([np.arange(b.start, b.end) for b in dataset.bags if b.id in selected])
    core = dataset.store.rows[np.concatenate([split.labeled_rows, split.unlabeled_rows])]
    core_sq = (core * core).sum(axis=1)
    total = 0.0
    for start in range(0, rows.size, chunk):
        x = dataset.store.rows[rows[start:start + chunk]]
        d2 = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ core.T) + core_sq[None, :]
        total += float(np.maximum(d2.min(axis=1), 0.0).sum())
    return total / rows.size


WORKLOADS = {w.name: w for w in (DeskSweep, SlideEval, CoresetSample)}

