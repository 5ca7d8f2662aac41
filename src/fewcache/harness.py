"""Reproducible experiment runner.

One experiment = a grid of (bag shot, instance shot) cells, each repeated
over several seeds: sample a split, build and train both branches
(trainer.fit, which reads each core row once), pick the fusion weight on
the labeled instances fit trained on, evaluate on the held-out test set:
`fewcache sample`, `train` and `eval` bit for bit (the same keys, and unit
prompt rows from one reader). Cell failures are recorded without aborting
sibling cells.

Result files are deterministic given (config, base seed): timestamps and
wall-clock live in a separate metadata file so record/report files are
content-hashable.

The runs of a sweep are independent, so `run_experiment` runs them on one
process per CPU in the affinity mask (numerics._run_jobs; at most one per
run): this process plus forked children, each taking the lowest run no
process has taken, with BLAS and the block kernels on one thread each.
The outcomes come back in run order, so the result files are the same
bytes on any number of CPUs. Where forking is not safe (no `fork` start
method, a second Python thread alive, or a BLAS whose threads cannot be
set) the same loop runs every run in this process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import numerics
from .codec import SKIP, from_doc, read_json, to_doc
from .encoders import EmbeddingSource, resolve_source
from .errors import FewcacheError, UsageError
from .fusion_eval import EvalReport, ScoreSpec, evaluate
from .sampler import FewShotSpec, sample_split
from .trainer import FitSpec, fit

DEFAULT_BAG_SHOTS = (1, 2, 4, 8, 16)
DEFAULT_INSTANCE_SHOTS = (16,)
DEFAULT_REPEATS = 5


@dataclass
class ExperimentConfig(FitSpec, ScoreSpec):
    """A `sweep` config; the fit keys (the prior keys, train, cache_beta)
    are FitSpec's and the score keys (pooling, grid_points) ScoreSpec's."""

    source: dict
    bag_shots: tuple[int, ...] = DEFAULT_BAG_SHOTS
    instance_shots: tuple[int, ...] = DEFAULT_INSTANCE_SHOTS
    coreset_fraction: float = 0.10
    coreset_cap: int = 1000
    per_bag: bool = False
    freeze_keys: bool = False
    freeze_value_logits: bool = False
    repeats: int = DEFAULT_REPEATS
    base_seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        FitSpec.__post_init__(self)
        ScoreSpec.__post_init__(self)
        for bag_shot in self.bag_shots:  # a budget FewShotSpec rejects fails every run
            for instance_shot in self.instance_shots:
                self.few_shot_spec(bag_shot, instance_shot, self.base_seed)

    def few_shot_spec(self, bag_shot: int, instance_shot: int, seed: int) -> FewShotSpec:
        """The sampling budget of one run of the (bag shot, instance shot) cell."""
        return FewShotSpec(
            bag_shot=bag_shot,
            instance_shot=instance_shot,
            coreset_fraction=self.coreset_fraction,
            coreset_cap=self.coreset_cap,
            seed=seed,
            per_bag=self.per_bag,
        )

    def variant_name(self) -> str:
        suffixes = {"+frozen_keys": self.freeze_keys, "+frozen_labels": self.freeze_value_logits}
        return "full" + "".join(s for s, on in suffixes.items() if on)


@dataclass
class CellResult:
    bag_shot: int
    instance_shot: int
    reports: list[EvalReport] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


@dataclass
class RunRecord:
    config: dict
    config_hash: str
    variant: str
    cells: list[CellResult]
    # Never written to record.json: wall-clock time and the processes and
    # BLAS threads the sweep found are volatile (they go to metadata.json)
    # and extras hold per-cell tuning-set predictions for in-memory
    # verification.
    wall_clock_seconds: float = field(default=0.0, metadata=SKIP)
    processes: int = field(default=1, metadata=SKIP)
    blas_threads: Optional[int] = field(default=None, metadata=SKIP)
    extras: dict = field(default_factory=dict, metadata=SKIP)

    def cell(self, bag_shot: int, instance_shot: Optional[int] = None) -> CellResult:
        for c in self.cells:
            if c.bag_shot == bag_shot and (
                instance_shot is None or c.instance_shot == instance_shot
            ):
                return c
        raise KeyError(f"no cell for bag_shot={bag_shot}, instance_shot={instance_shot}")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _mean(values: list[float]) -> float:
    # Exact when every value is identical (annotation-ratio bookkeeping
    # must survive aggregation bit-for-bit).
    if values and all(v == values[0] for v in values):
        return values[0]
    return float(np.mean(values))


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _aggregate(reports: list[EvalReport]) -> dict:
    out: dict = {"n_runs": len(reports)}
    if not reports:
        return out
    metrics = {
        "instance_auc": [r.instance_auc.macro for r in reports],
        "bag_auc": [r.bag_auc.macro for r in reports],
        "cache_instance_auc": [r.cache_instance_auc.macro for r in reports],
        "prior_instance_auc": [r.prior_instance_auc.macro for r in reports],
        "cache_bag_auc": [r.cache_bag_auc.macro for r in reports],
        "prior_bag_auc": [r.prior_bag_auc.macro for r in reports],
        "alpha": [r.alpha for r in reports],
    }
    for name, values in metrics.items():
        defined = [v for v in values if v is not None]
        if defined:
            out[f"{name}_mean"] = _mean(defined)
            out[f"{name}_std"] = _std(defined)
        out[f"{name}_defined"] = len(defined)
    out["labeled_count_mean"] = _mean([float(r.labeled_count) for r in reports])
    out["annotation_ratio"] = _mean([r.annotation_ratio for r in reports])
    out["annotation_ratio_percent"] = _mean(
        [r.annotation_ratio_percent for r in reports]
    )
    return out


def run_single(
    source: EmbeddingSource,
    cfg: ExperimentConfig,
    bag_shot: int,
    instance_shot: int,
    seed: int,
    keep_predictions: bool = False,
) -> tuple[EvalReport, Optional[dict]]:
    """One (shot setting, seed) run: sample, build, train, tune, evaluate."""
    train_ds = source.train_dataset
    test_ds = source.test_dataset

    split = sample_split(train_ds, cfg.few_shot_spec(bag_shot, instance_shot, seed))
    if cfg.freeze_value_logits:
        # With the label cache frozen, unlabeled rows would carry inert
        # uniform values that only dilute retrieval; the reduced variants
        # this ablation mirrors cache annotated instances only.
        split = replace(split, unlabeled_rows=np.empty(0, dtype=np.int64))
    train = replace(cfg.train, lr_keys=0.0 if cfg.freeze_keys else cfg.train.lr_keys,
                    lr_value_logits=0.0 if cfg.freeze_value_logits else cfg.train.lr_value_logits)
    fitted = fit(split, train_ds, source.prompt_features, replace(cfg, train=train))

    result = evaluate(fitted.cache, fitted.prior, test_ds, cfg,
                      tune=(fitted.queries, fitted.labels), branches=True)

    labeled_count = split.n_labeled
    total = train_ds.num_instances
    report = EvalReport(
        seed=seed,
        bag_shot=bag_shot,
        instance_shot=instance_shot,
        alpha=result.alpha,
        pooling=cfg.pooling,
        n_instances=test_ds.num_instances,
        n_bags=len(test_ds.bags),
        instance_auc=result.fused[0],
        bag_auc=result.fused[1],
        cache_instance_auc=result.cache[0],
        prior_instance_auc=result.prior[0],
        cache_bag_auc=result.cache[1],
        prior_bag_auc=result.prior[1],
        labeled_count=labeled_count,
        annotation_ratio=labeled_count / total,
        annotation_ratio_percent=100.0 * labeled_count / total,
        flags={**split.flags, **result.flags},
        alpha_table=result.alpha_table,
    )
    extras = None
    if keep_predictions:
        extras = {
            "tune_cache_probs": result.tune_probs[0],
            "tune_prior_probs": result.tune_probs[1],
            "tune_labels": fitted.labels.copy(),
        }
    return report, extras


def run_experiment(cfg: ExperimentConfig, keep_predictions: bool = False) -> RunRecord:
    """Run every grid cell x repeat; aggregate mean/std per cell.

    Deterministic given the config and base seed: repeat r uses seed
    base_seed + r, and the runs share the CPUs (numerics._run_jobs) without
    changing a byte. A stage that fails with a domain error (FewcacheError)
    or a rejected value (ValueError) marks that repeat as a recorded
    failure and the sweep continues; any other exception is a bug and
    propagates. A source whose test set is missing or lacks instance
    labels is a UsageError, raised before any sampling.
    """
    t0 = time.perf_counter()
    source = resolve_source(cfg.source)
    test = source.test_dataset
    if test is None or (test.instance_labels_vector() < 0).any():
        raise UsageError("source needs a labeled test set (test_bags_per_class or test_manifest)")
    config_doc = to_doc(cfg)
    record = RunRecord(
        config=config_doc,
        config_hash=config_hash(config_doc),
        variant=cfg.variant_name(),
        cells=[],
    )
    cells = [(i_shot, b_shot) for i_shot in cfg.instance_shots for b_shot in cfg.bag_shots]
    jobs = [(i_shot, b_shot, cfg.base_seed + r) for i_shot, b_shot in cells
            for r in range(cfg.repeats)]

    def run(i: int):
        instance_shot, bag_shot, seed = jobs[i]
        try:
            return run_single(source, cfg, bag_shot, instance_shot, seed,
                              keep_predictions=keep_predictions)
        except (FewcacheError, ValueError) as exc:  # recorded, never fatal to siblings
            return f"seed {seed}: {type(exc).__name__}: {exc}"

    record.blas_threads = numerics._blas_threads()
    record.processes = numerics._processes(len(jobs))
    outcomes = numerics._run_jobs(run, len(jobs), record.processes)
    for c, (instance_shot, bag_shot) in enumerate(cells):
        cell = CellResult(bag_shot=bag_shot, instance_shot=instance_shot)
        cell_extras = []
        for outcome in outcomes[c * cfg.repeats : (c + 1) * cfg.repeats]:
            if isinstance(outcome, str):
                cell.failures.append(outcome)
                continue
            report, extras = outcome
            cell.reports.append(report)
            if extras is not None:
                cell_extras.append(extras)
        cell.aggregates = _aggregate(cell.reports)
        record.cells.append(cell)
        if cell_extras:
            record.extras[(bag_shot, instance_shot)] = cell_extras
    record.wall_clock_seconds = time.perf_counter() - t0
    return record


# --- serialization -----------------------------------------------------------


def write_run_record(record: RunRecord, out_dir) -> Path:
    """record.json is deterministic; volatile facts go to metadata.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "record.json", "w") as f:
        json.dump(to_doc(record), f, indent=2, sort_keys=True)
    metadata = {
        "wall_clock_seconds": record.wall_clock_seconds,
        "processes": record.processes,
        "blas_threads": record.blas_threads,
        "created_unix": time.time(),
        "host": platform.node(),
        # platform.platform() would fork `uname -p`; these read os.uname().
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
    }
    with open(out / "metadata.json", "w") as f:
        json.dump(metadata, f, indent=2, sort_keys=True)
    return out / "record.json"


def load_run_record(path) -> RunRecord:
    return from_doc(RunRecord, read_json(path))


_REPORT_COLUMNS = [
    "bag_shot",
    "instance_shot",
    "variant",
    "n_runs",
    "annotation_ratio",
    "annotation_ratio_percent",
    "instance_auc_mean",
    "instance_auc_std",
    "bag_auc_mean",
    "bag_auc_std",
    "cache_instance_auc_mean",
    "cache_instance_auc_std",
    "prior_instance_auc_mean",
    "prior_instance_auc_std",
    "alpha_mean",
]

REPORT_FORMATS = ("csv", "json")


def report_rows(record: RunRecord) -> list[dict]:
    """One table row per shot setting."""
    rows = []
    for cell in record.cells:
        agg = cell.aggregates
        row: dict = {
            "bag_shot": cell.bag_shot,
            "instance_shot": cell.instance_shot,
            "variant": record.variant,
            "n_runs": agg.get("n_runs", 0),
        }
        for col in _REPORT_COLUMNS:
            if col in row:
                continue
            row[col] = agg.get(col)
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(record: RunRecord, out_dir, formats: tuple[str, ...] = REPORT_FORMATS) -> list[Path]:
    """Write the aggregate table as CSV/JSON plus plot-ready data
    (annotation ratio vs AUC). Unknown formats are rejected."""
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = report_rows(record)
    written: list[Path] = []
    if "csv" in formats:
        path = out / "report.csv"
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=_REPORT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_cell(v) for k, v in row.items()})
        written.append(path)
        plot_path = out / "plot_annotation_ratio.csv"
        with open(plot_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["annotation_ratio", "instance_auc_mean", "bag_auc_mean"])
            for row in rows:
                writer.writerow(
                    [
                        _format_cell(row["annotation_ratio"]),
                        _format_cell(row["instance_auc_mean"]),
                        _format_cell(row["bag_auc_mean"]),
                    ]
                )
        written.append(plot_path)
    if "json" in formats:
        path = out / "report.json"
        with open(path, "w") as f:
            json.dump({"variant": record.variant, "rows": rows}, f, indent=2, sort_keys=True)
        written.append(path)
    return written
