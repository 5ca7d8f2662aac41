"""Command-line entry point.

Subcommands wire the library into reproducible file-based workflows:

    synth      generate a synthetic dataset from a spec
    sample     draw a few-shot split from a dataset
    train      train both branches on a split, write a checkpoint
    eval       evaluate a checkpoint on a test dataset
    sweep      run a full experiment grid and emit reports
    gradcheck  run every finite-difference gradient suite
    report     re-emit report files from an existing run record

Every subcommand accepts --seed (train, eval and report have nothing to
seed), --config <json>, --out <dir>. fewcache.codec
decodes each config into its subcommand's dataclass: an unknown or missing
key, a value of the wrong JSON type, or a value the class rejects (such as an
unknown prior mode or pooling operator) is a usage error, caught before any
sampling, training or evaluation. Exit status: 0 on success, 2 on usage errors
(bad flags, missing files, malformed configs), 1 on domain errors, each
reported as a single machine-parsable line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .cache_branch import DEFAULT_BETA, build_cache, retrieve
from .codec import existing, from_doc, read_json, to_doc
from .dataset import SynthSpec, load_manifest, save_dataset, synth_generate
from .encoders import read_prompt_features
from .errors import DimensionConflictError, FewcacheError, UsageError
from .fusion_eval import GRID_POINTS, POOL_OPERATORS, alpha_table_to_csv, fuse, pick_alpha, score
from .gradchecks import run_all_suites
from .harness import (
    REPORT_FORMATS,
    ExperimentConfig,
    emit_report,
    load_run_record,
    run_experiment,
    write_run_record,
)
from .prior_branch import PriorSpec, build_prior, prior_predict
from .sampler import FewShotSpec, load_split, sample_split, save_split
from .trainer import TrainConfig, history_to_csv, restore, snapshot, train


@dataclass
class TrainJob(PriorSpec):
    """`fewcache train` config: `prompt` is the N x d prompt-feature FEMB;
    the prior keys (prior_mode, prior_tau, toy_*) are PriorSpec's."""

    dataset: str
    split: str
    prompt: str
    train: TrainConfig = field(default_factory=TrainConfig)
    cache_beta: float = DEFAULT_BETA


@dataclass
class TuneSet:
    """Manifest and split whose labeled rows `fewcache eval` tunes alpha on."""

    dataset: str
    split: str


@dataclass
class EvalJob:
    """`fewcache eval` config: a given alpha wins over tune; with neither, alpha is 0.5."""

    dataset: str
    checkpoint: str
    alpha: Optional[float] = None
    tune: Optional[TuneSet] = None
    grid_points: int = GRID_POINTS
    pooling: str = "mean"

    def __post_init__(self):
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")
        if self.pooling not in POOL_OPERATORS:
            raise ValueError(f"unknown pooling operator {self.pooling!r}")


@dataclass
class ReportJob:
    record: str
    formats: tuple[str, ...] = REPORT_FORMATS

    def __post_init__(self):
        if not set(self.formats) <= set(REPORT_FORMATS):
            raise ValueError(f"formats must be drawn from {REPORT_FORMATS}, got {self.formats}")


@dataclass
class GradcheckJob:
    """`fewcache gradcheck` config; the config file is optional."""

    n_configs: int = 100
    tol: float = 1e-4


def _load_config(path: str | None, required: bool = True) -> dict:
    if path is None:
        if required:
            raise UsageError("--config is required for this subcommand")
        return {}
    doc = read_json(existing(path, "config file"))
    if not isinstance(doc, dict):
        raise UsageError(f"config must be a JSON object, got {type(doc).__name__}")
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    """Generate a synthetic dataset from a SynthSpec config."""
    cfg = _load_config(args.config)
    doc = {k: v for k, v in cfg.items() if k != "name"}
    stray = sorted(doc.keys() - {"spec"}) if "spec" in doc else []
    if stray:
        raise UsageError(f"unknown key(s) {', '.join(map(repr, stray))} beside 'spec'")
    spec = from_doc(SynthSpec, doc.get("spec", doc))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    dataset = synth_generate(spec)
    if "name" in cfg:
        dataset.name = str(cfg["name"])
    manifest = save_dataset(dataset, _out_dir(args))
    print(manifest)
    return 0


def cmd_sample(args) -> int:
    """Draw a few-shot split from a dataset manifest."""
    spec_doc = _load_config(args.config)
    manifest = spec_doc.pop("dataset", None)
    if args.seed is not None:
        spec_doc["seed"] = args.seed
    spec = from_doc(FewShotSpec, spec_doc)
    split = sample_split(load_manifest(existing(manifest, "dataset")), spec)
    path = save_split(split, _out_dir(args) / "split.json")
    print(path)
    return 0


def cmd_train(args) -> int:
    """Train both branches on a split and write a checkpoint."""
    job = from_doc(TrainJob, _load_config(args.config))
    existing(job.prompt, "prompt file")
    dataset = load_manifest(existing(job.dataset, "dataset"))
    split = load_split(existing(job.split, "split file"), dataset)
    cache = build_cache(split, dataset.store, dataset.classes, beta=job.cache_beta)
    prompts = read_prompt_features(job.prompt, dataset.dim, dataset.num_classes)
    prior = build_prior(job, prompts, dataset.classes)
    cache, prior, state = train(cache, prior, split, dataset.store, job.train)
    out = _out_dir(args)
    snapshot(cache, prior, out / "checkpoint")
    history_to_csv(state, out / "loss_history.csv")
    print(out / "checkpoint")
    return 0


def _check_classes(checkpoint: list[str], data: list[str], what: str) -> None:
    """A checkpoint scores only the classes it was trained on, in its order."""
    if checkpoint != data:
        raise DimensionConflictError(f"checkpoint classes {checkpoint} but {what} classes {data}")


def cmd_eval(args) -> int:
    """Evaluate a checkpoint on a dataset, optionally tuning alpha."""
    job = from_doc(EvalJob, _load_config(args.config))
    dataset = load_manifest(existing(job.dataset, "dataset"))
    cache, prior = restore(existing(job.checkpoint, "checkpoint"))
    _check_classes(cache.classes, dataset.classes, "dataset")

    alpha, table, flags = job.alpha, None, {}
    if alpha is None and job.tune is not None:
        tune_ds = load_manifest(existing(job.tune.dataset, "tune dataset"))
        _check_classes(cache.classes, tune_ds.classes, "tune dataset")
        tune_split = load_split(existing(job.tune.split, "tune split"), tune_ds)
        q = tune_ds.store.rows[tune_split.labeled_rows]
        alpha, table, flags = pick_alpha(
            retrieve(cache, q), prior_predict(prior, q), tune_split.labeled_classes,
            job.grid_points,
        )
    out = _out_dir(args)
    if table is not None:
        alpha_table_to_csv(table, out / "alpha_sweep.csv")
    alpha = 0.5 if alpha is None else float(alpha)
    queries = dataset.store.rows
    fused = fuse(retrieve(cache, queries), prior_predict(prior, queries), alpha)
    instance, bag = score(fused, dataset, job.pooling)
    if instance is None:
        flags["instance_labels_missing"] = True

    result: dict = {
        "alpha": alpha,
        "n_instances": dataset.num_instances,
        "instance_auc": to_doc(instance),
        "pooling": job.pooling,
        "n_bags": len(dataset.bags),
        "bag_auc": to_doc(bag),
    }
    if flags:
        result["flags"] = flags
    path = out / "eval.json"
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    with open(out / "eval.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        for key in sorted(result):
            writer.writerow([key, json.dumps(result[key])])
    print(path)
    return 0


def cmd_sweep(args) -> int:
    """Run a full experiment grid and emit record + reports."""
    doc = _load_config(args.config)
    if args.seed is not None:
        doc["base_seed"] = args.seed
    cfg = from_doc(ExperimentConfig, doc)
    record = run_experiment(cfg)
    out = _out_dir(args)
    write_run_record(record, out)
    emit_report(record, out)
    print(out / "record.json")
    return 0


def cmd_gradcheck(args) -> int:
    """Run every finite-difference gradient suite; exit 0 iff all pass."""
    job = from_doc(GradcheckJob, _load_config(args.config, required=False))
    seed = args.seed if args.seed is not None else 0
    results = run_all_suites(n_configs=job.n_configs, seed=seed, tol=job.tol)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.configs} configs, max_rel_error={r.max_rel_error:.3e}")
        all_passed &= r.passed
    return 0 if all_passed else 1


def cmd_report(args) -> int:
    """Re-emit report files from an existing record.json."""
    job = from_doc(ReportJob, _load_config(args.config))
    record = load_run_record(existing(job.record, "record file"))
    for path in emit_report(record, _out_dir(args), job.formats):
        print(path)
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "sample": cmd_sample,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewcache",
        description="Few-shot cache/prior classification over precomputed embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except FewcacheError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
