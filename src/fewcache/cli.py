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
reported as a single machine-parsable line. `sample`, `train` and `eval`
make up a sweep run: they share its keys and its prompt reader (unit rows).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import existing, from_doc, read_json, to_doc
from .dataset import SynthSpec, read_layout, save_dataset, synth_generate
from .encoders import read_prompt_features
from .errors import DimensionConflictError, FewcacheError, SplitError, UsageError
from .fusion_eval import ScoreSpec, alpha_table_to_csv, evaluate
from .gradchecks import run_all_suites
from .harness import (
    REPORT_FORMATS,
    ExperimentConfig,
    emit_report,
    load_run_record,
    run_experiment,
    write_run_record,
)
from .sampler import FewShotSpec, load_split, sample_split, save_split
from .trainer import FitSpec, fit, history_to_csv, restore, snapshot


@dataclass(frozen=True, kw_only=True)
class SampleJob(FewShotSpec):
    """`fewcache sample` config: the dataset manifest and FewShotSpec's keys."""

    dataset: str


@dataclass
class TrainJob(FitSpec):
    """`fewcache train` config: `prompt` is the N x d prompt-feature FEMB;
    the fit keys (the prior keys, train, cache_beta) are FitSpec's."""

    dataset: str
    split: str
    prompt: str


@dataclass
class TuneSet:
    """Manifest and split whose labeled rows `fewcache eval` tunes alpha on."""

    dataset: str
    split: str


@dataclass
class EvalJob(ScoreSpec):
    """`fewcache eval` config: a given alpha wins over tune; with neither, alpha is 0.5."""

    dataset: str
    checkpoint: str
    alpha: Optional[float] = None
    tune: Optional[TuneSet] = None

    def __post_init__(self):
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        super().__post_init__()


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
    doc = _load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    job = from_doc(SampleJob, doc)
    split = sample_split(read_layout(existing(job.dataset, "dataset")), job)
    path = save_split(split, _out_dir(args) / "split.json")
    print(path)
    return 0


def cmd_train(args) -> int:
    """Train both branches on a split and write a checkpoint."""
    job = from_doc(TrainJob, _load_config(args.config))
    existing(job.prompt, "prompt file")
    dataset = read_layout(existing(job.dataset, "dataset"))
    split = load_split(existing(job.split, "split file"), dataset)
    if split.n_labeled == 0:
        raise SplitError(f"{job.split}: no labeled rows to train on")
    prompts = read_prompt_features(job.prompt, dataset.dim, dataset.num_classes)
    fitted = fit(split, dataset, prompts, job)
    out = _out_dir(args)
    snapshot(fitted.cache, fitted.prior, out / "checkpoint")
    history_to_csv(fitted.cache_losses, fitted.prompt_losses, out / "loss_history.csv")
    print(out / "checkpoint")
    return 0


def _check_classes(checkpoint: list[str], data: list[str], what: str) -> None:
    """A checkpoint scores only the classes it was trained on, in its order."""
    if checkpoint != data:
        raise DimensionConflictError(f"checkpoint classes {checkpoint} but {what} classes {data}")


def _tune_rows(tune: TuneSet, classes: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The labeled rows of a tune split and their classes; only those rows
    are read from the tune dataset's files."""
    dataset = read_layout(existing(tune.dataset, "tune dataset"))
    _check_classes(classes, dataset.classes, "tune dataset")
    split = load_split(existing(tune.split, "tune split"), dataset)
    return dataset.store.take(split.labeled_rows), split.labeled_classes


def cmd_eval(args) -> int:
    """Evaluate a checkpoint on a dataset, optionally tuning alpha."""
    job = from_doc(EvalJob, _load_config(args.config))
    dataset = read_layout(existing(job.dataset, "dataset"))
    cache, prior = restore(existing(job.checkpoint, "checkpoint"))
    _check_classes(cache.classes, dataset.classes, "dataset")

    tune = None
    if job.alpha is None and job.tune is not None:
        tune = _tune_rows(job.tune, cache.classes)
    result = evaluate(cache, prior, dataset, job, job.alpha, tune)

    doc: dict = {
        "alpha": result.alpha,
        "n_instances": dataset.num_instances,
        "instance_auc": to_doc(result.fused[0]),
        "pooling": job.pooling,
        "n_bags": len(dataset.bags),
        "bag_auc": to_doc(result.fused[1]),
    }
    if result.flags:
        doc["flags"] = result.flags
    out = _out_dir(args)
    if result.alpha_table is not None:
        alpha_table_to_csv(result.alpha_table, out / "alpha_sweep.csv")
    path = out / "eval.json"
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    with open(out / "eval.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "value"])
        for key in sorted(doc):
            writer.writerow([key, json.dumps(doc[key])])
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
