"""Command-line entry point.

Subcommands wire the library into reproducible file-based workflows:

    synth      generate a synthetic dataset from a spec
    sample     draw a few-shot split from a dataset
    train      train both branches on a split, write a checkpoint
    eval       evaluate a checkpoint on a test dataset
    sweep      run a full experiment grid and emit reports
    gradcheck  run every finite-difference gradient suite
    report     re-emit report files from an existing run record

Every subcommand accepts --seed, --config <json>, --out <dir>. Configs
are decoded by fewcache.codec: an unknown or missing key, a value of
the wrong JSON type, or a value the config class rejects (such as an
unknown prior mode or pooling operator) is a usage error, caught before
any sampling or training. Exit status: 0 on success, 2 on usage errors
(bad flags, missing files, malformed configs), 1 on domain errors, each
reported as a single machine-parsable line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .cache_branch import DEFAULT_BETA, build_cache, retrieve
from .codec import from_doc, to_doc
from .dataset import Dataset, SynthSpec, load_manifest, save_dataset, synth_generate
from .errors import FewcacheError, UsageError
from .fusion_eval import (
    alpha_grid,
    alpha_table_to_csv,
    bag_pool,
    fuse,
    instance_auc,
    sweep_alpha,
)
from .gradchecks import run_all_suites
from .harness import (
    ExperimentConfig,
    emit_report,
    load_run_record,
    run_experiment,
    write_run_record,
)
from .prior_branch import PromptConfig, load_prior, prior_predict
from .sampler import FewShotSpec, load_split, sample_split, save_split
from .trainer import TrainConfig, history_to_csv, restore, snapshot, train


def _load_config(path: str | None, required: bool = True) -> dict:
    if path is None:
        if required:
            raise UsageError("--config is required for this subcommand")
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        with open(p) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config must be a JSON object, got {type(doc).__name__}")
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_dataset(cfg: dict, key: str) -> Dataset:
    path = cfg.get(key)
    if not path:
        raise UsageError(f"config must name a {key!r} manifest")
    if not Path(path).exists():
        raise UsageError(f"{key} not found: {path}")
    return load_manifest(path)


def cmd_synth(args) -> int:
    """Generate a synthetic dataset from a SynthSpec config."""
    cfg = _load_config(args.config)
    spec = from_doc(SynthSpec, cfg.get("spec", {k: v for k, v in cfg.items() if k != "name"}))
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
    cfg = _load_config(args.config)
    dataset = _require_dataset(cfg, "dataset")
    spec_doc = {k: v for k, v in cfg.items() if k != "dataset"}
    if args.seed is not None:
        spec_doc["seed"] = args.seed
    split = sample_split(dataset, from_doc(FewShotSpec, spec_doc))
    path = save_split(split, _out_dir(args) / "split.json")
    print(path)
    return 0


def cmd_train(args) -> int:
    """Train both branches on a split and write a checkpoint."""
    cfg = _load_config(args.config)
    dataset = _require_dataset(cfg, "dataset")
    split_path = cfg.get("split")
    if not split_path or not Path(split_path).exists():
        raise UsageError(f"split file not found: {split_path}")
    split = load_split(split_path)
    train_cfg = from_doc(TrainConfig, cfg.get("train", {}))
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    cache = build_cache(
        split, dataset.store, dataset.classes, beta=cfg.get("cache_beta", DEFAULT_BETA)
    )
    prompt_doc = cfg.get("prompt")
    if not prompt_doc:
        raise UsageError("config must carry a 'prompt' section naming the feature file")
    prior = load_prior(from_doc(PromptConfig, prompt_doc), dataset.classes, dataset.dim)
    cache, prior, state = train(cache, prior, split, dataset.store, train_cfg)
    out = _out_dir(args)
    snapshot(cache, prior, out / "checkpoint")
    history_to_csv(state, out / "loss_history.csv")
    print(out / "checkpoint")
    return 0


def cmd_eval(args) -> int:
    """Evaluate a checkpoint on a dataset, optionally tuning alpha."""
    cfg = _load_config(args.config)
    dataset = _require_dataset(cfg, "dataset")
    ckpt = cfg.get("checkpoint")
    if not ckpt or not Path(ckpt).exists():
        raise UsageError(f"checkpoint not found: {ckpt}")
    cache, prior = restore(ckpt)
    queries = dataset.store.rows
    cache_probs = retrieve(cache, queries)
    prior_probs = prior_predict(prior, queries)

    out = _out_dir(args)
    alpha = cfg.get("alpha")
    tune = cfg.get("tune")
    if alpha is None and tune:
        tune_ds = load_manifest(tune["dataset"])
        tune_split = load_split(tune["split"])
        q = tune_ds.store.rows[tune_split.labeled_rows]
        alpha, table = sweep_alpha(
            retrieve(cache, q),
            prior_predict(prior, q),
            tune_split.labeled_classes,
            grid=alpha_grid(cfg.get("grid_points", 101)),
        )
        alpha_table_to_csv(table, out / "alpha_sweep.csv")
    if alpha is None:
        alpha = 0.5
    fused = fuse(cache_probs, prior_probs, float(alpha))

    truth = dataset.instance_labels_vector()
    result: dict = {"alpha": float(alpha), "n_instances": dataset.num_instances}
    if (truth >= 0).all():
        result["instance_auc"] = to_doc(instance_auc(fused, truth, dataset.num_classes))
    else:
        result["instance_auc"] = None
        result["flags"] = {"instance_labels_missing": True}
    pooling = cfg.get("pooling", "mean")
    pooled = bag_pool(fused, dataset.bags, pooling)
    result["pooling"] = pooling
    result["n_bags"] = len(dataset.bags)
    result["bag_auc"] = to_doc(instance_auc(pooled, dataset.bag_labels(), dataset.num_classes))
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
    seed = args.seed if args.seed is not None else 0
    cfg = _load_config(args.config, required=False)
    n_configs = int(cfg.get("n_configs", 100))
    tol = float(cfg.get("tol", 1e-4))
    results = run_all_suites(n_configs=n_configs, seed=seed, tol=tol)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.configs} configs, max_rel_error={r.max_rel_error:.3e}")
        all_passed &= r.passed
    return 0 if all_passed else 1


def cmd_report(args) -> int:
    """Re-emit report files from an existing record.json."""
    cfg = _load_config(args.config)
    record_path = cfg.get("record")
    if not record_path or not Path(record_path).exists():
        raise UsageError(f"record file not found: {record_path}")
    record = load_run_record(record_path)
    formats = tuple(cfg.get("formats", ("csv", "json")))
    for path in emit_report(record, _out_dir(args), formats):
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
    except FileNotFoundError as exc:
        print(f"error: usage: missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
