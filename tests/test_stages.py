"""A sweep run and the commands it is made of.

`sweep` runs sample, fit and evaluate; `sample`, `train` and `eval` run the
same stages from files. They declare each stage's keys once (FewShotSpec,
FitSpec, ScoreSpec) and read a prompt file with one reader, so one run of a
sweep and the three commands give the same models and the same AUCs.
"""

import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

from fewcache import harness, numerics
from fewcache.cache_branch import build_cache
from fewcache.cli import EvalJob, TrainJob, main
from fewcache.dataset import (
    SynthSpec,
    read_embeddings,
    save_dataset,
    synth_generate,
    write_embeddings,
)
from fewcache.encoders import synthetic_prompt_features
from fewcache.harness import ExperimentConfig
from fewcache.prior_branch import PROTOTYPE, prior_from_features
from fewcache.sampler import FewShotSplit, save_split
from fewcache.trainer import snapshot

SPEC = {"num_classes": 2, "dim": 8, "bags_per_class": 3, "instances_per_bag": 20,
        "positive_fraction": 0.3, "noise_sigma": 0.2, "seed": 4}


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _declarer(cls, name: str) -> type:
    """The class in `cls`'s MRO whose own body declares field `name`."""
    return next(c for c in cls.__mro__ if name in inspect.get_annotations(c))


@pytest.mark.parametrize("job", [TrainJob, EvalJob])
def test_keys_shared_with_sweep_are_declared_by_a_common_base(job):
    # A key that a command and a sweep both read is declared once, in a
    # base class of both, so that adding a key adds it to both.
    shared = {f.name for f in fields(ExperimentConfig)} & {f.name for f in fields(job)}
    assert shared
    for name in sorted(shared):
        base = _declarer(ExperimentConfig, name)
        assert base is _declarer(job, name) and base not in (ExperimentConfig, job), name


def _checkpoint_arrays(cache, prior) -> dict:
    """The arrays `snapshot` writes, by file stem."""
    arrays = {"cache_keys": cache.keys, "cache_value_logits": cache.value_logits}
    if prior.mode == PROTOTYPE:
        arrays["prior_class_features"] = prior.class_features
    else:
        width = prior.encoder_matrix.shape[0]
        arrays["prior_base_tokens"] = prior.base_tokens.reshape(-1, width)
        arrays["prior_prompt_tokens"] = prior.prompt_tokens.reshape(-1, width)
        arrays["prior_encoder"] = prior.encoder_matrix
    return arrays


@pytest.mark.parametrize("mode", ["prototype", "toy-encoder"])
def test_sweep_run_is_sample_train_eval(tmp_path, monkeypatch, mode):
    # A file source whose prompt rows are not unit: the sweep run with base
    # seed s and `sample --seed s`, `train`, then `eval` tuned on that split
    # train the same models and report the same alpha and AUCs.
    train = save_dataset(synth_generate(SynthSpec(**SPEC)), tmp_path / "train")
    test = save_dataset(synth_generate(SynthSpec(**{**SPEC, "seed": 9})), tmp_path / "test")
    prompts = tmp_path / "prompts.femb"
    write_embeddings(prompts, 3 * np.random.default_rng(0).standard_normal((2, SPEC["dim"])),
                     version=2)
    seed = 3
    budget = {"coreset_fraction": 0.5, "coreset_cap": 1000}
    fit_keys = {"prior_mode": mode, "train": {"steps": 20}, "cache_beta": 20.0}
    score_keys = {"pooling": "max", "grid_points": 11}

    evaluated, real_evaluate = [], harness.evaluate

    def evaluate(cache, prior, *args, **kwargs):
        evaluated.append((cache, prior))
        return real_evaluate(cache, prior, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate", evaluate)
    source = {"kind": "file", "train_manifest": str(train), "test_manifest": str(test),
              "prompt_features": str(prompts)}
    sweep = write_json(tmp_path / "sweep.json", {
        "source": source, "bag_shots": [2], "instance_shots": [3], "repeats": 1,
        "base_seed": seed, **budget, **fit_keys, **score_keys})
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 0

    out = tmp_path / "commands"
    sample = write_json(tmp_path / "sample.json",
                        {"dataset": str(train), "bag_shot": 2, "instance_shot": 3, **budget})
    assert main(["sample", "--config", sample, "--seed", str(seed), "--out", str(out)]) == 0
    split = str(out / "split.json")
    train_cfg = write_json(tmp_path / "train.json", {
        "dataset": str(train), "split": split, "prompt": str(prompts), **fit_keys})
    assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
    eval_cfg = write_json(tmp_path / "eval.json", {
        "dataset": str(test), "checkpoint": str(out / "checkpoint"),
        "tune": {"dataset": str(train), "split": split}, **score_keys})
    assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0

    ((cache, prior),) = evaluated
    for stem, array in _checkpoint_arrays(cache, prior).items():
        written = read_embeddings(out / "checkpoint" / f"{stem}.femb").rows
        assert written.tobytes() == array.tobytes(), stem
    record = json.loads((tmp_path / "sweep" / "record.json").read_text())
    (report,) = record["cells"][0]["reports"]
    doc = json.loads((out / "eval.json").read_text())
    for key in ("alpha", "instance_auc", "bag_auc"):
        assert doc[key] == report[key], key


@pytest.mark.skipif(not numerics._blas_api(), reason="no way to set the BLAS thread count")
def test_sample_and_eval_bytes_independent_of_blas_threads(tmp_path):
    # `sample` at the coreset_sample benchmark's shape (3000 x 64 rows, a
    # 300-row core set), and `eval` of a 1000-row cache at d = 256 tuned on a
    # 1000-row split: the Lloyd blocks are 436 x 300 x 64 and the retrieval
    # blocks 131 x 1000 x 256 GEMMs, run on one BLAS thread and on two.
    data = save_dataset(synth_generate(SynthSpec(num_classes=2, dim=64, bags_per_class=10,
                                                 instances_per_bag=150, seed=0)),
                        tmp_path / "data")
    sample = write_json(tmp_path / "sample.json", {
        "dataset": str(data), "bag_shot": 10, "instance_shot": 16, "coreset_fraction": 0.1,
        "coreset_cap": 1000})
    test = save_dataset(synth_generate(SynthSpec(num_classes=2, dim=256, bags_per_class=2,
                                                 instances_per_bag=1000, seed=0)),
                        tmp_path / "test")
    train = synth_generate(SynthSpec(num_classes=2, dim=256, bags_per_class=4,
                                     instances_per_bag=500, seed=16))
    rows = np.sort(np.random.default_rng(0).choice(train.num_instances, 1000, replace=False))
    split = FewShotSplit(selected_bags=[b.id for b in train.bags], labeled_rows=rows,
                         labeled_classes=train.instance_labels_vector()[rows],
                         unlabeled_rows=np.empty(0, dtype=np.int64), seed=0)
    prior = prior_from_features(synthetic_prompt_features(2, 256, sigma=0.45), train.classes)
    snapshot(build_cache(split, train.store, train.classes, beta=20.0), prior,
             tmp_path / "checkpoint")
    tune = {"dataset": str(save_dataset(train, tmp_path / "train")),
            "split": str(save_split(split, tmp_path / "split.json"))}
    eval_cfg = write_json(tmp_path / "eval.json", {
        "dataset": str(test), "checkpoint": str(tmp_path / "checkpoint"), "tune": tune})

    get, set_ = numerics._blas_api()
    saved = get()
    written = {}
    try:
        for threads in (1, 2):
            set_(threads)
            if get() != threads:
                pytest.skip(f"the BLAS does not run {threads} threads")
            out = tmp_path / f"threads_{threads}"
            assert main(["sample", "--config", sample, "--out", str(out)]) == 0
            assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0
            written[threads] = {name: (out / name).read_bytes()
                                for name in ("split.json", "eval.json", "alpha_sweep.csv")}
    finally:
        set_(saved)
    assert written[1] == written[2]
