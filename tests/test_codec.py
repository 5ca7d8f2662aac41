import json

import pytest

from fewcache.cli import TrainJob
from fewcache.codec import from_doc, to_doc
from fewcache.dataset import SynthSpec
from fewcache.errors import UsageError
from fewcache.fusion_eval import AUCResult, EvalReport
from fewcache.harness import CellResult, ExperimentConfig, RunRecord
from fewcache.prior_branch import TOY_ENCODER
from fewcache.sampler import FewShotSpec
from fewcache.trainer import TrainConfig


def _report(alpha_table) -> EvalReport:
    return EvalReport(
        seed=3, bag_shot=2, instance_shot=4, alpha=0.25, pooling="max",
        n_instances=10, n_bags=2,
        instance_auc=AUCResult([0.9, None], 0.9),
        bag_auc=AUCResult([1.0, 1.0], 1.0),
        cache_instance_auc=AUCResult([0.8, 0.7], 0.75),
        prior_instance_auc=AUCResult([0.7, 0.7], 0.7),
        cache_bag_auc=AUCResult([None, None], None),
        prior_bag_auc=AUCResult([0.5, 0.5], 0.5),
        labeled_count=8, annotation_ratio=0.1, annotation_ratio_percent=10.0,
        flags={"shortfall": {"1": 2}},
        alpha_table=alpha_table,
    )


WITH_TABLE = _report([(0.0, 0.5), (0.5, 0.75), (1.0, 0.625)])
NO_TABLE = _report(None)
CELL = CellResult(
    bag_shot=2, instance_shot=4, reports=[WITH_TABLE, NO_TABLE],
    failures=["seed 1: InsufficientBagsError: class 0 has 1 bags"],
    aggregates={"n_runs": 2, "alpha_mean": 0.25},
)

VALUES = [
    pytest.param(SynthSpec(num_classes=3, dim=8, noise_sigma=0.4, seed=7), id="SynthSpec"),
    pytest.param(FewShotSpec(bag_shot=2, instance_shot=4, coreset_cap=50, per_bag=True),
                 id="FewShotSpec"),
    pytest.param(TrainConfig(steps=10, batch_size=16, lr_prompt=0.0), id="TrainConfig"),
    pytest.param(TrainJob(dataset="m.json", split="s.json", prompt="p.femb",
                          prior_mode=TOY_ENCODER, prior_tau=0.05, toy_seed=3), id="TrainJob"),
    pytest.param(
        ExperimentConfig(
            source={"kind": "synthetic", "spec": {"dim": 8}}, bag_shots=(1, 4),
            instance_shots=(2,), train=TrainConfig(steps=5, seed=2),
            pooling="topk_mean", freeze_keys=True,
        ),
        id="ExperimentConfig",
    ),
    pytest.param(AUCResult([0.5, None], 0.5), id="AUCResult"),
    pytest.param(WITH_TABLE, id="EvalReport-alpha_table"),
    pytest.param(NO_TABLE, id="EvalReport-no-alpha_table"),
    pytest.param(CELL, id="CellResult"),
    pytest.param(RunRecord(config={"repeats": 2}, config_hash="ab", variant="full",
                           cells=[CELL]), id="RunRecord"),
]


@pytest.mark.parametrize("value", VALUES)
def test_round_trip(value):
    doc = json.loads(json.dumps(to_doc(value)))
    assert from_doc(type(value), doc) == value


def test_alpha_table_written_only_when_set():
    assert "alpha_table" not in to_doc(NO_TABLE)
    assert to_doc(WITH_TABLE)["alpha_table"] == [[0.0, 0.5], [0.5, 0.75], [1.0, 0.625]]


def test_run_record_in_memory_fields_not_written():
    record = RunRecord(config={}, config_hash="", variant="full", cells=[],
                       wall_clock_seconds=1.5, extras={(2, 4): []})
    doc = to_doc(record)
    assert set(doc) == {"config", "config_hash", "variant", "cells"}
    with pytest.raises(UsageError, match="unknown key"):
        from_doc(RunRecord, {**doc, "wall_clock_seconds": 1.5})


@pytest.mark.parametrize(
    "cls, doc, match",
    [
        (TrainConfig, {"step": 5}, r"TrainConfig: unknown key\(s\) 'step'"),
        (FewShotSpec, {"bag_shot": 1}, r"FewShotSpec: missing key\(s\) 'instance_shot'"),
        (TrainConfig, [5], "TrainConfig must be a JSON object"),
        (ExperimentConfig, {"source": {}, "train": 5}, "TrainConfig must be a JSON object"),
        (ExperimentConfig, {"source": "x"}, "ExperimentConfig.source must be a JSON object"),
        (ExperimentConfig, {"source": {}, "bag_shots": 4},
         "ExperimentConfig.bag_shots must be a JSON array"),
        (RunRecord, {"config": {}, "config_hash": "", "variant": "", "cells": [5]},
         "CellResult must be a JSON object"),
        (SynthSpec, {"dim": 1}, "SynthSpec: dim must be >= num_classes"),
        (TrainConfig, {"steps": "5"}, "TrainConfig.steps must be int, got str"),
        (TrainConfig, {"batch_size": 8.0}, "TrainConfig.batch_size must be int, got float"),
        (FewShotSpec, {"bag_shot": True, "instance_shot": 1},
         "FewShotSpec.bag_shot must be int, got bool"),
        (ExperimentConfig, {"source": {}, "bag_shots": ["2"]},
         "ExperimentConfig.bag_shots must be int, got str"),
        (ExperimentConfig, {"source": {}, "per_bag": 1},
         "ExperimentConfig.per_bag must be bool, got int"),
        (TrainJob, {"dataset": "m", "split": "s", "prompt": 5},
         "TrainJob.prompt must be str, got int"),
        (AUCResult, {"per_class": [0.5, "x"], "macro": None},
         "AUCResult.per_class must be float, got str"),
        (TrainConfig, {"batch_size": 0}, "TrainConfig: batch_size must be >= 1"),
    ],
)
def test_malformed_docs_raise_usage_error(cls, doc, match):
    with pytest.raises(UsageError, match=match):
        from_doc(cls, doc)


@pytest.mark.parametrize(
    "cls, text, match",
    [
        (TrainConfig, '{"lr_keys": NaN}', "TrainConfig.lr_keys must be finite, got nan"),
        (ExperimentConfig, '{"source": {}, "prior_tau": Infinity}',
         "ExperimentConfig.prior_tau must be finite, got inf"),
        (ExperimentConfig, '{"source": {}, "cache_beta": -1e999}',
         "ExperimentConfig.cache_beta must be finite, got -inf"),
        (AUCResult, '{"per_class": [0.5, NaN], "macro": 0.5}',
         "AUCResult.per_class must be finite, got nan"),
        (list[float], "[0.5, 1, 1e999]", r"list\[float\] must be finite, got inf"),
    ],
    ids=["nan", "infinity", "overflowing-literal", "nan-in-list", "list-fast-path"],
)
def test_non_finite_floats_raise_usage_error(cls, text, match):
    with pytest.raises(UsageError, match=match):
        from_doc(cls, json.loads(text))


def test_int_accepted_for_float():
    assert from_doc(TrainConfig, {"lr_keys": 0}).lr_keys == 0
