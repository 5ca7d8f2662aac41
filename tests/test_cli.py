import io
import json
import re
import shutil
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache import cli, encoders, errors, numerics
from fewcache.cli import main
from fewcache.dataset import (
    SynthSpec,
    load_manifest,
    save_dataset,
    synth_generate,
    write_embeddings,
)
from fewcache.numerics import l2_normalize_rows
from fewcache.sampler import FewShotSpec, load_split, sample_split, save_split
from fewcache.trainer import restore


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


SPEC_DOC = {"num_classes": 2, "dim": 8, "bags_per_class": 3,
            "instances_per_bag": 20, "positive_fraction": 0.3,
            "noise_sigma": 0.2, "seed": 4}


@pytest.fixture
def pipeline_dirs(tmp_path, rng):
    """synth + sample + prompt file, ready for train/eval."""
    data_dir = tmp_path / "data"
    cfg = write_json(tmp_path / "synth.json", {"spec": SPEC_DOC})
    assert main(["synth", "--config", cfg, "--out", str(data_dir)]) == 0
    manifest = data_dir / "manifest.json"

    sample_cfg = write_json(
        tmp_path / "sample.json",
        {"dataset": str(manifest), "bag_shot": 2, "instance_shot": 3, "seed": 0},
    )
    split_dir = tmp_path / "split"
    assert main(["sample", "--config", sample_cfg, "--out", str(split_dir)]) == 0

    prompts = tmp_path / "prompts.femb"
    feats = l2_normalize_rows(np.eye(2, 8) + 0.2 * rng.normal(size=(2, 8)))
    write_embeddings(prompts, feats.astype(np.float32))
    return {
        "manifest": manifest,
        "split": split_dir / "split.json",
        "prompts": prompts,
        "tmp": tmp_path,
    }


@pytest.fixture
def trained(pipeline_dirs):
    """pipeline_dirs plus a 5-step checkpoint and an empty run record."""
    tmp = pipeline_dirs["tmp"]
    train_cfg = write_json(
        tmp / "train.json",
        {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
         "prompt": str(pipeline_dirs["prompts"]), "train": {"steps": 5}},
    )
    assert main(["train", "--config", train_cfg, "--out", str(tmp / "run")]) == 0
    record = write_json(tmp / "record.json",
                        {"config": {}, "config_hash": "", "variant": "full", "cells": []})
    return {**pipeline_dirs, "train_cfg": train_cfg, "checkpoint": tmp / "run" / "checkpoint",
            "record": record}


class TestPipeline:
    def test_synth_sample_train_eval(self, pipeline_dirs):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {
                "dataset": str(pipeline_dirs["manifest"]),
                "split": str(pipeline_dirs["split"]),
                "prompt": str(pipeline_dirs["prompts"]),
                "train": {"steps": 40},
            },
        )
        run_dir = tmp / "run"
        assert main(["train", "--config", train_cfg, "--out", str(run_dir)]) == 0
        assert (run_dir / "checkpoint" / "checkpoint.json").exists()
        assert (run_dir / "loss_history.csv").exists()

        eval_cfg = write_json(
            tmp / "eval.json",
            {
                "dataset": str(pipeline_dirs["manifest"]),
                "checkpoint": str(run_dir / "checkpoint"),
                "alpha": 0.5,
            },
        )
        eval_dir = tmp / "eval"
        assert main(["eval", "--config", eval_cfg, "--out", str(eval_dir)]) == 0
        doc = json.loads((eval_dir / "eval.json").read_text())
        assert doc["alpha"] == 0.5
        assert 0.0 <= doc["instance_auc"]["macro"] <= 1.0
        assert (eval_dir / "eval.csv").exists()

        # alpha tuned on a labeled split emits the sweep table
        tuned_cfg = write_json(
            tmp / "eval_tuned.json",
            {
                "dataset": str(pipeline_dirs["manifest"]),
                "checkpoint": str(run_dir / "checkpoint"),
                "tune": {
                    "dataset": str(pipeline_dirs["manifest"]),
                    "split": str(pipeline_dirs["split"]),
                },
            },
        )
        tuned_dir = tmp / "eval_tuned"
        assert main(["eval", "--config", tuned_cfg, "--out", str(tuned_dir)]) == 0
        sweep_lines = (tuned_dir / "alpha_sweep.csv").read_text().strip().splitlines()
        assert len(sweep_lines) == 102

    def test_train_ignores_seed(self, pipeline_dirs):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
             "prompt": str(pipeline_dirs["prompts"]), "train": {"steps": 20}},
        )
        written = {}
        for seed in ("0", "7"):
            out = tmp / f"run_{seed}"
            assert main(["train", "--seed", seed, "--config", train_cfg, "--out", str(out)]) == 0
            files = sorted((out / "checkpoint").glob("*.femb")) + [out / "loss_history.csv"]
            written[seed] = {path.relative_to(out): path.read_bytes() for path in files}
        assert written["7"] == written["0"]

    def test_eval_bytes_independent_of_worker_count(self, trained, monkeypatch):
        # The eval set is read block by block from its bag files; blocks of
        # 7 rows straddle its 20-row bags. The bytes match at 1, 2 and 3
        # workers, and match an eval of the same set loaded in memory.
        tmp = trained["tmp"]
        eval_cfg = write_json(
            tmp / "eval.json",
            {"dataset": str(trained["manifest"]), "checkpoint": str(trained["checkpoint"]),
             "tune": {"dataset": str(trained["manifest"]), "split": str(trained["split"])},
             "pooling": "topk_mean"},
        )
        cache, _ = restore(trained["checkpoint"])
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 7 * cache.n_cache)
        names = ("eval.json", "eval.csv", "alpha_sweep.csv")
        written = {}
        for workers in (1, 2, 3, "in-memory"):
            if workers == "in-memory":
                monkeypatch.setattr(cli, "read_layout", load_manifest)
            else:
                monkeypatch.setattr(numerics, "_WORKERS", workers)
            out = tmp / f"eval_{workers}"
            assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0
            written[workers] = [(out / name).read_bytes() for name in names]
        assert written[1] == written[2] == written[3] == written["in-memory"]

    def test_layout_path_writes_the_in_memory_bytes(self, trained, monkeypatch):
        # sample, train and a file-source sweep read their rows through
        # read_layout's store; the same commands over the manifest loaded in
        # memory write the same bytes.
        tmp = trained["tmp"]
        manifest, prompts = str(trained["manifest"]), str(trained["prompts"])
        test_manifest = save_dataset(synth_generate(SynthSpec(**{**SPEC_DOC, "seed": 9})),
                                     tmp / "test_data")
        sample_cfg = write_json(tmp / "s.json", {"dataset": manifest, "bag_shot": 2,
                                                 "instance_shot": 3, "seed": 1})
        source = {"kind": "file", "train_manifest": manifest,
                  "test_manifest": str(test_manifest), "prompt_features": prompts}
        sweep_cfg = write_json(tmp / "exp.json", {**SWEEP_DOC, "source": source, "repeats": 2})
        written = {}
        for path in ("layout", "in-memory"):
            if path == "in-memory":
                monkeypatch.setattr(cli, "read_layout", load_manifest)
                monkeypatch.setattr(encoders, "read_layout", load_manifest)
            out = tmp / path
            assert main(["sample", "--config", sample_cfg, "--out", str(out)]) == 0
            train_cfg = write_json(tmp / f"t_{path}.json",
                                   {"dataset": manifest, "split": str(out / "split.json"),
                                    "prompt": prompts, "train": {"steps": 20}})
            assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
            assert main(["sweep", "--config", sweep_cfg, "--out", str(out / "sweep")]) == 0
            files = [out / "split.json", out / "loss_history.csv",
                     *sorted((out / "checkpoint").iterdir()), out / "sweep" / "record.json"]
            written[path] = {f.relative_to(out): f.read_bytes() for f in files}
        assert len(written["layout"]) > 4
        assert written["layout"] == written["in-memory"]

    def test_eval_single_label_bags_flags_undefined(self, tmp_path, rng):
        # all test bags share one label: bag AUC must be flagged, exit 0
        ds = synth_generate(SynthSpec(**SPEC_DOC))
        ds.bags = [b for b in ds.bags if b.label == 0]
        rows = np.concatenate([ds.store.rows[b.start:b.end] for b in ds.bags])
        cursor = 0
        for b in ds.bags:
            n = b.n
            b.start, b.end = cursor, cursor + n
            cursor += n
        from fewcache.dataset import EmbeddingStore

        ds.store = EmbeddingStore.from_array(rows)
        manifest = save_dataset(ds, tmp_path / "single")

        full = synth_generate(SynthSpec(**SPEC_DOC))
        full_manifest = save_dataset(full, tmp_path / "full")
        sample_cfg = write_json(
            tmp_path / "s.json",
            {"dataset": str(full_manifest), "bag_shot": 2, "instance_shot": 3},
        )
        assert main(["sample", "--config", sample_cfg, "--out", str(tmp_path)]) == 0
        prompts = tmp_path / "p.femb"
        write_embeddings(prompts, np.eye(2, 8).astype(np.float32))
        train_cfg = write_json(
            tmp_path / "t.json",
            {"dataset": str(full_manifest), "split": str(tmp_path / "split.json"),
             "prompt": str(prompts), "train": {"steps": 10}},
        )
        assert main(["train", "--config", train_cfg, "--out", str(tmp_path)]) == 0
        eval_cfg = write_json(
            tmp_path / "e.json",
            {"dataset": str(manifest), "checkpoint": str(tmp_path / "checkpoint"),
             "alpha": 1.0},
        )
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["bag_auc"]["macro"] is None


    def test_eval_single_class_tune_split_falls_back_to_half(self, trained):
        tmp = trained["tmp"]
        split = load_split(trained["split"])
        keep = split.labeled_classes == split.labeled_classes[0]
        one_class = replace(split, labeled_rows=split.labeled_rows[keep],
                            labeled_classes=split.labeled_classes[keep])
        save_split(one_class, tmp / "one_class.json")
        eval_cfg = write_json(
            tmp / "eval.json",
            {"dataset": str(trained["manifest"]), "checkpoint": str(trained["checkpoint"]),
             "tune": {"dataset": str(trained["manifest"]), "split": str(tmp / "one_class.json")}},
        )
        out = tmp / "eval"
        assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["alpha"] == 0.5
        assert doc["flags"] == {"alpha_degenerate_tuning": True}
        assert not (out / "alpha_sweep.csv").exists()

    def test_sample_with_fewer_distinct_rows_than_k(self, tmp_path):
        # Each bag repeats 2 rows 10 times (as blank tiles do), so the 40
        # selected rows hold 4 distinct rows against k = 20 clusters.
        ds = synth_generate(SynthSpec(**{**SPEC_DOC, "bags_per_class": 1}))
        for bag in ds.bags:
            ds.store.rows[bag.start:bag.end] = np.tile(ds.store.rows[bag.start:bag.start + 2],
                                                       (10, 1))
        manifest = save_dataset(ds, tmp_path / "data")
        doc = {"bag_shot": 1, "instance_shot": 1, "coreset_fraction": 0.5}
        sample_cfg = write_json(tmp_path / "s.json", {"dataset": str(manifest), **doc})
        assert main(["sample", "--config", sample_cfg, "--out", str(tmp_path)]) == 0
        split = load_split(tmp_path / "split.json")
        split.check(load_manifest(manifest), FewShotSpec(**doc))
        assert 1 <= split.n_cache <= 4


class TestSweepAndReport:
    def test_sweep_then_report(self, tmp_path):
        sweep_cfg = write_json(
            tmp_path / "exp.json",
            {
                "source": {"kind": "synthetic", "spec": SPEC_DOC,
                           "test_bags_per_class": 2, "prompt_sigma": 0.3,
                           "prompt_seed": 1},
                "bag_shots": [2],
                "instance_shots": [3],
                "train": {"steps": 30},
                "repeats": 2,
            },
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", sweep_cfg, "--out", str(out)]) == 0
        for name in ("record.json", "metadata.json", "report.csv", "report.json"):
            assert (out / name).exists()

        report_cfg = write_json(
            tmp_path / "rep.json", {"record": str(out / "record.json")}
        )
        out2 = tmp_path / "report_out"
        assert main(["report", "--config", report_cfg, "--out", str(out2)]) == 0
        assert (out2 / "report.csv").read_bytes() == (out / "report.csv").read_bytes()

        # record.json keeps its config as written, so a record whose train
        # block names keys TrainConfig no longer has still reports.
        record = json.loads((out / "record.json").read_text())
        record["config"]["train"].update(batch_size=None, seed=0, cache_loss_weight=1.0,
                                         prompt_loss_weight=1.0)
        write_json(out / "record.json", record)
        out3 = tmp_path / "old_keys_report"
        assert main(["report", "--config", report_cfg, "--out", str(out3)]) == 0
        assert (out3 / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


class TestGradcheckCommand:
    def test_exit_zero_when_all_pass(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json", {"n_configs": 10})
        assert main(["gradcheck", "--config", cfg, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3


SWEEP_DOC = {"source": {"kind": "synthetic", "spec": SPEC_DOC, "test_bags_per_class": 2},
             "bag_shots": [2], "instance_shots": [3], "train": {"steps": 5}, "repeats": 1}

MALFORMED_SWEEP_CONFIGS = [
    pytest.param([SWEEP_DOC], id="not-an-object"),
    pytest.param({**SWEEP_DOC, "train": {"step": 5}}, id="nested-unknown-key"),
    pytest.param({**SWEEP_DOC, "bag_shot": 2}, id="top-level-unknown-key"),
    pytest.param({k: v for k, v in SWEEP_DOC.items() if k != "source"}, id="missing-source"),
    pytest.param({**SWEEP_DOC, "source": {"kind": "synthetic"}}, id="source-without-spec"),
    pytest.param({**SWEEP_DOC, "source": {**SWEEP_DOC["source"], "prompt_sigm": 0.3}},
                 id="source-key-typo"),
    pytest.param({**SWEEP_DOC, "source": {**SWEEP_DOC["source"], "spec": {**SPEC_DOC, "dims": 3}}},
                 id="unknown-spec-key"),
    pytest.param({**SWEEP_DOC, "train": {"steps": "5"}}, id="steps-not-a-number"),
    pytest.param({**SWEEP_DOC, "base_seed": "0"}, id="seed-not-a-number"),
    pytest.param({**SWEEP_DOC, "repeats": 0}, id="zero-repeats"),
    pytest.param({**SWEEP_DOC, "per_bag": "yes"}, id="bool-flag-not-a-bool"),
    pytest.param({**SWEEP_DOC, "cache_only": True}, id="removed-cache-only-flag"),
    pytest.param({**SWEEP_DOC, "prior_mode": "bogus"}, id="unknown-prior-mode"),
    pytest.param({**SWEEP_DOC, "pooling": "bogus"}, id="unknown-pooling"),
    pytest.param({**SWEEP_DOC, "grid_points": 0}, id="zero-grid-points"),
    pytest.param({**SWEEP_DOC, "source": {"kind": "synthetic", "spec": SPEC_DOC}},
                 id="source-without-test-set"),
    pytest.param({**SWEEP_DOC, "train": {"steps": 5, "lr_keys": float("nan")}}, id="nan-lr"),
    pytest.param({**SWEEP_DOC, "prior_tau": float("inf")}, id="infinite-prior-tau"),
    pytest.param({**SWEEP_DOC, "cache_beta": float("nan")}, id="nan-cache-beta"),
    pytest.param({**SWEEP_DOC, "source": {**SWEEP_DOC["source"],
                                          "spec": {**SPEC_DOC, "noise_sigma": -0.6}}},
                 id="negative-noise-sigma"),
    pytest.param({**SWEEP_DOC, "source": {**SWEEP_DOC["source"], "prompt_sigma": -0.45}},
                 id="negative-prompt-sigma"),
    pytest.param({**SWEEP_DOC, "source": {**SWEEP_DOC["source"], "kind": "syntehtic"}},
                 id="source-kind-typo"),
    pytest.param({**SWEEP_DOC, "coreset_fraction": 0}, id="zero-coreset-fraction"),
    pytest.param({**SWEEP_DOC, "bag_shots": [1, 0]}, id="zero-bag-shot"),
    pytest.param({**SWEEP_DOC, "prior_tau": 0}, id="zero-prior-tau"),
    pytest.param({**SWEEP_DOC, "base_seed": -1}, id="negative-base-seed"),
]

# "@manifest", "@split", "@checkpoint", "@prompts" and "@record" stand for
# the paths of the `trained` fixture.
_TUNE = {"dataset": "@manifest", "split": "@split"}
BASE_COMMAND_CONFIGS = {
    "sample": {"dataset": "@manifest", "bag_shot": 1, "instance_shot": 2},
    "eval": {"dataset": "@manifest", "checkpoint": "@checkpoint"},
    "train": {"dataset": "@manifest", "split": "@split", "prompt": "@prompts",
              "train": {"steps": 5}},
    "report": {"record": "@record"},
    "gradcheck": {},
}

MALFORMED_COMMAND_CONFIGS = [
    pytest.param("sample", {"dataset": 5}, id="sample-dataset-not-a-string-int"),
    pytest.param("sample", {"dataset": ["@manifest"]}, id="sample-dataset-not-a-string-list"),
    pytest.param("sample", {"seed": -1}, id="sample-negative-seed"),
    pytest.param("sample", {"seed": 2**63}, id="sample-seed-past-int64"),
    pytest.param("eval", {"pooling": "bogus"}, id="eval-unknown-pooling"),
    pytest.param("eval", {"alpah": 0.9}, id="eval-alpha-typo"),
    pytest.param("eval", {"tune": {"dataset": "@manifest"}}, id="eval-tune-without-split"),
    pytest.param("eval", {"alpha": 1.5}, id="eval-alpha-above-1"),
    pytest.param("eval", {"alpha": "0.5"}, id="eval-alpha-string"),
    pytest.param("eval", {"tune": _TUNE, "grid_points": 0}, id="eval-zero-grid-points"),
    pytest.param("train", {"trian": {"steps": 5}}, id="train-typo"),
    pytest.param("train", {"cache_beta": "x"}, id="train-beta-string"),
    pytest.param("train", {"prior_tau": 0}, id="train-zero-prior-tau"),
    pytest.param("train", {"prior_mode": "toy-encoder", "toy_tokens_per_class": -1},
                 id="train-negative-toy-tokens"),
    pytest.param("train", {"prior_mode": "toy-encoder", "toy_token_width": 0},
                 id="train-zero-toy-width"),
    pytest.param("train", {"prior_mode": "toy-encoder", "toy_seed": -1},
                 id="train-negative-toy-seed"),
    pytest.param("report", {"formats": ["xml"]}, id="report-unknown-format"),
    pytest.param("report", {"fromats": ["csv"]}, id="report-formats-typo"),
    pytest.param("gradcheck", {"n_configs": "x"}, id="gradcheck-n-configs-string"),
]


def assert_one_usage_line(err: str) -> None:
    assert err.startswith("error: usage: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestErrors:
    @pytest.mark.parametrize("doc", MALFORMED_SWEEP_CONFIGS)
    def test_malformed_sweep_config_exits_2(self, tmp_path, capsys, doc):
        cfg = write_json(tmp_path / "exp.json", doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert_one_usage_line(capsys.readouterr().err)
        assert not (out / "record.json").exists()

    def test_sweep_on_test_set_without_instance_labels_exits_2(self, files, tmp_path, capsys):
        ds = synth_generate(SynthSpec(**SPEC_DOC))
        for bag in ds.bags:
            bag.instance_labels = None
        source = {"kind": "file", "train_manifest": str(files / "data" / "manifest.json"),
                  "test_manifest": str(save_dataset(ds, tmp_path / "unlabeled")),
                  "prompt_features": str(files / "prompts.femb")}
        cfg = write_json(tmp_path / "exp.json", {**SWEEP_DOC, "source": source})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert_one_usage_line(capsys.readouterr().err)
        assert not (out / "record.json").exists()

    @pytest.mark.parametrize("key", ["train_manifest", "prompt_features", "test_manifest"])
    def test_sweep_file_source_missing_file_exits_2(self, files, tmp_path, capsys, key):
        manifest = str(files / "data" / "manifest.json")
        source = {"kind": "file", "train_manifest": manifest, "test_manifest": manifest,
                  "prompt_features": str(files / "prompts.femb"), key: str(tmp_path / "nope")}
        cfg = write_json(tmp_path / "exp.json", {**SWEEP_DOC, "source": source})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert_one_usage_line(captured.err)
        assert f"not found: {tmp_path / 'nope'}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_train_missing_prompt_file_exits_2(self, pipeline_dirs, capsys):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
             "prompt": str(tmp / "nope.femb"), "train": {"steps": 5}},
        )
        capsys.readouterr()
        assert main(["train", "--config", train_cfg, "--out", str(tmp / "run")]) == 2
        captured = capsys.readouterr()
        assert_one_usage_line(captured.err)
        assert "prompt file not found" in captured.err
        assert captured.out == ""
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param({"spec": 5}, "SynthSpec must be a JSON object", id="spec-not-an-object"),
            pytest.param({"spec": {**SPEC_DOC, "dims": 3}}, "unknown key(s) 'dims'",
                         id="nested-spec-unknown-key"),
            pytest.param({**SPEC_DOC, "sigma": 0.1}, "unknown key(s) 'sigma'",
                         id="flat-spec-unknown-key"),
            pytest.param({"spec": SPEC_DOC, "nmae": "x"}, "unknown key(s) 'nmae'",
                         id="stray-key-beside-spec"),
            pytest.param({**SPEC_DOC, "noise_sigma": -0.6}, "noise_sigma must be >= 0",
                         id="negative-noise-sigma"),
        ],
    )
    def test_malformed_synth_config_exits_2(self, tmp_path, capsys, doc, message):
        cfg = write_json(tmp_path / "synth.json", doc)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 2
        err = capsys.readouterr().err
        assert_one_usage_line(err)
        assert message in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command, source", [
        ("synth", {"spec": {**SPEC_DOC, "noise_sigma": 1e308}}),
        ("sweep", {**SWEEP_DOC, "source": {**SWEEP_DOC["source"],
                                           "spec": {**SPEC_DOC, "noise_sigma": 1e308}}}),
        ("sweep", {**SWEEP_DOC, "source": {**SWEEP_DOC["source"], "prompt_sigma": 1e308}}),
    ], ids=["synth-noise", "sweep-noise", "sweep-prompt-noise"])
    def test_overflowing_noise_exits_1_with_one_line(self, tmp_path, capsys, command, source):
        cfg = write_json(tmp_path / "config.json", source)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: NonFiniteInputError: normalize input contains NaN or infinity\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "prompt_mode, train, message",
        [
            pytest.param("bogus", {"steps": 5}, "unknown prior mode 'bogus'",
                         id="unknown-prompt-mode"),
            pytest.param("prototype", 5, "TrainConfig must be a JSON object",
                         id="train-not-an-object"),
            pytest.param("prototype", {"steps": 5, "batch_size": 8},
                         "unknown key(s) 'batch_size'", id="removed-batch-size-key"),
        ],
    )
    def test_malformed_train_config_exits_2(self, pipeline_dirs, capsys, prompt_mode, train,
                                            message):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
             "prompt": str(pipeline_dirs["prompts"]), "prior_mode": prompt_mode,
             "train": train},
        )
        capsys.readouterr()
        assert main(["train", "--config", train_cfg, "--out", str(tmp / "run")]) == 2
        err = capsys.readouterr().err
        assert_one_usage_line(err)
        assert message in err
        assert not (tmp / "run" / "checkpoint").exists()

    @pytest.mark.parametrize("command, overrides", MALFORMED_COMMAND_CONFIGS)
    def test_malformed_command_config_exits_2(self, trained, capsys, command, overrides):
        tmp = trained["tmp"]
        text = json.dumps({**BASE_COMMAND_CONFIGS[command], **overrides})
        for key in ("manifest", "split", "checkpoint", "prompts", "record"):
            text = text.replace(f'"@{key}"', json.dumps(str(trained[key])))
        cfg = tmp / "malformed.json"
        cfg.write_text(text)
        out = tmp / "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert_one_usage_line(captured.err)
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_required_config_exits_2(self):
        assert main(["synth"]) == 2

    def test_train_prompt_shape_conflict_exits_1(self, pipeline_dirs, capsys):
        tmp = pipeline_dirs["tmp"]
        write_embeddings(pipeline_dirs["prompts"], np.eye(2, 4))
        train_cfg = write_json(
            tmp / "train.json",
            {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
             "prompt": str(pipeline_dirs["prompts"]), "train": {"steps": 5}},
        )
        capsys.readouterr()
        assert main(["train", "--config", train_cfg, "--out", str(tmp / "run")]) == 1
        err = capsys.readouterr().err
        assert assert_one_domain_line(err) == "DimensionConflictError"
        assert "prompt-feature dim 4" in err
        assert not (tmp / "run").exists()

    def test_eval_corrupt_checkpoint_exits_1(self, pipeline_dirs, capsys):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
             "prompt": str(pipeline_dirs["prompts"]), "train": {"steps": 5}},
        )
        assert main(["train", "--config", train_cfg, "--out", str(tmp / "run")]) == 0
        sidecar_path = tmp / "run" / "checkpoint" / "checkpoint.json"
        sidecar = json.loads(sidecar_path.read_text())
        mask = sidecar["cache"]["frozen_mask"]
        sidecar["cache"]["frozen_mask"] = mask[: len(mask) // 2]
        sidecar_path.write_text(json.dumps(sidecar))
        eval_cfg = write_json(
            tmp / "eval.json",
            {"dataset": str(pipeline_dirs["manifest"]),
             "checkpoint": str(tmp / "run" / "checkpoint"), "alpha": 0.5},
        )
        capsys.readouterr()
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CorruptCheckpointError")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("role", ["dataset", "tune"])
    @pytest.mark.parametrize(
        "spec, classes",
        [
            pytest.param({"num_classes": 3}, ["class_0", "class_1", "class_2"],
                         id="class-count"),
            pytest.param({}, ["normal", "tumor"], id="class-names"),
        ],
    )
    def test_eval_class_mismatch_exits_1(self, trained, capsys, role, spec, classes):
        # The checkpoint holds classes ['class_0', 'class_1']; the eval
        # dataset or the tune dataset holds other ones.
        tmp = trained["tmp"]
        other = synth_generate(SynthSpec(**{**SPEC_DOC, **spec}))
        other.classes = classes
        other_manifest = save_dataset(other, tmp / "other")
        save_split(sample_split(other, FewShotSpec(bag_shot=2, instance_shot=3)),
                   tmp / "other_split.json")
        doc = {"dataset": str(trained["manifest"]), "checkpoint": str(trained["checkpoint"])}
        if role == "dataset":
            doc.update(dataset=str(other_manifest), alpha=0.5)
        else:
            doc["tune"] = {"dataset": str(other_manifest), "split": str(tmp / "other_split.json")}
        eval_cfg = write_json(tmp / "eval.json", doc)
        capsys.readouterr()
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp / "eval")]) == 1
        err = capsys.readouterr().err
        assert assert_one_domain_line(err) == "DimensionConflictError"
        assert "['class_0', 'class_1']" in err and str(classes) in err
        assert not (tmp / "eval").exists()

    def test_eval_checkpoint_dim_mismatch_exits_1(self, trained, capsys):
        # The checkpoint was trained on d=8 rows; the eval set holds d=16.
        tmp = trained["tmp"]
        wide = save_dataset(synth_generate(SynthSpec(**{**SPEC_DOC, "dim": 16})), tmp / "wide")
        eval_cfg = write_json(
            tmp / "eval.json",
            {"dataset": str(wide), "checkpoint": str(trained["checkpoint"]), "alpha": 0.5},
        )
        capsys.readouterr()
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp / "eval")]) == 1
        err = capsys.readouterr().err
        assert assert_one_domain_line(err) == "ShapeMismatchError"
        assert "query dim 16 != key dim 8" in err
        assert not (tmp / "eval").exists()

    def test_eval_nan_in_last_bag_exits_1(self, trained, capsys):
        tmp = trained["tmp"]
        data = tmp / "nan"
        shutil.copytree(trained["manifest"].parent, data)
        last = json.loads((data / "manifest.json").read_text())["bags"][-1]["embeddings"]
        femb = data / last
        blob = femb.read_bytes()
        femb.write_bytes(blob[:-4] + struct.pack("<f", np.nan))
        eval_cfg = write_json(
            tmp / "eval.json",
            {"dataset": str(data / "manifest.json"), "checkpoint": str(trained["checkpoint"]),
             "alpha": 0.5},
        )
        capsys.readouterr()
        assert main(["eval", "--config", eval_cfg, "--out", str(tmp / "eval")]) == 1
        err = capsys.readouterr().err
        assert assert_one_domain_line(err) == "NonFiniteValueError"
        assert last in err
        assert not (tmp / "eval").exists()

    @pytest.mark.parametrize("role", ["train_manifest", "test_manifest"])
    def test_sweep_file_source_nan_exits_1(self, files, tmp_path, capsys, role):
        # Runs read only their rows, so the source's rows are all checked
        # once before any run: a NaN fails the sweep, not one of its runs.
        data = tmp_path / "nan"
        shutil.copytree(files / "data", data)
        last = json.loads((data / "manifest.json").read_text())["bags"][-1]["embeddings"]
        femb = data / last
        femb.write_bytes(femb.read_bytes()[:-4] + struct.pack("<f", np.nan))
        manifest = str(files / "data" / "manifest.json")
        source = {"kind": "file", "train_manifest": manifest, "test_manifest": manifest,
                  "prompt_features": str(files / "prompts.femb"),
                  role: str(data / "manifest.json")}
        cfg = write_json(tmp_path / "exp.json", {**SWEEP_DOC, "source": source})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert assert_one_domain_line(captured.err) == "NonFiniteValueError"
        assert last in captured.err
        assert captured.out == ""
        assert not (out / "record.json").exists()

    def test_label_error_before_nan_from_every_command(self, trained, rng, capsys):
        # Bag 0 holds a NaN and bag 1's instance labels hold a 7. Every
        # command checks all the labels before it reads a row, so each
        # reports the label.
        tmp = trained["tmp"]
        data = tmp / "two_faults"
        data.mkdir()
        bags = []
        for i in range(2):
            rows = rng.normal(size=(4, 8)).astype(np.float32)
            if i == 0:
                rows[1, 2] = np.nan
            write_embeddings(data / f"b{i}.femb", rows)
            write_json(data / f"b{i}.labels.json", [0, 0, 7 if i else 1, 0])
            bags.append({"id": f"b{i}", "label": i, "embeddings": f"b{i}.femb", "n": 4,
                         "instance_labels": f"b{i}.labels.json"})
        manifest = write_json(data / "manifest.json",
                              {"dim": 8, "classes": ["neg", "pos"], "bags": bags})
        configs = {
            "sample": {"dataset": manifest, "bag_shot": 1, "instance_shot": 1},
            "train": {"dataset": manifest, "split": str(trained["split"]),
                      "prompt": str(trained["prompts"]), "train": {"steps": 5}},
            "eval": {"dataset": manifest, "checkpoint": str(trained["checkpoint"]),
                     "alpha": 0.5},
        }
        for command, doc in configs.items():
            cfg = write_json(tmp / f"two_faults_{command}.json", doc)
            capsys.readouterr()
            assert main([command, "--config", cfg, "--out", str(tmp / command)]) == 1
            assert capsys.readouterr().err == (
                "error: LabelRangeError: bag 'b1' instance label out of range [0, 2)\n"), command
            assert not (tmp / command).exists()

    def test_domain_error_exits_1(self, tmp_path, capsys):
        # valid config, but sampling asks for more bags than exist
        data_dir = tmp_path / "d"
        cfg = write_json(tmp_path / "synth.json", {"spec": SPEC_DOC})
        assert main(["synth", "--config", cfg, "--out", str(data_dir)]) == 0
        sample_cfg = write_json(
            tmp_path / "s.json",
            {"dataset": str(data_dir / "manifest.json"),
             "bag_shot": 50, "instance_shot": 3},
        )
        assert main(["sample", "--config", sample_cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InsufficientBagsError")
        assert "\n" not in err.strip()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Pristine inputs for the file-format tests: a dataset, its split, a
    prompt file and a checkpoint per prior mode. Tests work on copies and
    never write here."""
    tmp = tmp_path_factory.mktemp("files")
    manifest = tmp / "data" / "manifest.json"
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", write_json(tmp / "synth.json", {"spec": SPEC_DOC}),
                     "--out", str(tmp / "data")]) == 0
        sample_doc = {"dataset": str(manifest), "bag_shot": 2, "instance_shot": 3}
        assert main(["sample", "--config", write_json(tmp / "sample.json", sample_doc),
                     "--out", str(tmp)]) == 0
        write_embeddings(tmp / "prompts.femb", np.eye(2, 8))
        for mode in ("prototype", "toy-encoder"):
            train_doc = {"dataset": str(manifest), "split": str(tmp / "split.json"),
                         "prompt": str(tmp / "prompts.femb"), "prior_mode": mode,
                         "train": {"steps": 5}}
            assert main(["train", "--config", write_json(tmp / f"{mode}.json", train_doc),
                         "--out", str(tmp / mode)]) == 0
    return tmp


# Each format copies the pristine file under test into `work` and returns its
# path there and the command (without --out) that reads it.
def _manifest(files, work):
    shutil.copytree(files / "data", work / "data")
    doc = {"dataset": str(work / "data" / "manifest.json"), "bag_shot": 2, "instance_shot": 3}
    return work / "data" / "manifest.json", ["sample", "--config", write_json(work / "s.json", doc)]


def _train_doc(files, split=None):
    return {"dataset": str(files / "data" / "manifest.json"),
            "split": str(split or files / "split.json"),
            "prompt": str(files / "prompts.femb"), "train": {"steps": 5}}


def _split(files, work):
    shutil.copy(files / "split.json", work / "split.json")
    doc = _train_doc(files, split=work / "split.json")
    return work / "split.json", ["train", "--config", write_json(work / "t.json", doc)]


def _tune_split(files, work):
    shutil.copy(files / "split.json", work / "split.json")
    doc = {"dataset": str(files / "data" / "manifest.json"),
           "checkpoint": str(files / "prototype" / "checkpoint"),
           "tune": {"dataset": str(files / "data" / "manifest.json"),
                    "split": str(work / "split.json")}}
    return work / "split.json", ["eval", "--config", write_json(work / "e.json", doc)]


def _checkpoint(mode):
    def setup(files, work):
        shutil.copytree(files / mode / "checkpoint", work / "ckpt")
        doc = {"dataset": str(files / "data" / "manifest.json"),
               "checkpoint": str(work / "ckpt"), "alpha": 0.5}
        return work / "ckpt" / "checkpoint.json", ["eval", "--config",
                                                   write_json(work / "e.json", doc)]
    return setup


def _train_config(files, work):
    path = Path(write_json(work / "t.json", _train_doc(files)))
    return path, ["train", "--config", str(path)]


FILE_FORMATS = {
    "manifest": _manifest,
    "split": _split,
    "tune-split": _tune_split,
    "checkpoint": _checkpoint("prototype"),
    "toy-checkpoint": _checkpoint("toy-encoder"),
    "train-config": _train_config,
}
# Keys a document may omit; dropping "train" or "steps" would train 2000 steps.
OPTIONAL_KEYS = {"name", "instance_labels", "train", "steps"}


def _at(doc, path):
    """The container holding path[-1], and that key."""
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def drop(*path):
    def mutate(doc, text):
        parent, key = _at(doc, path)
        del parent[key]
        return json.dumps(doc)
    return mutate


def put(*path, value):
    def mutate(doc, text):
        parent, key = _at(doc, path)
        parent[key] = value
        return json.dumps(doc)
    return mutate


def retype(*path):
    """Give the value at `path` another JSON type."""
    def mutate(doc, text):
        parent, key = _at(doc, path)
        return put(*path, value=7 if isinstance(parent[key], str) else "x")(doc, text)
    return mutate


def truncate(n):
    return lambda doc, text: text[:n]


def as_array(doc, text):
    return json.dumps([doc])


def _paths(doc, prefix=()):
    """A path to every key and to the first item of every list in `doc`,
    outside the free-form split flags."""
    items = doc.items() if isinstance(doc, dict) else list(enumerate(doc))[:1]
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and key != "flags":
            yield from _paths(value, prefix + (key,))


def delete(doc, text):
    return None


def run_mutated(files, fmt, mutate):
    """Mutate one file of `fmt` in a scratch copy (a None mutant deletes it)
    and run the command that reads it; returns (exit code, stdout, stderr,
    whether --out exists)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path, argv = FILE_FORMATS[fmt](files, work)
        text = path.read_text()
        mutant = mutate(json.loads(text), text)
        if mutant is None:
            path.unlink()
        else:
            path.write_text(mutant)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--out", str(work / "out")])
        return code, out.getvalue(), err.getvalue(), (work / "out").exists()


def assert_one_domain_line(err: str) -> str:
    """The stderr of an exit-1 run: one line naming a FewcacheError subclass."""
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    match = re.match(r"error: (\w+): ", err)
    assert match, err
    cls = getattr(errors, match.group(1))
    assert issubclass(cls, errors.FewcacheError) and not issubclass(cls, errors.UsageError)
    return match.group(1)


class TestFileFormats:
    @pytest.mark.parametrize(
        "fmt, mutate, error",
        [
            pytest.param("manifest", drop("classes"), "ManifestFormatError",
                         id="manifest-without-classes"),
            pytest.param("manifest", put("bags", 0, "n", value="x"), "ManifestFormatError",
                         id="manifest-n-string"),
            pytest.param("manifest", truncate(100), "ManifestFormatError",
                         id="manifest-truncated"),
            pytest.param("split", drop("selected_bags"), "SplitError",
                         id="split-without-selected-bags"),
            pytest.param("split", put("labeled", 0, value=[0]), "SplitError",
                         id="split-labeled-entry-without-class"),
            pytest.param("split", put("version", value=7), "SplitError", id="split-version-7"),
            pytest.param("split", put("labeled", value=[[99999, 0]]), "SplitError",
                         id="split-row-past-store"),
            pytest.param("tune-split", put("labeled", value=[[99999, 0]]), "SplitError",
                         id="tune-split-row-past-store"),
            pytest.param("split", put("labeled", value=[[0, 5]]), "SplitError",
                         id="split-class-out-of-range"),
            pytest.param("split", put("labeled", 0, 0, value=2**63), "SplitError",
                         id="split-row-past-int64"),
            pytest.param("split", lambda doc, text: json.dumps(
                             {**doc, "labeled": [[3, 0], [3, 1]], "unlabeled_core": [3, 4]}),
                         "SplitError", id="split-row-listed-twice"),
            pytest.param("split", put("labeled", value=[]), "SplitError",
                         id="split-without-labeled-rows"),
            pytest.param("split", lambda doc, text: json.dumps(
                             {**doc, "labeled": [], "unlabeled_core": []}),
                         "SplitError", id="split-without-rows"),
            pytest.param("checkpoint", drop("prior", "tau"), "CorruptCheckpointError",
                         id="checkpoint-without-prior-tau"),
            pytest.param("checkpoint", drop("cache"), "CorruptCheckpointError",
                         id="checkpoint-without-cache"),
            pytest.param("checkpoint", put("cache", "beta", value="x"),
                         "CorruptCheckpointError", id="checkpoint-beta-string"),
            pytest.param("checkpoint", as_array, "CorruptCheckpointError",
                         id="checkpoint-array"),
            pytest.param("checkpoint", lambda doc, text: '{"version": 2}',
                         "CheckpointVersionError", id="checkpoint-version-before-keys"),
            pytest.param("toy-checkpoint", put("prior", "tokens_per_class", value=3),
                         "CorruptCheckpointError", id="toy-checkpoint-wrong-token-count"),
            pytest.param("checkpoint", delete, "CorruptCheckpointError",
                         id="checkpoint-json-missing"),
        ],
    )
    def test_malformed_file_exits_1(self, files, fmt, mutate, error):
        code, out, err, wrote = run_mutated(files, fmt, mutate)
        assert code == 1
        assert assert_one_domain_line(err) == error
        assert out == "" and not wrote

    def test_label_past_int64_exits_1(self, files, tmp_path, capsys):
        # numpy holds labels as int64; 2^63 is a ManifestFormatError, not an
        # OverflowError traceback.
        shutil.copytree(files / "data", tmp_path / "data")
        label_file = sorted((tmp_path / "data" / "embeddings").glob("*.labels.json"))[0]
        labels = json.loads(label_file.read_text())
        label_file.write_text(json.dumps([2**63] + labels[1:]))
        doc = {"dataset": str(tmp_path / "data" / "manifest.json"), "bag_shot": 2,
               "instance_shot": 3}
        out = tmp_path / "out"
        assert main(["sample", "--config", write_json(tmp_path / "s.json", doc),
                     "--out", str(out)]) == 1
        assert assert_one_domain_line(capsys.readouterr().err) == "ManifestFormatError"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", [f for f in FILE_FORMATS if f != "tune-split"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_file_named_error(self, files, fmt, data):
        with tempfile.TemporaryDirectory() as tmp:
            text = FILE_FORMATS[fmt](files, Path(tmp))[0].read_text()
        paths = list(_paths(json.loads(text)))
        kind = data.draw(st.sampled_from(["drop", "retype", "truncate", "array"]))
        if kind == "drop":
            droppable = [p for p in paths
                         if isinstance(p[-1], str) and p[-1] not in OPTIONAL_KEYS]
            mutate = drop(*data.draw(st.sampled_from(droppable)))
        elif kind == "retype":
            mutate = retype(*data.draw(st.sampled_from(paths)))
        elif kind == "truncate":
            mutate = truncate(data.draw(st.integers(0, len(text) - 1)))
        else:
            mutate = as_array
        code, out, err, wrote = run_mutated(files, fmt, mutate)
        if fmt == "train-config":
            assert code == 2
            assert_one_usage_line(err)
        else:
            assert code == 1
            assert_one_domain_line(err)
        assert out == "" and not wrote
