import csv
import json
import multiprocessing
import platform
import subprocess
import threading

import numpy as np
import pytest

from fewcache import cli, harness, numerics
from fewcache.codec import from_doc, to_doc
from fewcache.dataset import SynthSpec, save_dataset, synth_generate, write_embeddings
from fewcache.harness import (
    ExperimentConfig,
    config_hash,
    emit_report,
    load_run_record,
    report_rows,
    run_experiment,
    write_run_record,
)
from fewcache.sampler import FewShotSpec, sample_split, save_split
from fewcache.trainer import TrainConfig

TINY_SOURCE = {
    "kind": "synthetic",
    "spec": {"num_classes": 2, "dim": 16, "bags_per_class": 4,
             "instances_per_bag": 40, "positive_fraction": 0.3,
             "noise_sigma": 0.3, "seed": 2},
    "test_bags_per_class": 3,
    "prompt_sigma": 0.3,
    "prompt_seed": 1,
}


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        source=TINY_SOURCE,
        bag_shots=(2,),
        instance_shots=(4,),
        train=TrainConfig(steps=60),
        repeats=2,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_record():
    return run_experiment(tiny_config())


class TestRunExperiment:
    def test_reports_per_cell(self, tiny_record):
        cell = tiny_record.cell(2)
        assert len(cell.reports) == 2
        assert cell.failures == []
        assert cell.aggregates["n_runs"] == 2

    def test_seeds_are_base_plus_index(self, tiny_record):
        assert [r.seed for r in tiny_record.cell(2).reports] == [0, 1]

    def test_cell_failure_recorded_not_fatal(self):
        record = run_experiment(tiny_config(bag_shots=(2, 100)))
        good = record.cell(2)
        bad = record.cell(100)
        assert len(good.reports) == 2
        assert len(bad.reports) == 0
        assert len(bad.failures) == 2
        assert "InsufficientBagsError" in bad.failures[0]

    def test_unexpected_exception_propagates(self, monkeypatch):
        def broken_train(*args):
            raise RuntimeError("bug in a kernel")

        monkeypatch.setattr(harness, "train", broken_train)
        with pytest.raises(RuntimeError, match="bug in a kernel"):
            run_experiment(tiny_config())

    def test_annotation_ratio_bookkeeping(self, tiny_record):
        report = tiny_record.cell(2).reports[0]
        total = 4 * 40 * 2
        assert report.annotation_ratio == report.labeled_count / total
        assert report.annotation_ratio_percent == 100.0 * report.labeled_count / total

    def test_variant_names(self):
        assert tiny_config().variant_name() == "full"
        assert (
            tiny_config(freeze_keys=True, freeze_value_logits=True).variant_name()
            == "full+frozen_keys+frozen_labels"
        )

    def test_config_round_trip(self):
        cfg = tiny_config(freeze_keys=True)
        doc = to_doc(cfg)
        again = from_doc(ExperimentConfig, json.loads(json.dumps(doc)))
        assert again == cfg
        assert config_hash(to_doc(again)) == config_hash(doc)

    def test_keep_predictions(self):
        record = run_experiment(tiny_config(), keep_predictions=True)
        extras = record.extras[(2, 4)]
        assert len(extras) == 2
        probs = extras[0]["tune_cache_probs"]
        assert probs.shape[1] == 2
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestSerialization:
    def test_record_round_trip(self, tiny_record, tmp_path):
        path = write_run_record(tiny_record, tmp_path)
        loaded = load_run_record(path)
        assert loaded.config_hash == tiny_record.config_hash
        assert loaded.cell(2).aggregates == tiny_record.cell(2).aggregates
        a = loaded.cell(2).reports[0]
        b = tiny_record.cell(2).reports[0]
        assert to_doc(a) == to_doc(b)

    def test_metadata_segregated(self, tiny_record, tmp_path):
        write_run_record(tiny_record, tmp_path)
        record_doc = json.loads((tmp_path / "record.json").read_text())
        meta_doc = json.loads((tmp_path / "metadata.json").read_text())
        assert "wall_clock_seconds" not in json.dumps(record_doc)
        assert "wall_clock_seconds" in meta_doc

    def test_metadata_starts_no_subprocess(self, tiny_record, tmp_path, monkeypatch):
        # A fresh platform.platform() runs `uname -p` in a child process.
        def no_child(*args, **kwargs):
            raise AssertionError("metadata started a subprocess")

        monkeypatch.setattr(platform, "_uname_cache", None)
        monkeypatch.setattr(platform, "_platform_cache", {})
        monkeypatch.setattr(subprocess, "Popen", no_child)
        write_run_record(tiny_record, tmp_path)
        meta_doc = json.loads((tmp_path / "metadata.json").read_text())
        assert meta_doc["platform"].startswith(f"{platform.system()}-")

    def test_deterministic_result_files(self, tmp_path):
        cfg_doc = to_doc(tiny_config())
        for sub in ("a", "b"):
            record = run_experiment(from_doc(ExperimentConfig, cfg_doc))
            out = tmp_path / sub
            write_run_record(record, out)
            emit_report(record, out)
        for name in ("record.json", "report.csv", "report.json",
                     "plot_annotation_ratio.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_report_rows_shape(self, tiny_record):
        rows = report_rows(tiny_record)
        assert len(rows) == 1
        assert rows[0]["bag_shot"] == 2
        assert rows[0]["variant"] == "full"
        assert 0.0 <= rows[0]["instance_auc_mean"] <= 1.0

    def test_report_csv_round_trip(self, tiny_record, tmp_path):
        emit_report(tiny_record, tmp_path)
        with open(tmp_path / "report.csv", newline="") as f:
            loaded = list(csv.DictReader(f))
        expected = report_rows(tiny_record)
        assert len(loaded) == len(expected)
        for got, want in zip(loaded, expected):
            for key, value in want.items():
                parsed = None if got[key] == "" else type(value)(got[key])
                assert parsed == value, key

    def test_unknown_format_rejected(self, tiny_record, tmp_path):
        with pytest.raises(ValueError):
            emit_report(tiny_record, tmp_path, formats=("xml",))

    def test_one_row_per_bag_shot(self):
        record = run_experiment(tiny_config(bag_shots=(1, 2, 3),
                                            train=TrainConfig(steps=20)))
        rows = report_rows(record)
        assert [r["bag_shot"] for r in rows] == [1, 2, 3]


TOY_KEYS = {"prior_mode": "toy-encoder", "prior_tau": 0.05, "toy_tokens_per_class": 3,
            "toy_token_width": 8, "toy_num_learnable": 4, "toy_seed": 5}


class TestToyEncoderPrior:
    def test_sweep_end_to_end(self, tmp_path):
        doc = {**to_doc(tiny_config(train=TrainConfig(steps=30))), **TOY_KEYS}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        for sub in ("a", "b"):
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
        record = load_run_record(tmp_path / "a" / "record.json")
        assert {k: record.config[k] for k in TOY_KEYS} == TOY_KEYS
        cell = record.cell(2)
        assert cell.failures == [] and len(cell.reports) == 2
        for report in cell.reports:
            assert 0.0 <= report.prior_instance_auc.macro <= 1.0
            assert 0.0 <= report.instance_auc.macro <= 1.0
        assert (tmp_path / "a" / "record.json").read_bytes() == (
            tmp_path / "b" / "record.json"
        ).read_bytes()

    @pytest.mark.parametrize("keys", [{"prior_mode": "toy-encoder"}, TOY_KEYS],
                             ids=["defaults", "all-keys"])
    def test_sweep_and_train_build_identical_initial_prior(self, tmp_path, monkeypatch, keys):
        ds = synth_generate(SynthSpec(**TINY_SOURCE["spec"]))
        manifest = save_dataset(ds, tmp_path / "data")
        prompts = tmp_path / "prompts.femb"
        write_embeddings(prompts, np.eye(2, 16))
        split = save_split(sample_split(ds, FewShotSpec(bag_shot=2, instance_shot=4)),
                           tmp_path / "split.json")

        class Captured(Exception):
            pass

        def capture(priors):
            def fake_train(cache, prior, *args):
                priors.append(prior)
                raise Captured
            return fake_train

        swept, trained = [], []
        monkeypatch.setattr(harness, "train", capture(swept))
        monkeypatch.setattr(cli, "train", capture(trained))
        source = {"kind": "file", "train_manifest": str(manifest),
                  "prompt_features": str(prompts), "test_manifest": str(manifest)}
        with pytest.raises(Captured):
            run_experiment(from_doc(ExperimentConfig, {"source": source, "bag_shots": [2],
                                                       "instance_shots": [4], **keys}))
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"dataset": str(manifest), "split": str(split),
                                         "prompt": str(prompts), **keys}))
        with pytest.raises(Captured):
            cli.main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "run")])
        (a,), (b,) = swept, trained
        assert (a.mode, a.tau, a.classes) == (b.mode, b.tau, b.classes)
        for name in ("base_tokens", "encoder_matrix", "prompt_tokens"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


needs_blas = pytest.mark.skipif(
    numerics._blas_threads() is None, reason="no BLAS whose threads can be set"
)

RESULT_FILES = ("record.json", "report.csv", "report.json", "plot_annotation_ratio.csv")


def result_files(record, out) -> dict:
    write_run_record(record, out)
    emit_report(record, out)
    return {name: (out / name).read_bytes() for name in RESULT_FILES}


def extras_bytes(record) -> dict:
    return {key: [{k: v.tobytes() for k, v in run.items()} for run in runs]
            for key, runs in record.extras.items()}


@needs_blas
class TestParallelSweep:
    # Two cells of two runs each; bag shot 100 fails both of its runs.
    CONFIG = dict(bag_shots=(2, 100))

    def test_same_bytes_on_any_process_count(self, tmp_path, monkeypatch):
        files, extras = {}, {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            record = run_experiment(tiny_config(**self.CONFIG), keep_predictions=True)
            assert record.processes == workers
            assert len(record.cell(100).failures) == 2
            files[workers] = result_files(record, tmp_path / str(workers))
            extras[workers] = extras_bytes(record)
            meta = json.loads((tmp_path / str(workers) / "metadata.json").read_text())
            assert meta["processes"] == workers
            assert meta["blas_threads"] == numerics._blas_threads()
        assert files[2] == files[1]
        assert files[3] == files[1]
        assert extras[2] == extras[1]
        assert extras[3] == extras[1]

    @pytest.mark.parametrize("fallback", ["no-blas", "second-thread"])
    def test_serial_fallback_same_bytes(self, fallback, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        parallel = run_experiment(tiny_config(**self.CONFIG))
        assert parallel.processes == 2
        if fallback == "no-blas":
            monkeypatch.setattr(numerics, "_blas_api", lambda: ())
            serial = run_experiment(tiny_config(**self.CONFIG))
            assert serial.blas_threads is None
        else:
            release = threading.Event()
            thread = threading.Thread(target=release.wait)
            thread.start()
            try:
                serial = run_experiment(tiny_config(**self.CONFIG))
            finally:
                release.set()
                thread.join(timeout=10)
            assert not thread.is_alive()
        assert serial.processes == 1
        assert result_files(serial, tmp_path / "serial") == result_files(
            parallel, tmp_path / "parallel"
        )

    def test_blas_threads_restored_and_children_joined(self, monkeypatch):
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        get, set_ = numerics._blas_api()
        saved = get()
        try:
            set_(3)
            assert run_experiment(tiny_config()).processes == 2
            assert get() == 3

            def broken_train(*args):
                raise RuntimeError("bug in a kernel")

            monkeypatch.setattr(harness, "train", broken_train)
            with pytest.raises(RuntimeError, match="bug in a kernel"):
                run_experiment(tiny_config())
            assert get() == 3
            assert multiprocessing.active_children() == []
        finally:
            set_(saved)
