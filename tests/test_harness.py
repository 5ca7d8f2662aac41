import csv
import json

import numpy as np
import pytest

from fewcache import harness
from fewcache.codec import from_doc, to_doc
from fewcache.harness import (
    ExperimentConfig,
    config_hash,
    emit_report,
    load_run_record,
    report_rows,
    run_experiment,
    write_run_record,
)
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
