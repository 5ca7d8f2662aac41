import json

import numpy as np
import pytest

from fewcache.cli import main
from fewcache.dataset import (
    SynthSpec,
    load_manifest,
    save_dataset,
    synth_generate,
    write_embeddings,
)
from fewcache.numerics import l2_normalize_rows
from fewcache.sampler import FewShotSpec, load_split


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


class TestPipeline:
    def test_synth_sample_train_eval(self, pipeline_dirs):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {
                "dataset": str(pipeline_dirs["manifest"]),
                "split": str(pipeline_dirs["split"]),
                "prompt": {"path": str(pipeline_dirs["prompts"])},
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
             "prompt": {"path": str(prompts)}, "train": {"steps": 10}},
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


class TestGradcheckCommand:
    def test_exit_zero_when_all_pass(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "g.json", {"n_configs": 10})
        assert main(["gradcheck", "--config", cfg, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3


class TestErrors:
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

    def test_eval_corrupt_checkpoint_exits_1(self, pipeline_dirs, capsys):
        tmp = pipeline_dirs["tmp"]
        train_cfg = write_json(
            tmp / "train.json",
            {"dataset": str(pipeline_dirs["manifest"]), "split": str(pipeline_dirs["split"]),
             "prompt": {"path": str(pipeline_dirs["prompts"])}, "train": {"steps": 5}},
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
