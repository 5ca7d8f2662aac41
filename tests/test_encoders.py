import numpy as np
import pytest

from fewcache.dataset import SynthSpec, save_dataset, synth_generate, write_embeddings
from fewcache.encoders import (
    resolve_source,
    synthetic_prompt_features,
)
from fewcache.errors import DimensionConflictError, UnknownSourceKindError, UsageError

SYNTH_CONFIG = {
    "kind": "synthetic",
    "spec": {"num_classes": 2, "dim": 16, "bags_per_class": 3,
             "instances_per_bag": 20, "positive_fraction": 0.3,
             "noise_sigma": 0.2, "seed": 5},
    "test_bags_per_class": 2,
    "prompt_sigma": 0.3,
    "prompt_seed": 1,
}


class TestSyntheticSource:
    def test_dimensions(self):
        src = resolve_source(SYNTH_CONFIG)
        assert src.dim == 16
        assert src.train_dataset.num_instances == 120
        assert src.test_dataset.num_instances == 80
        assert src.prompt_features.shape == (2, 16)

    def test_prompt_features_unit_norm(self):
        src = resolve_source(SYNTH_CONFIG)
        np.testing.assert_allclose(
            np.linalg.norm(src.prompt_features, axis=1), 1.0, atol=1e-12
        )

    def test_train_test_disjoint_noise(self):
        src = resolve_source(SYNTH_CONFIG)
        assert not np.array_equal(
            src.train_dataset.store.rows[:20], src.test_dataset.store.rows[:20]
        )

    def test_resolutions_identical(self):
        a = resolve_source(SYNTH_CONFIG)
        b = resolve_source(dict(SYNTH_CONFIG))
        assert a.provenance["checksum"] == b.provenance["checksum"]

    def test_missing_or_malformed_spec_is_usage_error(self):
        with pytest.raises(UsageError, match=r"SyntheticSource: missing key\(s\) 'spec'"):
            resolve_source({"kind": "synthetic"})
        bad_spec = {**SYNTH_CONFIG["spec"], "dims": 3}
        with pytest.raises(UsageError, match="SynthSpec: unknown key"):
            resolve_source({**SYNTH_CONFIG, "spec": bad_spec})

    @pytest.mark.parametrize("edit, message", [
        ({"prompt_sigm": 0.3}, r"SyntheticSource: unknown key\(s\) 'prompt_sigm'"),
        ({"test_bags_per_class": 2.5}, "SyntheticSource.test_bags_per_class must be int"),
        ({"prompt_seed": "1"}, "SyntheticSource.prompt_seed must be int"),
    ], ids=["key-typo", "float-bag-count", "string-seed"])
    def test_malformed_block_is_usage_error(self, edit, message):
        with pytest.raises(UsageError, match=message):
            resolve_source({**SYNTH_CONFIG, **edit})

    def test_prompt_sigma_zero_gives_prototypes(self):
        feats = synthetic_prompt_features(2, 8, sigma=0.0, seed=0)
        assert np.array_equal(feats, np.eye(2, 8))


class TestFileSource:
    @pytest.fixture
    def file_config(self, tmp_path, rng):
        ds = synth_generate(SynthSpec(num_classes=2, dim=8, bags_per_class=2,
                                      instances_per_bag=10, seed=0))
        train_manifest = save_dataset(ds, tmp_path / "train")
        test_manifest = save_dataset(
            synth_generate(SynthSpec(num_classes=2, dim=8, bags_per_class=2,
                                     instances_per_bag=10, seed=9)),
            tmp_path / "test",
        )
        prompt_path = tmp_path / "prompts.femb"
        write_embeddings(prompt_path, rng.normal(size=(2, 8)).astype(np.float32))
        return {
            "kind": "file",
            "train_manifest": str(train_manifest),
            "test_manifest": str(test_manifest),
            "prompt_features": str(prompt_path),
            "encoder_name": "dump-v1",
        }

    def test_resolves(self, file_config):
        src = resolve_source(file_config)
        assert src.dim == 8
        assert src.train_dataset.num_instances == 40
        assert src.test_dataset is not None
        assert src.provenance["encoder"] == "dump-v1"

    def test_prompt_dim_conflict(self, file_config, tmp_path, rng):
        bad = tmp_path / "bad_prompts.femb"
        write_embeddings(bad, rng.normal(size=(2, 4)).astype(np.float32))
        file_config["prompt_features"] = str(bad)
        with pytest.raises(DimensionConflictError):
            resolve_source(file_config)

    def test_prompt_row_count_conflict(self, file_config, tmp_path, rng):
        bad = tmp_path / "bad_prompts.femb"
        write_embeddings(bad, rng.normal(size=(5, 8)).astype(np.float32))
        file_config["prompt_features"] = str(bad)
        with pytest.raises(DimensionConflictError):
            resolve_source(file_config)

    def test_provenance_sidecar_merged(self, file_config, tmp_path):
        import json
        from pathlib import Path

        sidecar = Path(file_config["train_manifest"]).with_suffix(".provenance.json")
        sidecar.write_text(json.dumps({"encoder": "rn50", "notes": "10x patches"}))
        src = resolve_source(file_config)
        assert src.provenance["encoder"] == "rn50"
        assert src.provenance["notes"] == "10x patches"

    @pytest.mark.parametrize("key", ["train_manifest", "prompt_features"])
    def test_missing_key_is_usage_error(self, file_config, key):
        del file_config[key]
        with pytest.raises(UsageError, match=rf"FileSource: missing key\(s\) '{key}'"):
            resolve_source(file_config)

    def test_unknown_key_is_usage_error(self, file_config):
        file_config["test_manfiest"] = file_config.pop("test_manifest")
        with pytest.raises(UsageError, match=r"FileSource: unknown key\(s\) 'test_manfiest'"):
            resolve_source(file_config)


def test_unknown_kind_rejected():
    with pytest.raises(UnknownSourceKindError):
        resolve_source({"kind": "quantum"})


@pytest.mark.parametrize("kind", [["synthetic"], None])
def test_non_string_kind_rejected(kind):
    with pytest.raises(UnknownSourceKindError):
        resolve_source({"kind": kind})
