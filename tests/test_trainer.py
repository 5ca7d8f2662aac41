import csv
import json

import numpy as np
import pytest

from fewcache.cache_branch import build_cache, retrieve
from fewcache.dataset import (
    SynthSpec,
    class_prototypes,
    read_embeddings,
    synth_generate,
    write_embeddings,
)
from fewcache.errors import (
    CheckpointVersionError,
    CorruptCheckpointError,
    ModeMismatchError,
)
from fewcache.numerics import l2_normalize_rows
from fewcache.prior_branch import (
    PROTOTYPE,
    prior_from_features,
    prior_predict,
    prior_toy_encoder,
)
from fewcache.sampler import FewShotSpec, sample_split
from fewcache.trainer import (
    TrainConfig,
    history_to_csv,
    restore,
    snapshot,
    train,
)


@pytest.fixture(scope="module")
def separable_setup():
    ds = synth_generate(
        SynthSpec(num_classes=2, dim=32, bags_per_class=16, instances_per_bag=200,
                  positive_fraction=0.2, noise_sigma=0.15, seed=0)
    )
    split = sample_split(ds, FewShotSpec(bag_shot=16, instance_shot=16, seed=0))
    return ds, split


def _models(ds, split, beta=20.0):
    cache = build_cache(split, ds.store, ds.classes, beta=beta)
    prior = prior_from_features(class_prototypes(ds.num_classes, ds.dim), ds.classes)
    return cache, prior


class TestTrain:
    def test_separable_loss_drops(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        _, _, state = train(cache, prior, split, ds.store, TrainConfig(steps=500, seed=0))
        assert state.history[-1][3] < 0.05

    def test_smoothed_loss_halves(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        _, _, state = train(cache, prior, split, ds.store, TrainConfig(steps=500, seed=0))
        totals = [h[3] for h in state.history]
        first = float(np.mean(totals[:100]))
        last = float(np.mean(totals[-100:]))
        assert last <= 0.5 * first

    def test_zero_steps_identity(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cache2, prior2, state = train(cache, prior, split, ds.store, TrainConfig(steps=0))
        assert np.array_equal(cache2.keys, cache.keys)
        assert np.array_equal(cache2.value_logits, cache.value_logits)
        assert np.array_equal(prior2.class_features, prior.class_features)
        assert state.history == []

    def test_deterministic(self, separable_setup):
        ds, split = separable_setup
        cfg = TrainConfig(steps=50, seed=3)
        a = train(*_models(ds, split), split, ds.store, cfg)
        b = train(*_models(ds, split), split, ds.store, cfg)
        assert a[2].history == b[2].history
        assert np.array_equal(a[0].keys, b[0].keys)
        assert np.array_equal(a[1].class_features, b[1].class_features)

    def test_inputs_not_mutated(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        keys_before = cache.keys.copy()
        prompt_before = prior.class_features.copy()
        train(cache, prior, split, ds.store, TrainConfig(steps=20, seed=0))
        assert np.array_equal(cache.keys, keys_before)
        assert np.array_equal(prior.class_features, prompt_before)

    def test_zero_lr_group_isolation(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cfg = TrainConfig(steps=30, seed=0, lr_keys=0.0, lr_prompt=0.0)
        cache2, prior2, _ = train(cache, prior, split, ds.store, cfg)
        assert np.array_equal(cache2.keys, cache.keys)
        assert np.array_equal(prior2.class_features, prior.class_features)
        assert not np.array_equal(cache2.value_logits, cache.value_logits)

    def test_frozen_one_hot_rows_bit_identical(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        frozen_before = cache.value_logits[cache.frozen_mask].copy()
        cache2, _, _ = train(cache, prior, split, ds.store, TrainConfig(steps=100, seed=1))
        assert np.array_equal(cache2.value_logits[cache2.frozen_mask], frozen_before)

    def test_toy_frozen_parts_bit_identical(self, separable_setup, rng):
        ds, split = separable_setup
        cache = build_cache(split, ds.store, ds.classes)
        prior = prior_toy_encoder(rng.normal(size=(2, 3, 8)), ds.classes, ds.dim,
                                  num_learnable=4, tau=0.5, seed=2)
        base_before = prior.base_tokens.copy()
        enc_before = prior.encoder_matrix.copy()
        _, prior2, _ = train(cache, prior, split, ds.store, TrainConfig(steps=50, seed=0))
        assert np.array_equal(prior2.base_tokens, base_before)
        assert np.array_equal(prior2.encoder_matrix, enc_before)
        assert not np.array_equal(prior2.prompt_tokens, prior.prompt_tokens)

    def test_keys_stay_unit_norm(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cache2, _, _ = train(cache, prior, split, ds.store, TrainConfig(steps=50, seed=0))
        np.testing.assert_allclose(np.linalg.norm(cache2.keys, axis=1), 1.0, atol=1e-9)

    def test_no_labeled_instances_rejected(self, separable_setup):
        ds, split = separable_setup
        import dataclasses

        empty = dataclasses.replace(
            split,
            labeled_rows=np.empty(0, dtype=np.int64),
            labeled_classes=np.empty(0, dtype=np.int64),
        )
        cache, prior = _models(ds, split)
        with pytest.raises(ValueError):
            train(cache, prior, empty, ds.store, TrainConfig(steps=10))

    def test_history_csv(self, separable_setup, tmp_path):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        _, _, state = train(cache, prior, split, ds.store, TrainConfig(steps=10, seed=0))
        path = history_to_csv(state, tmp_path / "loss.csv")
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "cache_loss", "text_loss", "total"]
        assert len(rows) == 11
        assert float(rows[1][3]) == state.history[0][3]


class TestCheckpoints:
    def _trained(self, separable_setup, steps=30):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cache, prior, _ = train(cache, prior, split, ds.store,
                                TrainConfig(steps=steps, seed=0))
        return ds, cache, prior

    def test_round_trip_bit_exact_predictions(self, separable_setup, tmp_path):
        ds, cache, prior = self._trained(separable_setup)
        snapshot(cache, prior, tmp_path / "ckpt")
        cache2, prior2 = restore(tmp_path / "ckpt")
        q = ds.store.rows[:50]
        assert np.array_equal(retrieve(cache, q), retrieve(cache2, q))
        assert np.array_equal(prior_predict(prior, q), prior_predict(prior2, q))
        assert np.array_equal(cache.frozen_mask, cache2.frozen_mask)
        assert cache.beta == cache2.beta

    def test_toy_round_trip(self, separable_setup, tmp_path, rng):
        ds, split = separable_setup
        cache = build_cache(split, ds.store, ds.classes)
        prior = prior_toy_encoder(rng.normal(size=(2, 3, 8)), ds.classes, ds.dim,
                                  num_learnable=4, tau=0.5, seed=2)
        snapshot(cache, prior, tmp_path / "ckpt")
        _, prior2 = restore(tmp_path / "ckpt")
        q = ds.store.rows[:20]
        assert np.array_equal(prior_predict(prior, q), prior_predict(prior2, q))

    def test_truncated_file_rejected(self, separable_setup, tmp_path):
        _, cache, prior = self._trained(separable_setup)
        out = snapshot(cache, prior, tmp_path / "ckpt")
        keys_file = out / "cache_keys.femb"
        keys_file.write_bytes(keys_file.read_bytes()[:-16])
        with pytest.raises(CorruptCheckpointError):
            restore(out)

    def test_missing_file_rejected(self, separable_setup, tmp_path):
        _, cache, prior = self._trained(separable_setup)
        out = snapshot(cache, prior, tmp_path / "ckpt")
        (out / "prior_class_features.femb").unlink()
        with pytest.raises(CorruptCheckpointError):
            restore(out)

    def test_version_mismatch_rejected(self, separable_setup, tmp_path):
        _, cache, prior = self._trained(separable_setup)
        out = snapshot(cache, prior, tmp_path / "ckpt")
        sidecar = json.loads((out / "checkpoint.json").read_text())
        sidecar["version"] = 99
        (out / "checkpoint.json").write_text(json.dumps(sidecar))
        with pytest.raises(CheckpointVersionError):
            restore(out)

    def test_mode_mismatch_rejected(self, separable_setup, tmp_path):
        _, cache, prior = self._trained(separable_setup)
        out = snapshot(cache, prior, tmp_path / "ckpt")
        with pytest.raises(ModeMismatchError):
            restore(out, expect_mode="toy-encoder")
        cache2, prior2 = restore(out, expect_mode=PROTOTYPE)
        assert prior2.mode == PROTOTYPE


def _edit_sidecar(out, edit):
    path = out / "checkpoint.json"
    sidecar = json.loads(path.read_text())
    edit(sidecar)
    path.write_text(json.dumps(sidecar))


def _edit_matrix(out, name, edit):
    path = out / name
    write_embeddings(path, edit(read_embeddings(path).rows), version=2)


SHAPE_MISMATCHES = {
    "short_frozen_mask": lambda out: _edit_sidecar(
        out, lambda s: s["cache"].update(frozen_mask=s["cache"]["frozen_mask"][:10])
    ),
    "short_value_logits": lambda out: _edit_matrix(
        out, "cache_value_logits.femb", lambda rows: rows[: rows.shape[0] // 2]
    ),
    "value_logit_columns": lambda out: _edit_matrix(
        out, "cache_value_logits.femb", lambda rows: np.hstack([rows, rows[:, :1]])
    ),
    "cache_prior_classes": lambda out: _edit_sidecar(
        out, lambda s: s["prior"].update(classes=s["prior"]["classes"][::-1])
    ),
    "prior_feature_dim": lambda out: _edit_matrix(
        out, "prior_class_features.femb", lambda rows: rows[:, :-1]
    ),
}


@pytest.mark.parametrize("corrupt", SHAPE_MISMATCHES.values(), ids=SHAPE_MISMATCHES.keys())
def test_restore_rejects_shape_mismatch(separable_setup, tmp_path, corrupt):
    ds, split = separable_setup
    cache, prior = _models(ds, split)
    out = snapshot(cache, prior, tmp_path / "ckpt")
    restore(out)
    corrupt(out)
    with pytest.raises(CorruptCheckpointError):
        restore(out)


TOY_MISMATCHES = {
    "token_count": lambda out: _edit_sidecar(
        out, lambda s: s["prior"].update(tokens_per_class=2)
    ),
    "prompt_token_width": lambda out: _edit_matrix(
        out, "prior_prompt_tokens.femb", lambda rows: np.hstack([rows, rows])
    ),
    "missing_toy_key": lambda out: _edit_sidecar(
        out, lambda s: s["prior"].pop("learnable_per_class")
    ),
}


@pytest.mark.parametrize("corrupt", TOY_MISMATCHES.values(), ids=TOY_MISMATCHES.keys())
def test_restore_rejects_toy_mismatch(separable_setup, tmp_path, corrupt):
    ds, split = separable_setup
    cache = build_cache(split, ds.store, ds.classes)
    prior = prior_toy_encoder(np.random.default_rng(0).normal(size=(2, 3, 8)), ds.classes,
                              ds.dim, num_learnable=4)
    out = snapshot(cache, prior, tmp_path / "ckpt")
    restore(out)
    corrupt(out)
    with pytest.raises(CorruptCheckpointError):
        restore(out)
