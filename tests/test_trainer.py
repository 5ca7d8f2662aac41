import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewcache.trainer
from fewcache.cache_branch import (
    CacheModel,
    build_cache,
    cache_loss_and_grads,
    retrieve,
)
from fewcache.dataset import (
    EmbeddingStore,
    SynthSpec,
    class_prototypes,
    read_embeddings,
    read_layout,
    save_dataset,
    synth_generate,
    write_embeddings,
)
from fewcache.errors import (
    CheckpointVersionError,
    CorruptCheckpointError,
    DegenerateRowError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from fewcache.numerics import AdamState, adam_step, l2_normalize_rows
from fewcache.prior_branch import (
    PriorSpec,
    prior_from_features,
    prior_loss_and_grads,
    prior_predict,
    prior_toy_encoder,
)
from fewcache.sampler import FewShotSplit, FewShotSpec, sample_split
from fewcache.trainer import (
    TrainConfig,
    fit,
    history_to_csv,
    restore,
    snapshot,
    train_cache,
    train_prior,
)


@pytest.fixture(scope="module")
def separable_setup():
    ds = synth_generate(
        SynthSpec(num_classes=2, dim=32, bags_per_class=16, instances_per_bag=200,
                  positive_fraction=0.2, noise_sigma=0.15, seed=0)
    )
    split = sample_split(ds, FewShotSpec(bag_shot=16, instance_shot=16, seed=0))
    return ds, split


def labeled(split, store):
    """The queries and labels of a descent: the split's labeled rows."""
    return store.take(split.labeled_rows), split.labeled_classes


def _models(ds, split, beta=20.0):
    cache = build_cache(split, ds.store, ds.classes, beta=beta)
    prior = prior_from_features(class_prototypes(ds.num_classes, ds.dim), ds.classes)
    return cache, prior


class TestTrain:
    def test_separable_loss_drops(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        _, cache_losses = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=500))
        _, prompt_losses = train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=500))
        assert cache_losses[-1] + prompt_losses[-1] < 0.05

    def test_smoothed_loss_halves(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        _, cache_losses = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=500))
        _, prompt_losses = train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=500))
        totals = [c + p for c, p in zip(cache_losses, prompt_losses)]
        first = float(np.mean(totals[:100]))
        last = float(np.mean(totals[-100:]))
        assert last <= 0.5 * first

    def test_zero_steps_identity(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cache2, cache_losses = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=0))
        prior2, prompt_losses = train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=0))
        assert np.array_equal(cache2.keys, cache.keys)
        assert np.array_equal(cache2.value_logits, cache.value_logits)
        assert np.array_equal(prior2.class_features, prior.class_features)
        assert cache_losses == prompt_losses == []

    def test_deterministic(self, separable_setup):
        ds, split = separable_setup
        cfg = TrainConfig(steps=50)

        def run():
            cache, prior = _models(ds, split)
            return (*train_cache(cache, *labeled(split, ds.store), cfg),
                    *train_prior(prior, *labeled(split, ds.store), cfg))

        a, b = run(), run()
        assert a[1] == b[1] and a[3] == b[3]
        assert np.array_equal(a[0].keys, b[0].keys)
        assert np.array_equal(a[2].class_features, b[2].class_features)

    def test_inputs_not_mutated(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        keys_before = cache.keys.copy()
        prompt_before = prior.class_features.copy()
        train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=20))
        train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=20))
        assert np.array_equal(cache.keys, keys_before)
        assert np.array_equal(prior.class_features, prompt_before)

    def test_zero_lr_group_isolation(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cfg = TrainConfig(steps=30, lr_keys=0.0, lr_prompt=0.0)
        cache2, _ = train_cache(cache, *labeled(split, ds.store), cfg)
        prior2, _ = train_prior(prior, *labeled(split, ds.store), cfg)
        assert np.array_equal(cache2.keys, cache.keys)
        assert np.array_equal(prior2.class_features, prior.class_features)
        assert not np.array_equal(cache2.value_logits, cache.value_logits)

    def test_frozen_one_hot_rows_bit_identical(self, separable_setup):
        ds, split = separable_setup
        cache, _ = _models(ds, split)
        frozen_before = cache.value_logits[cache.frozen_mask].copy()
        cache2, _ = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=100))
        assert np.array_equal(cache2.value_logits[cache2.frozen_mask], frozen_before)

    def test_toy_frozen_parts_bit_identical(self, separable_setup, rng):
        ds, split = separable_setup
        prior = prior_toy_encoder(rng.normal(size=(2, 3, 8)), ds.classes, ds.dim,
                                  num_learnable=4, tau=0.5, seed=2)
        base_before = prior.base_tokens.copy()
        enc_before = prior.encoder_matrix.copy()
        prior2, _ = train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=50))
        assert np.array_equal(prior2.base_tokens, base_before)
        assert np.array_equal(prior2.encoder_matrix, enc_before)
        assert not np.array_equal(prior2.prompt_tokens, prior.prompt_tokens)

    def test_keys_stay_unit_norm(self, separable_setup):
        ds, split = separable_setup
        cache, _ = _models(ds, split)
        cache2, _ = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=50))
        np.testing.assert_allclose(np.linalg.norm(cache2.keys, axis=1), 1.0, atol=1e-9)

    def test_no_labeled_instances_rejected(self, separable_setup):
        ds, split = separable_setup
        empty = dataclasses.replace(
            split,
            labeled_rows=np.empty(0, dtype=np.int64),
            labeled_classes=np.empty(0, dtype=np.int64),
        )
        cache, prior = _models(ds, split)
        with pytest.raises(ValueError):
            train_cache(cache, *labeled(empty, ds.store), TrainConfig(steps=10))
        with pytest.raises(ValueError):
            train_prior(prior, *labeled(empty, ds.store), TrainConfig(steps=10))

    def test_history_csv(self, separable_setup, tmp_path):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        _, cache_losses = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=10))
        _, prompt_losses = train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=10))
        path = history_to_csv(cache_losses, prompt_losses, tmp_path / "loss.csv")
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "cache_loss", "text_loss", "total"]
        assert len(rows) == 11
        assert float(rows[1][3]) == cache_losses[0] + prompt_losses[0]


def _reference_train(cache, prior, queries, labels, cfg):
    """The training loop over the public kernels, on full-size parameter
    arrays and with checks at every step: the oracle for `train_cache` and
    `train_prior`."""
    cache, prior, history = cache.copy(), prior.copy(), []
    queries, labels = queries.copy(), labels.copy()
    adam_keys = AdamState.zeros_like(cache.keys)
    adam_values = AdamState.zeros_like(cache.value_logits)
    adam_prompt = AdamState.zeros_like(prior.learnable())
    for step in range(cfg.steps):
        cache_loss, g_keys, g_values = cache_loss_and_grads(cache, queries, labels)
        prompt_loss, g_prompt = prior_loss_and_grads(prior, queries, labels)
        if cfg.lr_keys > 0.0:
            adam_step(cache.keys, g_keys, adam_keys, cfg.lr_keys)
            cache.keys = l2_normalize_rows(cache.keys)
        if cfg.lr_value_logits > 0.0:
            adam_step(cache.value_logits, g_values, adam_values, cfg.lr_value_logits)
        if cfg.lr_prompt > 0.0:
            adam_step(prior.learnable(), g_prompt, adam_prompt, cfg.lr_prompt)
        history.append((step, cache_loss, prompt_loss, cache_loss + prompt_loss))
    return cache, prior, history


@st.composite
def _training_problems(draw):
    """A random cache (any frozen mask, value rows frozen on the simplex),
    a prior of either mode, labeled unit queries and a TrainConfig with each
    learning rate possibly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 12))
    classes = [f"c{i}" for i in range(draw(st.integers(2, 4)))]
    n_cache = draw(st.integers(1, 24))
    n_lab = draw(st.integers(1, 20))
    frozen = np.array(draw(st.one_of(
        st.just([True] * n_cache),
        st.just([False] * n_cache),
        st.lists(st.booleans(), min_size=n_cache, max_size=n_cache),
    )))
    value_logits = rng.normal(size=(n_cache, len(classes)))
    value_logits[frozen] = rng.dirichlet(np.ones(len(classes)), size=int(frozen.sum()))
    cache = CacheModel(
        keys=l2_normalize_rows(rng.normal(size=(n_cache, d))),
        value_logits=value_logits,
        frozen_mask=frozen,
        beta=draw(st.sampled_from([1.0, 10.0, 20.0, 60.0])),
        classes=classes,
    )
    tau = draw(st.sampled_from([0.01, 0.1, 0.5]))
    if draw(st.booleans()):
        prior = prior_from_features(rng.normal(size=(len(classes), d)), classes, tau=tau)
    else:
        prior = prior_toy_encoder(
            rng.normal(size=(len(classes), draw(st.integers(1, 3)), 5)), classes, d,
            num_learnable=draw(st.integers(1, 3)), tau=tau, seed=draw(st.integers(0, 9)),
        )
    rows = l2_normalize_rows(rng.normal(size=(n_lab + 5, d)))
    queries = rows[rng.permutation(n_lab + 5)[:n_lab]]
    labels = rng.integers(0, len(classes), size=n_lab)
    rate = st.sampled_from([0.0, 1e-3, 1e-2, 0.1])
    cfg = TrainConfig(
        lr_keys=draw(rate), lr_value_logits=draw(rate), lr_prompt=draw(rate),
        steps=draw(st.integers(1, 12)),
    )
    return cache, prior, queries, labels, cfg


class TestTrainOracle:
    @settings(max_examples=120, deadline=None)
    @given(_training_problems())
    def test_bit_identical_to_public_kernel_loop(self, problem):
        cache, prior, queries, labels, cfg = problem
        ref_cache, ref_prior, ref_history = _reference_train(cache, prior, queries, labels, cfg)
        got_cache, cache_losses = train_cache(cache, queries, labels, cfg)
        got_prior, prompt_losses = train_prior(prior, queries, labels, cfg)
        history = [(s, c, p, c + p) for s, (c, p) in enumerate(zip(cache_losses, prompt_losses))]
        assert got_cache.keys.tobytes() == ref_cache.keys.tobytes()
        assert got_cache.value_logits.tobytes() == ref_cache.value_logits.tobytes()
        assert got_prior.learnable().tobytes() == ref_prior.learnable().tobytes()
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        assert len(cache_losses) == len(prompt_losses) == cfg.steps


class TestFit:
    def test_one_read_trains_like_the_separate_steps(self, separable_setup, tmp_path):
        # From bag files, the queries fit copies from the keys are the bits
        # of a separate read of the labeled rows, so fit trains exactly as
        # building and training each branch on such a read does.
        ds, split = separable_setup
        store = read_layout(save_dataset(ds, tmp_path / "data")).store
        prompts = class_prototypes(ds.num_classes, ds.dim)
        cfg = TrainConfig(steps=30)
        fitted = fit(split, store, ds.classes, prompts, PriorSpec(), cfg, beta=20.0)
        queries, labels = labeled(split, store)
        assert fitted.queries.tobytes() == queries.tobytes()
        assert np.array_equal(fitted.labels, labels)
        cache, cache_losses = train_cache(build_cache(split, store, ds.classes, beta=20.0),
                                          queries, labels, cfg)
        prior, prompt_losses = train_prior(prior_from_features(prompts, ds.classes),
                                           queries, labels, cfg)
        assert fitted.cache.keys.tobytes() == cache.keys.tobytes()
        assert fitted.cache.value_logits.tobytes() == cache.value_logits.tobytes()
        assert fitted.prior.learnable().tobytes() == prior.learnable().tobytes()
        assert (fitted.cache_losses, fitted.prompt_losses) == (cache_losses, prompt_losses)

    def test_mismatched_labels_rejected(self, separable_setup):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        queries, labels = labeled(split, ds.store)
        with pytest.raises(ShapeMismatchError, match="queries vs"):
            train_cache(cache, queries, labels[1:], TrainConfig(steps=1))
        with pytest.raises(ShapeMismatchError, match="queries vs"):
            train_prior(prior, queries[1:], labels, TrainConfig(steps=1))


class TestValidateOnce:
    def test_non_finite_labeled_row_rejected_before_first_step(self, separable_setup,
                                                               monkeypatch):
        ds, split = separable_setup
        rows = ds.store.rows.copy()
        rows[split.labeled_rows[3], 5] = np.nan
        store = EmbeddingStore.from_array(rows)

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(fewcache.trainer, "_cache_loss_and_grads", no_step)
        monkeypatch.setattr(fewcache.trainer, "_prior_loss_and_grads", no_step)
        cache, prior = _models(ds, split)
        with pytest.raises(NonFiniteInputError, match="labeled queries"):
            train_cache(cache, *labeled(split, store), TrainConfig(steps=5))
        with pytest.raises(NonFiniteInputError, match="labeled queries"):
            train_prior(prior, *labeled(split, store), TrainConfig(steps=5))

    def test_key_row_driven_to_zero_raises(self):
        # d = 1: Adam's first update moves key row 1 by lr times its unit-lr
        # step (just under 1, because of eps), so lr = 0.4 over that step
        # moves the row from 0.4 to exactly 0.
        store = EmbeddingStore.from_array([[1.0]])
        split = FewShotSplit([], np.array([0]), np.array([0]), np.empty(0, dtype=np.int64), 0)
        prior = prior_from_features([[1.0], [-1.0]], ["a", "b"])
        cache = CacheModel(keys=np.array([[1.0], [0.4]]), value_logits=np.eye(2),
                           frozen_mask=np.ones(2, dtype=bool), beta=1.0, classes=["a", "b"])
        _, g_keys, _ = cache_loss_and_grads(cache, store.rows, [0])
        unit_step = np.zeros_like(cache.keys)
        adam_step(unit_step, g_keys, AdamState.zeros_like(unit_step), 1.0)
        cfg = TrainConfig(steps=3, lr_keys=0.4 / -unit_step[1, 0], lr_value_logits=0.0,
                          lr_prompt=0.0)
        new_keys = cache.keys.copy()
        adam_step(new_keys, g_keys, AdamState.zeros_like(new_keys), cfg.lr_keys)
        assert new_keys[1, 0] == 0.0
        for run in (lambda: train_cache(cache, *labeled(split, store), cfg),
                    lambda: _reference_train(cache, prior, *labeled(split, store), cfg)):
            with pytest.raises(DegenerateRowError) as exc:
                run()
            assert exc.value.row == 1

    def test_tiny_key_rows_keep_full_precision(self):
        # Rows 1-3 score ~0 against a query that key 0 matches at beta 1000,
        # so their attention underflows to 0, their gradient and update are
        # exactly 0, and projection normalizes the tiny rows themselves.
        tiny = [[8.18628025e-162, 0.0], [1e-170, 1e-170], [5e-324, 0.0]]
        cache = CacheModel(keys=np.array([[1.0, 0.0], *tiny]), value_logits=np.zeros((4, 2)),
                           frozen_mask=np.zeros(4, dtype=bool), beta=1000.0, classes=["a", "b"])
        store = EmbeddingStore.from_array([[1.0, 0.0]])
        split = FewShotSplit([], np.array([0]), np.array([0]), np.empty(0, dtype=np.int64), 0)
        cfg = TrainConfig(steps=1, lr_keys=0.1)
        trained, _ = train_cache(cache, *labeled(split, store), cfg)
        expected = [[1.0, 0.0], [0.5**0.5, 0.5**0.5], [1.0, 0.0]]
        np.testing.assert_allclose(trained.keys[1:], expected, atol=1e-15)


class TestCheckpoints:
    def _trained(self, separable_setup, steps=30):
        ds, split = separable_setup
        cache, prior = _models(ds, split)
        cache, _ = train_cache(cache, *labeled(split, ds.store), TrainConfig(steps=steps))
        prior, _ = train_prior(prior, *labeled(split, ds.store), TrainConfig(steps=steps))
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

    @pytest.mark.parametrize("section, key, value", [
        ("cache", "beta", float("nan")),
        ("prior", "tau", float("inf")),
    ])
    def test_non_finite_number_rejected(self, separable_setup, tmp_path, section, key, value):
        _, cache, prior = self._trained(separable_setup)
        out = snapshot(cache, prior, tmp_path / "ckpt")
        _edit_sidecar(out, lambda s: s[section].update({key: value}))
        with pytest.raises(CorruptCheckpointError, match=f"{key} must be finite"):
            restore(out)


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
