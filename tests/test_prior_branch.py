import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewcache.dataset import write_embeddings
from fewcache.encoders import read_prompt_features
from fewcache.errors import DimensionConflictError, ShapeMismatchError
from fewcache.gradchecks import prior_prototype_suite, prior_toy_suite
from fewcache.numerics import (
    PROB_CLAMP,
    finite_difference_check,
    l2_normalize_rows,
    softmax_rows,
)
from fewcache.prior_branch import (
    PROTOTYPE,
    TOY_ENCODER,
    PriorModel,
    PriorSpec,
    build_prior,
    encode_prompts,
    prior_from_features,
    prior_loss_and_grads,
    prior_predict,
    prior_toy_encoder,
)


def _orthogonal_prior(tau=0.01):
    return prior_from_features(np.eye(2, 4), ["a", "b"], tau=tau)


class TestEncodePrompts:
    def test_prototype_identity_for_unit_rows(self):
        feats = np.eye(3, 5)
        model = prior_from_features(feats, ["a", "b", "c"])
        np.testing.assert_allclose(encode_prompts(model), feats, atol=1e-12)

    def test_toy_single_basis_token(self):
        # one distinct basis token per class, everything else zero: the
        # encoded feature is the normalized corresponding encoder row
        e, d, s = 4, 6, 1
        base = np.zeros((2, s, e))
        base[0, 0, 0] = 1.0
        base[1, 0, 1] = 1.0
        model = prior_toy_encoder(base, ["a", "b"], dim=d, num_learnable=2, seed=0)
        model.prompt_tokens[:] = 0.0
        out = encode_prompts(model)
        expected = l2_normalize_rows(model.encoder_matrix[[0, 1]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_toy_token_gradient_matches_finite_differences(self, rng):
        # chain through pooling, the frozen encoder, and normalization for
        # an arbitrary linear functional of the encoded features
        model = prior_toy_encoder(
            rng.normal(size=(2, 3, 4)), ["a", "b"], dim=5, num_learnable=2, seed=1
        )
        model.prompt_tokens += 0.3 * rng.normal(size=model.prompt_tokens.shape)
        upstream = rng.normal(size=(2, 5))
        shape = model.prompt_tokens.shape

        from fewcache.prior_branch import _raw_text, _text_backward

        def loss_and_grad(x):
            m = model.with_learnable(x.reshape(shape))
            text = encode_prompts(m)
            loss = float((text * upstream).sum())
            return loss, _text_backward(m, _raw_text(m), text, upstream).ravel()

        report = finite_difference_check(loss_and_grad, model.prompt_tokens.ravel())
        assert report.passed, report.max_rel_error


class TestPriorPredict:
    def test_saturated_match(self):
        model = _orthogonal_prior(tau=0.01)
        probs = prior_predict(model, [[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(probs, [[1.0, 0.0]], atol=1e-12)

    def test_equidistant_uniform(self):
        model = _orthogonal_prior(tau=0.5)
        q = l2_normalize_rows([[1.0, 1.0, 0.0, 0.0]])
        np.testing.assert_allclose(prior_predict(model, q), [[0.5, 0.5]], atol=1e-12)

    def test_huge_tau_uniform(self, rng):
        # softmax deviation from uniform is O(1/tau): ~2/tau of cosine spread
        feats = l2_normalize_rows(rng.normal(size=(3, 6)))
        q = l2_normalize_rows(rng.normal(size=(5, 6)))
        probs = prior_predict(prior_from_features(feats, ["a", "b", "c"], tau=1e6), q)
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=2e-6)
        probs = prior_predict(prior_from_features(feats, ["a", "b", "c"], tau=1e9), q)
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-9)

    def test_rows_sum_to_one(self, rng):
        model = prior_from_features(l2_normalize_rows(rng.normal(size=(4, 8))),
                                    list("abcd"), tau=0.05)
        probs = prior_predict(model, l2_normalize_rows(rng.normal(size=(30, 8))))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_invariant_to_tau(self, rng):
        feats = l2_normalize_rows(rng.normal(size=(3, 7)))
        q = l2_normalize_rows(rng.normal(size=(50, 7)))
        argmaxes = []
        for tau in (0.005, 0.01, 0.1):
            model = prior_from_features(feats, ["a", "b", "c"], tau=tau)
            argmaxes.append(prior_predict(model, q).argmax(axis=1))
        assert np.array_equal(argmaxes[0], argmaxes[1])
        assert np.array_equal(argmaxes[1], argmaxes[2])

    def test_orthogonal_confusion_identity(self):
        feats = np.eye(3, 6)
        model = prior_from_features(feats, ["a", "b", "c"], tau=0.05)
        preds = prior_predict(model, feats).argmax(axis=1)
        assert np.array_equal(preds, [0, 1, 2])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            prior_predict(_orthogonal_prior(), [[1.0, 0.0]])


class TestPriorLoss:
    def test_aligned_prototypes_zero_loss(self):
        model = _orthogonal_prior(tau=0.01)
        loss, _ = prior_loss_and_grads(model, np.eye(2, 4), [0, 1])
        assert loss < 1e-10

    def test_gradient_suites(self):
        assert prior_prototype_suite(n_configs=40, seed=1).passed
        assert prior_toy_suite(n_configs=40, seed=2).passed

    def test_gradient_shape_matches_learnable(self, rng):
        model = prior_toy_encoder(rng.normal(size=(2, 2, 3)), ["a", "b"],
                                  dim=4, num_learnable=3, tau=0.7, seed=0)
        q = l2_normalize_rows(rng.normal(size=(5, 4)))
        _, grad = prior_loss_and_grads(model, q, rng.integers(0, 2, size=5))
        assert grad.shape == model.prompt_tokens.shape


class TestPromptFiles:
    def test_load_prototype_mode(self, tmp_path, rng):
        feats = rng.normal(size=(3, 8)).astype(np.float32)
        path = tmp_path / "prompts.femb"
        write_embeddings(path, feats)
        rows = read_prompt_features(path, dim=8, num_classes=3)
        model = build_prior(PriorSpec(prior_tau=0.02), rows, ["a", "b", "c"])
        assert model.mode == PROTOTYPE
        assert model.tau == 0.02
        np.testing.assert_allclose(
            model.class_features, l2_normalize_rows(feats.astype(np.float64)), atol=1e-12
        )

    def test_load_toy_mode(self, rng):
        spec = PriorSpec(prior_mode=TOY_ENCODER, toy_tokens_per_class=3, toy_token_width=5,
                         toy_num_learnable=4, toy_seed=9)
        model = build_prior(spec, rng.normal(size=(2, 6)), ["a", "b"])
        assert model.mode == TOY_ENCODER
        assert model.prompt_tokens.shape == (2, 4, 5)
        assert model.encoder_matrix.shape == (5, 6)
        np.testing.assert_array_equal(
            model.base_tokens, np.random.default_rng(9).standard_normal((2, 3, 5))
        )

    def test_toy_encoder_shares_no_draws_with_base_tokens(self, rng):
        # One stream: base tokens first, then the encoder (scaled by
        # 1/sqrt(16) = 1/4, exactly), so no frozen entry repeats a draw.
        spec = PriorSpec(prior_mode=TOY_ENCODER)
        model = build_prior(spec, rng.normal(size=(2, 32)), ["a", "b"])
        stream = np.random.default_rng(spec.toy_seed)
        base = stream.standard_normal(model.base_tokens.shape)
        encoder_draws = stream.standard_normal(model.encoder_matrix.shape)
        assert model.base_tokens.tobytes() == base.tobytes()
        assert (model.encoder_matrix * 4.0).tobytes() == encoder_draws.tobytes()
        assert not np.isin(model.encoder_matrix * 4.0, model.base_tokens).any()

    def test_dim_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "prompts.femb"
        write_embeddings(path, rng.normal(size=(2, 4)).astype(np.float32))
        with pytest.raises(DimensionConflictError, match="prompt-feature dim 4"):
            read_prompt_features(path, dim=8, num_classes=2)

    def test_class_count_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "prompts.femb"
        write_embeddings(path, rng.normal(size=(2, 8)).astype(np.float32))
        with pytest.raises(DimensionConflictError, match="2 rows for 3 classes"):
            read_prompt_features(path, dim=8, num_classes=3)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            PriorModel(mode=PROTOTYPE, classes=["a", "b"], tau=0.0,
                       class_features=np.eye(2))


def _textbook_prior_loss_and_grads(model, q, y):
    """prior_loss_and_grads as plain expressions on fresh arrays."""
    m = q.shape[0]
    if model.mode == PROTOTYPE:
        raw = model.class_features
    else:
        seq_len = model.base_tokens.shape[1] + model.prompt_tokens.shape[1]
        pooled = (model.base_tokens.sum(axis=1) + model.prompt_tokens.sum(axis=1)) / seq_len
        raw = pooled @ model.encoder_matrix
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    unit = raw / norms
    probs = softmax_rows((q @ unit.T) / model.tau)
    picked = probs[np.arange(m), y]
    loss = float(-np.log(np.clip(picked, PROB_CLAMP, 1.0)).mean())
    g_logits = probs.copy()
    g_logits[np.arange(m), y] -= 1.0
    g_logits /= m
    g_logits[picked <= PROB_CLAMP] = 0.0
    g_text = (g_logits.T @ q) / model.tau
    g_raw = (g_text - (g_text * unit).sum(axis=1, keepdims=True) * unit) / norms
    if model.mode == PROTOTYPE:
        return loss, g_raw
    g_pooled = g_raw @ model.encoder_matrix.T
    return loss, np.repeat(g_pooled[:, None, :], model.prompt_tokens.shape[1], axis=1) / seq_len


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 9), st.integers(2, 4),
       st.sampled_from([0.001, 0.01, 0.5]))
def test_loss_and_grads_match_textbook_form(seed, toy, d, n_classes, tau):
    # tau 0.001 pushes target probabilities below the log clamp.
    rng = np.random.default_rng(seed)
    classes = [str(c) for c in range(n_classes)]
    if toy:
        model = prior_toy_encoder(rng.normal(size=(n_classes, int(rng.integers(1, 4)), 5)),
                                  classes, d, num_learnable=int(rng.integers(1, 4)), tau=tau,
                                  seed=int(rng.integers(0, 100)))
        model.prompt_tokens += rng.normal(size=model.prompt_tokens.shape)
    else:
        model = prior_from_features(rng.normal(size=(n_classes, d)), classes, tau=tau)
        model.class_features *= rng.uniform(0.5, 2.0, size=(n_classes, 1))
    q = l2_normalize_rows(rng.normal(size=(int(rng.integers(1, 20)), d)))
    y = rng.integers(0, n_classes, q.shape[0])
    got = prior_loss_and_grads(model, q, y)
    want = _textbook_prior_loss_and_grads(model, q, y)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
