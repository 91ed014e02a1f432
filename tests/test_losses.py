import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import assert_grad_matches
from svkit.losses import (
    APParams,
    LOSS_NAMES,
    MarginParams,
    aam_softmax,
    am_softmax,
    angular_prototypical,
    ap_plus_softmax,
    softmax_ce,
)


def random_batch(rng, b=8, d=12, c=5):
    return (
        rng.standard_normal((b, d)),
        rng.integers(0, c, size=b),
        rng.standard_normal((c, d)),
    )


class TestSoftmaxCE:
    def test_uniform_logits_give_ln2(self):
        emb = np.ones((4, 3))
        loss, _ = softmax_ce(emb, np.zeros(4, dtype=int), np.zeros((2, 3)), np.zeros(2))
        assert loss == pytest.approx(np.log(2.0), rel=1e-14)

    def test_ten_logit_gap(self):
        loss, _ = softmax_ce(
            np.zeros((1, 3)), np.array([0]), np.zeros((2, 3)), np.array([10.0, 0.0])
        )
        assert loss == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            softmax_ce(np.ones((2, 3)), np.array([0, 5]), np.ones((2, 3)), np.zeros(2))

    @pytest.mark.parametrize("labels", [[0], [0, 1, 0], [[0], [1]]])
    def test_one_label_per_embedding(self, labels):
        with pytest.raises(ValueError, match=r"labels must have shape \(2,\)"):
            softmax_ce(np.ones((2, 3)), np.array(labels), np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match=r"labels must have shape \(2,\)"):
            am_softmax(np.ones((2, 3)), np.array(labels), np.ones((2, 3)), MarginParams())

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        emb, labels, weights = random_batch(rng)
        bias = rng.standard_normal(weights.shape[0])
        _, grads = softmax_ce(emb, labels, weights, bias)
        assert_grad_matches(lambda: softmax_ce(emb, labels, weights, bias)[0], emb, grads["embeddings"], rng)
        assert_grad_matches(lambda: softmax_ce(emb, labels, weights, bias)[0], weights, grads["weights"], rng)
        assert_grad_matches(lambda: softmax_ce(emb, labels, weights, bias)[0], bias, grads["bias"], rng)


class TestAMSoftmax:
    def test_aligned_embedding_with_margin(self):
        emb = np.array([[1.0, 0.0]])
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = am_softmax(emb, np.array([0]), weights, MarginParams(0.2, 30.0))
        assert loss == pytest.approx(np.log1p(np.exp(-24.0)), abs=1e-15)

    def test_zero_margin_reduces_to_scaled_softmax(self):
        rng = np.random.default_rng(1)
        emb, labels, weights = random_batch(rng)
        e_unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        w_unit = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        am, _ = am_softmax(emb, labels, weights, MarginParams(0.0, 30.0))
        plain, _ = softmax_ce(30.0 * e_unit, labels, w_unit, np.zeros(len(w_unit)))
        assert am == pytest.approx(plain, rel=1e-12)

    def test_loss_non_decreasing_in_margin(self):
        rng = np.random.default_rng(2)
        emb, labels, weights = random_batch(rng)
        values = [am_softmax(emb, labels, weights, MarginParams(m, 30.0))[0]
                  for m in (0.0, 0.1, 0.2, 0.3)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_norm_embedding_rejected(self):
        emb = np.zeros((1, 4))
        with pytest.raises(ValueError, match="zero-norm"):
            am_softmax(emb, np.array([0]), np.ones((2, 4)), MarginParams())

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        emb, labels, weights = random_batch(rng)
        base, _ = am_softmax(emb, labels, weights, MarginParams())
        scaled, _ = am_softmax(emb * 3.7, labels, weights, MarginParams())
        assert scaled == pytest.approx(base, abs=1e-6)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        emb, labels, weights = random_batch(rng)
        params = MarginParams()
        _, grads = am_softmax(emb, labels, weights, params)
        assert_grad_matches(lambda: am_softmax(emb, labels, weights, params)[0], emb, grads["embeddings"], rng)
        assert_grad_matches(lambda: am_softmax(emb, labels, weights, params)[0], weights, grads["weights"], rng)


class TestAAMSoftmax:
    def test_aligned_embedding_uses_cos_of_margin(self):
        emb = np.array([[1.0, 0.0]])
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = aam_softmax(emb, np.array([0]), weights, MarginParams(0.2, 30.0))
        assert loss == pytest.approx(np.log1p(np.exp(-30.0 * np.cos(0.2))), abs=1e-15)

    def test_zero_margin_equals_am(self):
        rng = np.random.default_rng(5)
        emb, labels, weights = random_batch(rng)
        aam, _ = aam_softmax(emb, labels, weights, MarginParams(0.0, 30.0))
        am, _ = am_softmax(emb, labels, weights, MarginParams(0.0, 30.0))
        assert aam == pytest.approx(am, rel=1e-14)

    def test_past_pi_fallback_matches_equivalent_additive_margin(self):
        # when theta + m > pi the logit is cos(theta) - m sin(m), i.e. the
        # additive-margin logit with margin m sin(m)
        m = 0.4
        emb = np.array([[-1.0, 0.05], [-0.9, -0.1]])
        weights = np.array([[1.0, 0.0], [0.6, 0.8]])
        labels = np.array([0, 0])
        cos_y = (emb / np.linalg.norm(emb, axis=1, keepdims=True)) @ weights[0]
        assert np.all(cos_y < np.cos(np.pi - m))  # both samples on fallback branch
        aam, _ = aam_softmax(emb, labels, weights, MarginParams(m, 30.0))
        am, _ = am_softmax(emb, labels, weights, MarginParams(m * np.sin(m), 30.0))
        assert aam == pytest.approx(am, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        emb, labels, weights = random_batch(rng)
        params = MarginParams()
        _, grads = aam_softmax(emb, labels, weights, params)
        assert_grad_matches(lambda: aam_softmax(emb, labels, weights, params)[0], emb, grads["embeddings"], rng)
        assert_grad_matches(lambda: aam_softmax(emb, labels, weights, params)[0], weights, grads["weights"], rng)

    def test_gradients_on_fallback_branch(self):
        rng = np.random.default_rng(7)
        m = 0.4
        emb = np.array([[-1.0, 0.05], [-0.9, -0.1]])
        weights = np.array([[1.0, 0.0], [0.6, 0.8]])
        labels = np.array([0, 0])
        params = MarginParams(m, 30.0)
        _, grads = aam_softmax(emb, labels, weights, params)
        assert_grad_matches(lambda: aam_softmax(emb, labels, weights, params)[0], emb, grads["embeddings"], rng)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        emb, labels, weights = random_batch(rng)
        base, _ = aam_softmax(emb, labels, weights, MarginParams())
        scaled, _ = aam_softmax(emb * 0.2, labels, weights, MarginParams())
        assert scaled == pytest.approx(base, abs=1e-6)


class TestAngularPrototypical:
    def test_zero_scale_gives_uniform(self):
        rng = np.random.default_rng(9)
        emb = rng.standard_normal((6, 4, 8))
        loss, _ = angular_prototypical(emb, APParams(w=0.0, b=0.0))
        assert loss == pytest.approx(np.log(6.0), rel=1e-14)

    def test_orthogonal_speakers(self):
        emb = np.zeros((2, 3, 4))
        emb[0, :, 0] = 1.0  # speaker 0 lives on axis 0
        emb[1, :, 1] = 1.0  # speaker 1 on axis 1
        loss, _ = angular_prototypical(emb, APParams(w=10.0, b=0.0))
        assert loss == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)

    def test_batch_shape_validation(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            angular_prototypical(rng.standard_normal((1, 4, 8)), APParams())
        with pytest.raises(ValueError):
            angular_prototypical(rng.standard_normal((4, 1, 8)), APParams())
        with pytest.raises(ValueError):
            angular_prototypical(rng.standard_normal((4, 8)), APParams())

    def test_zero_norm_prototype_rejected(self):
        emb = np.zeros((2, 3, 4))
        emb[1, :, 0] = 1.0
        with pytest.raises(ValueError, match="zero-norm"):
            angular_prototypical(emb, APParams())

    def test_speaker_permutation_invariance(self):
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((5, 3, 8))
        base, _ = angular_prototypical(emb, APParams())
        perm = rng.permutation(5)
        shuffled, _ = angular_prototypical(emb[perm], APParams())
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        emb = rng.standard_normal((5, 3, 8))
        base, _ = angular_prototypical(emb, APParams())
        scaled, _ = angular_prototypical(emb * 11.0, APParams())
        assert scaled == pytest.approx(base, abs=1e-6)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        emb = rng.standard_normal((5, 3, 8))
        params = APParams(w=8.0, b=-3.0)
        _, grads = angular_prototypical(emb, params)
        assert_grad_matches(lambda: angular_prototypical(emb, params)[0], emb, grads["embeddings"], rng, n_points=20)

    def test_scalar_parameter_gradients(self):
        rng = np.random.default_rng(14)
        emb = rng.standard_normal((5, 3, 8))
        _, grads = angular_prototypical(emb, APParams(w=8.0, b=-3.0))
        h = 1e-5
        for name, base in (("w", 8.0), ("b", -3.0)):
            def at(v):
                p = APParams(w=v if name == "w" else 8.0, b=v if name == "b" else -3.0)
                return angular_prototypical(emb, p)[0]
            numeric = (at(base + h) - at(base - h)) / (2 * h)
            assert grads[name] == pytest.approx(numeric, rel=1e-6)


class TestAPPlusSoftmax:
    def test_exact_decomposition(self):
        rng = np.random.default_rng(15)
        emb = rng.standard_normal((4, 3, 8))
        weights = rng.standard_normal((4, 8))
        bias = rng.standard_normal(4)
        params = APParams(w=7.0, b=-2.0)
        total, grads = ap_plus_softmax(emb, weights, params, bias)
        ap_only, ap_grads = angular_prototypical(emb, params)
        labels = np.repeat(np.arange(4), 3)
        ce_only, ce_grads = softmax_ce(emb.reshape(12, 8), labels, weights, bias)
        assert total == ap_only + ce_only  # bit-exact sum
        assert_array_equal(
            grads["embeddings"],
            ap_grads["embeddings"] + ce_grads["embeddings"].reshape(4, 3, 8),
        )

    @pytest.mark.parametrize("shape", [(12, 8), (2, 2, 3, 8)])
    def test_batch_must_be_speakers_by_utterances(self, shape):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match=r"expected \(N, M, D\) embeddings"):
            ap_plus_softmax(rng.standard_normal(shape), rng.standard_normal((4, 8)), APParams(), np.zeros(4))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        emb = rng.standard_normal((4, 3, 8))
        weights = rng.standard_normal((4, 8))
        bias = rng.standard_normal(4)
        params = APParams(w=7.0, b=-2.0)
        _, grads = ap_plus_softmax(emb, weights, params, bias)
        f = lambda: ap_plus_softmax(emb, weights, params, bias)[0]
        assert_grad_matches(f, emb, grads["embeddings"], rng, n_points=15)
        assert_grad_matches(f, weights, grads["weights"], rng)
        assert_grad_matches(f, bias, grads["bias"], rng)


class TestMemory:
    """A step of a softmax-family loss holds about two (N, C) float64
    arrays, the logits and their softmax, which becomes the gradient in
    place; copies of either would show as more."""

    @pytest.mark.parametrize("loss", ["softmax", "amsoftmax", "aamsoftmax", "ap+softmax"])
    def test_one_step_peaks_at_about_two_logit_arrays(self, loss):
        speakers, utts, dim = 400, 5, 8
        rng = np.random.default_rng(20)
        emb = rng.standard_normal((speakers, utts, dim))
        flat, labels = emb.reshape(-1, dim), np.repeat(np.arange(speakers), utts)
        weights, bias = rng.standard_normal((speakers, dim)), np.zeros(speakers)
        step = {
            "softmax": lambda: softmax_ce(flat, labels, weights, bias),
            "amsoftmax": lambda: am_softmax(flat, labels, weights, MarginParams()),
            "aamsoftmax": lambda: aam_softmax(flat, labels, weights, MarginParams()),
            "ap+softmax": lambda: ap_plus_softmax(emb, weights, APParams(), bias),
        }[loss]
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(flat) * speakers * 8


class TestCommon:
    def test_registry_names(self):
        assert LOSS_NAMES == ("softmax", "amsoftmax", "aamsoftmax", "ap", "ap+softmax")

    def test_values_finite_and_non_negative(self):
        rng = np.random.default_rng(18)
        emb, labels, weights = random_batch(rng)
        emb3 = rng.standard_normal((4, 3, 12))
        w3 = rng.standard_normal((4, 12))
        checks = [
            softmax_ce(emb, labels, weights, np.zeros(len(weights)))[0],
            am_softmax(emb, labels, weights, MarginParams())[0],
            aam_softmax(emb, labels, weights, MarginParams())[0],
            angular_prototypical(emb3, APParams())[0],
            ap_plus_softmax(emb3, w3, APParams(), np.zeros(len(w3)))[0],
        ]
        for value in checks:
            assert np.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("shape", [(1,), (4,), (1, 5)])
    def test_bias_needs_one_value_per_class(self, shape):
        rng = np.random.default_rng(19)
        emb, labels, weights = random_batch(rng)  # 5 classes
        with pytest.raises(ValueError, match=r"bias must have shape \(5,\)"):
            softmax_ce(emb, labels, weights, np.zeros(shape))
        with pytest.raises(ValueError, match=r"bias must have shape \(5,\)"):
            ap_plus_softmax(rng.standard_normal((5, 3, 12)), weights, APParams(), np.zeros(shape))

    @pytest.mark.parametrize("params", [
        {"margin": np.nan}, {"margin": np.inf}, {"scale": np.nan}, {"scale": np.inf},
    ])
    def test_margin_params_must_be_finite(self, params):
        with pytest.raises(ValueError, match="finite"):
            MarginParams(**params)

    def test_margin_params_validation(self):
        with pytest.raises(ValueError):
            MarginParams(margin=-0.1)
        with pytest.raises(ValueError):
            MarginParams(scale=0.0)
        with pytest.raises(ValueError):
            am_softmax(np.ones((1, 2)), np.array([0]), np.ones((2, 2)), MarginParams(1.5, 30.0))
        with pytest.raises(ValueError):
            aam_softmax(np.ones((1, 2)), np.array([0]), np.ones((2, 2)), MarginParams(3.5, 30.0))
