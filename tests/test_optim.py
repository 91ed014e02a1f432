"""Tests for the Adam optimizer, LR schedule, and free-embedding demo."""

import numpy as np
import pytest

from svkit.losses import APParams
from svkit.metrics import Trial
from svkit.optim import (
    WEIGHT_DECAY,
    AdamState,
    DivergenceError,
    Schedule,
    adam_step,
    lr_at,
    make_corpus,
    mean_angular_gap,
    train_demo,
    trial_scores,
)


class TestSchedule:
    def test_epoch_zero_returns_initial_rate(self):
        assert lr_at(0, 0.01, Schedule(0.9, 2)) == 0.01

    def test_ten_percent_decay_every_two_epochs(self):
        assert lr_at(4, 0.01, Schedule(0.9, 2)) == pytest.approx(0.0081, rel=1e-12)

    def test_twenty_five_percent_decay_every_three_epochs(self):
        assert lr_at(3, 0.001, Schedule(0.75, 3)) == pytest.approx(0.00075, rel=1e-12)

    def test_rate_non_increasing_and_exact_at_boundaries(self):
        schedule = Schedule(0.8, 3)
        rates = [lr_at(e, 1.0, schedule) for e in range(20)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[2] == 1.0
        assert rates[3] == 0.8
        assert rates[6] == pytest.approx(0.64, rel=1e-12)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at(-1, 0.01, Schedule())

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError, match="decay_factor"):
            Schedule(decay_factor=0.0)
        with pytest.raises(ValueError, match="decay_factor"):
            Schedule(decay_factor=1.5)
        with pytest.raises(ValueError, match="decay_every"):
            Schedule(decay_every=0)


def reference_adam(params, grads_by_step, lrs, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam re-derivation used as the oracle."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(vv) for k, vv in params.items()}
    for t, (grads, lr) in enumerate(zip(grads_by_step, lrs), start=1):
        for name in params:
            g = grads[name] + weight_decay * params[name]
            m[name] = beta1 * m[name] + (1 - beta1) * g
            v[name] = beta2 * v[name] + (1 - beta2) * g**2
            m_hat = m[name] / (1 - beta1**t)
            v_hat = v[name] / (1 - beta2**t)
            params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


class TestAdamStep:
    def test_zero_gradient_without_decay_is_fixed_point(self):
        params = {"x": np.array([1.5, -2.0, 0.25])}
        before = params["x"].copy()
        state = AdamState.for_params(params)
        for _ in range(3):
            adam_step(params, {"x": np.zeros(3)}, state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params["x"], before)

    def test_first_step_with_unit_gradient_moves_by_learning_rate(self):
        params = {"x": np.array(5.0)}
        state = AdamState.for_params(params)
        adam_step(params, {"x": np.array(1.0)}, state, lr=0.1, weight_decay=0.0)
        # Bias-corrected first step: m_hat = g, sqrt(v_hat) = |g|, so the
        # update is -lr * sign(g) up to eps.
        assert float(params["x"]) == pytest.approx(4.9, rel=1e-7)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
        grads_by_step = [
            {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)} for _ in range(5)
        ]
        lrs = [0.1, 0.1, 0.05, 0.05, 0.01]
        expected = reference_adam(params, grads_by_step, lrs, WEIGHT_DECAY)

        live = {k: v.copy() for k, v in params.items()}
        state = AdamState.for_params(live)
        for grads, lr in zip(grads_by_step, lrs):
            adam_step(live, grads, state, lr)
        for name in params:
            np.testing.assert_allclose(live[name], expected[name], rtol=1e-12)

    def test_weight_decay_pulls_parameters_toward_zero(self):
        params = {"x": np.array([2.0, -2.0])}
        state = AdamState.for_params(params)
        adam_step(params, {"x": np.zeros(2)}, state, lr=0.01, weight_decay=0.1)
        assert params["x"][0] < 2.0
        assert params["x"][1] > -2.0

    def test_updates_apply_in_place(self):
        x = np.array([1.0])
        params = {"x": x}
        state = AdamState.for_params(params)
        adam_step(params, {"x": np.array([1.0])}, state, lr=0.1)
        assert params["x"] is x

    def test_identical_runs_are_identical(self):
        rng = np.random.default_rng(1)
        init = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(4)]

        def run():
            params = {"x": init.copy()}
            state = AdamState.for_params(params)
            for g in grads:
                adam_step(params, {"x": g}, state, lr=0.05)
            return params["x"]

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        params = {"x": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(params, {"x": np.array([np.inf])}, state, lr=0.1)

    def test_shape_mismatch_rejected(self):
        params = {"x": np.array([1.0, 2.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"x": np.array([1.0])}, state, lr=0.1)


class TestMakeCorpus:
    def test_shapes_and_labels(self):
        corpus = make_corpus(n_speakers=6, n_utts=4, dim=8, n_trials=30, seed=0)
        assert corpus.embeddings.shape == (6, 4, 8)
        assert corpus.n_speakers == 6
        assert corpus.n_utterances == 4
        np.testing.assert_array_equal(corpus.labels(), np.repeat(np.arange(6), 4))

    def test_trial_lists_balanced(self):
        corpus = make_corpus(n_speakers=6, n_utts=4, dim=8, n_trials=30, seed=0)
        for trials in (corpus.train_trials, corpus.heldout_trials):
            assert len(trials) == 30
            labels = [t.label for t in trials]
            assert labels.count(1) == 15
            assert labels.count(0) == 15

    def test_target_trials_share_speaker_prefix(self):
        corpus = make_corpus(n_speakers=6, n_utts=4, dim=8, n_trials=30, seed=1)
        for t in list(corpus.train_trials) + list(corpus.heldout_trials):
            same_speaker = t.enroll[:4] == t.test[:4]
            assert same_speaker == bool(t.label)

    def test_train_and_heldout_pairs_disjoint(self):
        corpus = make_corpus(n_speakers=8, n_utts=5, dim=4, n_trials=60, seed=2)
        train_pairs = {(t.enroll, t.test) for t in corpus.train_trials}
        heldout_pairs = {(t.enroll, t.test) for t in corpus.heldout_trials}
        assert len(train_pairs) == len(corpus.train_trials)
        assert len(heldout_pairs) == len(corpus.heldout_trials)
        assert not train_pairs & heldout_pairs

    def test_same_seed_reproduces_corpus(self):
        a = make_corpus(n_speakers=4, n_utts=3, dim=4, n_trials=12, seed=3)
        b = make_corpus(n_speakers=4, n_utts=3, dim=4, n_trials=12, seed=3)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        assert a.train_trials == b.train_trials
        assert a.heldout_trials == b.heldout_trials

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_corpus(n_speakers=1, n_utts=4)
        with pytest.raises(ValueError, match="cannot sample"):
            make_corpus(n_speakers=2, n_utts=2, dim=4, n_trials=100)


class TestTrialScores:
    def test_scores_are_pairwise_cosines(self):
        embeddings = np.array(
            [[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], [[0.0, 0.0, 2.0], [0.0, 1.0, 1.0]]]
        )
        trials = (
            Trial(1, "s000u000", "s000u001"),
            Trial(0, "s000u000", "s001u000"),
            Trial(0, "s000u001", "s001u001"),
        )
        ss = trial_scores(embeddings, trials)
        np.testing.assert_allclose(
            ss.scores, [np.sqrt(0.5), 0.0, 0.5], rtol=1e-12, atol=1e-15
        )

    def test_zero_norm_embedding_rejected(self):
        embeddings = np.zeros((2, 2, 3))
        trials = (Trial(1, "s000u000", "s000u001"),)
        with pytest.raises(ValueError, match="zero-norm"):
            trial_scores(embeddings, trials)


class TestMeanAngularGap:
    def test_orthogonal_clusters_gap_is_ninety_degrees(self):
        embeddings = np.array(
            [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]
        )
        assert mean_angular_gap(embeddings) == pytest.approx(90.0, abs=1e-9)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(4)
        embeddings = rng.normal(size=(3, 4, 5))
        unit = embeddings / np.linalg.norm(embeddings, axis=-1, keepdims=True)
        centroids = unit.mean(axis=1)
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        gaps = []
        for k in range(3):
            for m in range(4):
                angles = [
                    np.degrees(np.arccos(np.clip(unit[k, m] @ centroids[j], -1, 1)))
                    for j in range(3)
                ]
                own = angles[k]
                nearest_other = min(a for j, a in enumerate(angles) if j != k)
                gaps.append(nearest_other - own)
        assert mean_angular_gap(embeddings) == pytest.approx(np.mean(gaps), rel=1e-12)

    def test_invariant_to_per_utterance_scale(self):
        rng = np.random.default_rng(5)
        embeddings = rng.normal(size=(3, 4, 6))
        scales = rng.uniform(0.1, 10.0, size=(3, 4, 1))
        assert mean_angular_gap(embeddings * scales) == pytest.approx(
            mean_angular_gap(embeddings), rel=1e-9
        )


def tiny_corpus(seed=0):
    return make_corpus(n_speakers=8, n_utts=5, dim=16, n_trials=60, seed=seed)


class TestTrainDemo:
    def test_history_records_every_epoch(self):
        result = train_demo(tiny_corpus(), epochs=5)
        assert len(result.history) == 5
        assert [r.epoch for r in result.history] == [0, 1, 2, 3, 4]
        for record in result.history:
            assert record.lr == lr_at(record.epoch, 0.1, Schedule())
            assert np.isfinite(record.loss)
            assert 0.0 <= record.heldout_eer <= 1.0

    @pytest.mark.parametrize(
        "loss_name", ["softmax", "amsoftmax", "aamsoftmax", "ap", "ap+softmax"]
    )
    def test_training_reduces_loss(self, loss_name):
        result = train_demo(tiny_corpus(), loss_name=loss_name, epochs=30)
        assert result.history[-1].loss < result.history[0].loss

    def test_untrained_embeddings_score_at_chance(self):
        corpus = make_corpus(n_speakers=20, n_utts=10, dim=32, n_trials=400, seed=0)
        result = train_demo(corpus, epochs=0)
        assert len(result.history) == 0
        assert 0.35 < result.heldout_eer < 0.65

    def test_short_run_separates_heldout_trials(self):
        corpus = make_corpus(n_speakers=10, n_utts=7, dim=32, n_trials=200, seed=0)
        result = train_demo(corpus, epochs=60)
        assert result.heldout_eer < 0.10
        assert 0.0 <= result.heldout_min_dcf <= 1.0

    def test_identical_runs_are_identical(self):
        first = train_demo(tiny_corpus(), epochs=10)
        second = train_demo(tiny_corpus(), epochs=10)
        np.testing.assert_array_equal(first.embeddings, second.embeddings)
        assert first.history == second.history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_reports_epoch(self):
        with pytest.raises(DivergenceError, match=r"epoch \d+"):
            train_demo(tiny_corpus(), loss_name="softmax", epochs=10, lr0=1e160)

    def test_smoothed_loss_non_increasing_late_in_training(self):
        corpus = make_corpus(n_speakers=10, n_utts=7, dim=32, n_trials=200, seed=1)
        result = train_demo(corpus, epochs=120)
        losses = np.array([r.loss for r in result.history])
        window = 20
        means = np.array(
            [losses[s : s + window].mean() for s in range(50, len(losses) - window)]
        )
        assert np.all(np.diff(means) <= 1e-4)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="unknown loss"):
            train_demo(tiny_corpus(), loss_name="hinge")

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            train_demo(tiny_corpus(), epochs=-1)

    def test_history_csv_round_trips(self):
        result = train_demo(tiny_corpus(), epochs=3)
        text = result.history_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,lr,loss,heldout_eer"
        assert len(lines) == 4
        epoch, lr, loss, heldout = lines[1].split(",")
        record = result.history[0]
        assert int(epoch) == record.epoch
        assert float(lr) == record.lr
        assert float(loss) == record.loss
        assert float(heldout) == record.heldout_eer

    def test_prototypical_scale_clamp_keeps_scale_usable(self):
        # A tight floor just below the initial scale forces the clamp to
        # engage if any step dips; training must stay finite either way.
        result = train_demo(
            tiny_corpus(),
            loss_name="ap",
            epochs=15,
            ap=APParams(w=10.0, b=-5.0, w_min=9.9),
        )
        assert np.isfinite(result.history[-1].loss)
