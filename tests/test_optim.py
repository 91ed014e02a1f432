"""Tests for the Adam optimizer, LR schedule, and free-embedding demo."""

import tracemalloc

import numpy as np
import pytest

from oracles import corpus_pair_pools, corpus_trial_lists, mean_angular_gap
from svkit import losses, optim
from svkit.losses import MarginParams
from svkit.metrics import Trials
from svkit.optim import (
    WEIGHT_DECAY,
    AdamState,
    DivergenceError,
    Schedule,
    adam_step,
    lr_at,
    make_corpus,
    pair_pools,
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
            adam_step(live, grads, state, lr, WEIGHT_DECAY)
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
        adam_step(params, {"x": np.array([1.0])}, state, lr=0.1, weight_decay=WEIGHT_DECAY)
        assert params["x"] is x

    def test_identical_runs_are_identical(self):
        rng = np.random.default_rng(1)
        init = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(4)]

        def run():
            params = {"x": init.copy()}
            state = AdamState.for_params(params)
            for g in grads:
                adam_step(params, {"x": g}, state, lr=0.05, weight_decay=WEIGHT_DECAY)
            return params["x"]

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        params = {"x": np.array([1.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(params, {"x": np.array([np.inf])}, state, lr=0.1, weight_decay=WEIGHT_DECAY)

    def test_shape_mismatch_rejected(self):
        params = {"x": np.array([1.0, 2.0])}
        state = AdamState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"x": np.array([1.0])}, state, lr=0.1, weight_decay=WEIGHT_DECAY)


class TestMakeCorpus:
    def test_shapes_and_labels(self):
        corpus = make_corpus(n_speakers=6, n_utts=4, dim=8, n_trials=30, seed=0)
        assert corpus.embeddings.shape == (6, 4, 8)

    def test_trial_lists_balanced(self):
        corpus = make_corpus(n_speakers=6, n_utts=4, dim=8, n_trials=30, seed=0)
        for trials in (corpus.train_trials, corpus.heldout_trials):
            assert len(trials.labels) == len(trials.enroll) == len(trials.test) == 30
            labels = trials.labels.tolist()
            assert labels.count(1) == 15
            assert labels.count(0) == 15

    def test_target_trials_share_speaker_prefix(self):
        corpus = make_corpus(n_speakers=6, n_utts=4, dim=8, n_trials=30, seed=1)
        for trials in (corpus.train_trials, corpus.heldout_trials):
            for label, a, b in zip(trials.labels, trials.enroll, trials.test):
                same_speaker = trials.ids[a][:4] == trials.ids[b][:4]
                assert same_speaker == bool(label)

    def test_train_and_heldout_pairs_disjoint(self):
        corpus = make_corpus(n_speakers=8, n_utts=5, dim=4, n_trials=60, seed=2)
        train, heldout = corpus.train_trials, corpus.heldout_trials
        train_pairs = set(zip(train.enroll.tolist(), train.test.tolist()))
        heldout_pairs = set(zip(heldout.enroll.tolist(), heldout.test.tolist()))
        assert len(train_pairs) == len(train.labels)
        assert len(heldout_pairs) == len(heldout.labels)
        assert not train_pairs & heldout_pairs

    def test_same_seed_reproduces_corpus(self):
        a = make_corpus(n_speakers=4, n_utts=3, dim=4, n_trials=12, seed=3)
        b = make_corpus(n_speakers=4, n_utts=3, dim=4, n_trials=12, seed=3)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        for x, y in ((a.train_trials, b.train_trials), (a.heldout_trials, b.heldout_trials)):
            assert x.ids == y.ids
            for field in ("labels", "enroll", "test"):
                np.testing.assert_array_equal(getattr(x, field), getattr(y, field))

    @pytest.mark.parametrize("n_speakers,n_utts", [(2, 2), (2, 5), (5, 2), (12, 6), (7, 4)])
    def test_pair_pools_count_the_listed_pools(self, n_speakers, n_utts):
        assert pair_pools(n_speakers, n_utts) == tuple(map(len, corpus_pair_pools(n_speakers, n_utts)))

    # (speakers, utterances, trials): the smallest grid, the train-prep
    # benchmark's grid, acceptance criterion 9's, and odd trial counts.
    @pytest.mark.parametrize("grid", [(2, 2, 2), (2, 2, 3), (12, 6, 120), (20, 10, 400), (9, 5, 77)])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_trial_lists_match_draws_from_the_listed_pools(self, grid, seed):
        n_speakers, n_utts, n_trials = grid
        corpus = make_corpus(n_speakers, n_utts, dim=3, n_trials=n_trials, seed=seed)
        want = corpus_trial_lists(n_speakers, n_utts, 3, n_trials, seed)
        for trials, (labels, enroll, test) in zip((corpus.train_trials, corpus.heldout_trials), want):
            for got, expected in ((trials.labels, labels), (trials.enroll, enroll), (trials.test, test)):
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)

    def test_draws_without_listing_the_pair_pools(self):
        # 60 speakers x 20 utterances give 708,000 nontarget pairs; as a
        # list of tuples they peaked at ~80 MB.
        tracemalloc.start()
        try:
            make_corpus(60, 20, dim=2, n_trials=40, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n", range(2, 60))
    def test_pair_decode_matches_triu_indices(self, n):
        first, second = np.triu_indices(n, 1)
        rows, cols = optim._pair_at(np.arange(first.size), n)
        np.testing.assert_array_equal(rows, first)
        np.testing.assert_array_equal(cols, second)

    def test_nontarget_draws_grow_linearly_in_speakers(self):
        # 4,000 speakers give ~8M speaker pairs; np.triu_indices listed
        # them in two int64 arrays, a ~144 MB peak.
        tracemalloc.start()
        try:
            make_corpus(4000, 2, dim=1, n_trials=40, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_corpus(n_speakers=1, n_utts=4, dim=512, n_trials=400, seed=0)
        with pytest.raises(ValueError, match="cannot sample"):
            make_corpus(n_speakers=2, n_utts=2, dim=4, n_trials=100, seed=0)


def grid_trials(rows) -> Trials:
    """(label, enroll, test) rows into the ids of a 2 x 2 corpus grid."""
    labels, enroll, test = np.array(rows).T
    ids = ("s000u000", "s000u001", "s001u000", "s001u001")
    return Trials(ids, labels.astype(np.int8), enroll.astype(np.intp), test.astype(np.intp))


class TestTrialScores:
    def test_scores_are_pairwise_cosines(self):
        embeddings = np.array(
            [[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], [[0.0, 0.0, 2.0], [0.0, 1.0, 1.0]]]
        )
        trials = grid_trials([(1, 0, 1), (0, 0, 2), (0, 1, 3)])
        ss = trial_scores(embeddings, trials)
        np.testing.assert_allclose(
            ss.scores, [np.sqrt(0.5), 0.0, 0.5], rtol=1e-12, atol=1e-15
        )

    def test_zero_norm_embedding_rejected(self):
        embeddings = np.zeros((2, 2, 3))
        trials = grid_trials([(1, 0, 1)])
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


# What `svkit train-demo` passes when no flag is given.
DEMO_ARGS = dict(
    loss_name="ap+softmax",
    epochs=200,
    lr0=0.1,
    schedule=Schedule(),
    weight_decay=WEIGHT_DECAY,
    margin=MarginParams(),
    seed=0,
)


def demo(corpus, **changes):
    """train_demo with DEMO_ARGS, some of them changed."""
    return train_demo(corpus, **{**DEMO_ARGS, **changes})


class TestTrainDemo:
    def test_history_records_every_epoch(self):
        result = demo(tiny_corpus(), epochs=5)
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
        result = demo(tiny_corpus(), loss_name=loss_name, epochs=30)
        assert result.history[-1].loss < result.history[0].loss

    def test_untrained_embeddings_score_at_chance(self):
        corpus = make_corpus(n_speakers=20, n_utts=10, dim=32, n_trials=400, seed=0)
        result = demo(corpus, epochs=0)
        assert len(result.history) == 0
        assert 0.35 < result.heldout_eer < 0.65

    def test_short_run_separates_heldout_trials(self):
        corpus = make_corpus(n_speakers=10, n_utts=7, dim=32, n_trials=200, seed=0)
        result = demo(corpus, epochs=60)
        assert result.heldout_eer < 0.10
        assert 0.0 <= result.heldout_min_dcf <= 1.0

    def test_identical_runs_are_identical(self):
        first = demo(tiny_corpus(), epochs=10)
        second = demo(tiny_corpus(), epochs=10)
        np.testing.assert_array_equal(first.embeddings, second.embeddings)
        assert first.history == second.history

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_reports_epoch(self):
        with pytest.raises(DivergenceError, match=r"epoch \d+"):
            demo(tiny_corpus(), loss_name="softmax", epochs=10, lr0=1e160)

    def test_non_finite_gradient_reports_epoch(self, monkeypatch):
        def inf_bias_gradient(*args):
            loss, grads = real(*args)
            return loss, dict(grads, bias=np.full_like(grads["bias"], np.inf))

        real = losses.softmax_ce
        monkeypatch.setattr(losses, "softmax_ce", inf_bias_gradient)
        with pytest.raises(DivergenceError, match=r"^non-finite gradient for 'bias' at epoch 0$"):
            demo(tiny_corpus(), loss_name="softmax", epochs=3)

    def test_overflowing_step_reports_epoch(self):  # a finite loss and gradients, then embeddings past the range
        with pytest.raises(DivergenceError, match=r"^held-out scores must be finite at epoch 0$"):
            demo(make_corpus(n_speakers=3, n_utts=3, dim=4, n_trials=4, seed=0), loss_name="ap", epochs=3, lr0=1e308)

    def test_non_finite_parameter_after_the_last_step_reports_epoch(self, monkeypatch):
        def inf_weight_at_last_step(params, grads, state, *args):
            real(params, grads, state, *args)
            if state.step == 3:  # no later loss reads it
                params["weights"][0, 0] = np.inf

        real = optim.adam_step
        monkeypatch.setattr(optim, "adam_step", inf_weight_at_last_step)
        with pytest.raises(DivergenceError, match=r"^parameters became non-finite at epoch 2$"):
            demo(tiny_corpus(), loss_name="softmax", epochs=3)

    def test_smoothed_loss_non_increasing_late_in_training(self):
        corpus = make_corpus(n_speakers=10, n_utts=7, dim=32, n_trials=200, seed=1)
        result = demo(corpus, epochs=120)
        losses = np.array([r.loss for r in result.history])
        window = 20
        means = np.array(
            [losses[s : s + window].mean() for s in range(50, len(losses) - window)]
        )
        assert np.all(np.diff(means) <= 1e-4)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="unknown loss"):
            demo(tiny_corpus(), loss_name="hinge")

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            demo(tiny_corpus(), epochs=-1)

    def test_history_csv_round_trips(self):
        result = demo(tiny_corpus(), epochs=3)
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

    def test_prototypical_scale_clamp_keeps_scale_usable(self, monkeypatch):
        # A tight floor just below the initial scale forces the clamp to
        # engage if any step dips; training must stay finite either way.
        monkeypatch.setattr(optim, "AP_W_MIN", 9.9)
        result = demo(tiny_corpus(), loss_name="ap", epochs=15)
        assert np.isfinite(result.history[-1].loss)
