"""Tests for crop planning, crop embedding and trial scoring."""

import re
import sys
import threading
import time

import numpy as np
import pytest

from conftest import make_wave, per_crop
from oracles import all_pairs_mean_cosine, relative_l2
from svkit import network, scoring
from svkit.audio import Waveform, sample_count
from svkit.features import extract_features
from svkit.network import FoldedWeights, forward
from svkit.scoring import (
    N_CROPS,
    crop_embeddings,
    crops_per_call,
    embed_utterances,
    network_embedder,
    plan_crops,
    score_from_embeddings,
    score_pair,
    score_trials,
)

SR = 16000


class TestPlanCrops:
    def test_ten_second_utterance_spaces_ten_crops_evenly(self):
        offsets = plan_crops(10 * SR, 4 * SR, n_crops=10)
        expected = np.rint(np.arange(10) * (6 * SR) / 9.0).astype(np.intp)
        np.testing.assert_array_equal(offsets, expected)
        assert offsets[0] == 0
        assert offsets[-1] == 6 * SR

    def test_crop_length_input_pins_all_offsets_to_zero(self):
        np.testing.assert_array_equal(plan_crops(4 * SR, 4 * SR, N_CROPS), np.zeros(10))

    def test_shorter_input_treated_as_zero_slack(self):
        np.testing.assert_array_equal(plan_crops(SR, 4 * SR, N_CROPS), np.zeros(10))

    def test_endpoints_cover_start_and_end(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            total = int(rng.integers(4 * SR, 20 * SR))
            offsets = plan_crops(total, 4 * SR, n_crops=10)
            assert offsets[0] == 0
            assert offsets[-1] == total - 4 * SR
            assert np.all(np.diff(offsets) >= 0)
            assert np.all(offsets >= 0)

    def test_single_crop_starts_at_zero(self):
        np.testing.assert_array_equal(plan_crops(10 * SR, 4 * SR, n_crops=1), [0])

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            plan_crops(SR, 0, N_CROPS)
        with pytest.raises(ValueError):
            plan_crops(SR, SR, n_crops=0)


class TestScoreFromEmbeddings:
    @pytest.mark.parametrize(
        "rows_a,rows_b",
        [((0,), (1,)), ((0, 1, 2), (3, 4, 5, 6, 7)), (range(10), range(10, 20))],
        ids=["1x1", "3x5", "10x10"],
    )
    def test_matches_all_pairs_oracle(self, rows_a, rows_b):
        crops = np.random.default_rng(1).normal(size=(20, 16))
        a, b = crops[list(rows_a)], crops[list(rows_b)]
        assert abs(score_from_embeddings(a, b) - all_pairs_mean_cosine(a, b)) < 1e-12

    def test_repeated_rows_of_short_utterances_match_oracle(self):
        # A short utterance's ten crops are one row repeated; an utterance
        # just over a crop long repeats one of its nine distinct rows.
        rng = np.random.default_rng(6)
        short = np.tile(rng.normal(size=(1, 32)), (10, 1))
        distinct = rng.normal(size=(9, 32))
        nearly_short = distinct[[0, 1, 2, 3, 4, 4, 5, 6, 7, 8]]
        for a, b in [(short, nearly_short), (short, short), (nearly_short, distinct)]:
            assert abs(score_from_embeddings(a, b) - all_pairs_mean_cosine(a, b)) < 1e-12

    def test_identical_rows_score_one(self):
        a = np.array([[1.0, 2.0, 3.0]])
        assert score_from_embeddings(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_rows_score_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert score_from_embeddings(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_forty_five_degree_pair(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0, 1.0]])
        assert score_from_embeddings(a, b) == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-12)

    def test_large_inputs_stay_in_unit_interval(self):
        a = np.random.default_rng(2).normal(size=(8, 4)) * 1e8
        for i in range(8):
            for j in range(8):
                assert -1.0 <= score_from_embeddings(a[[i]], a[[j]]) <= 1.0
        assert -1.0 <= score_from_embeddings(a, a) <= 1.0
        assert score_from_embeddings(a[[0, 0]], a[[0]]) <= 1.0

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 4)])
    def test_crops_must_be_rows_of_a_matrix(self, shape):
        e = np.ones(shape)
        with pytest.raises(ValueError, match=r"expected an \(n_crops, D\) matrix"):
            score_from_embeddings(e, e)

    def test_zero_row_rejected_on_either_side(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm"):
            score_from_embeddings(a, z)
        with pytest.raises(ValueError, match="zero-norm"):
            score_from_embeddings(z, a)

    def test_two_crop_hand_example(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[1.0, 1.0], [1.0, 0.0]])
        r = np.sqrt(2.0) / 2.0
        # cosines: (a0,b0)=r, (a0,b1)=1, (a1,b0)=r, (a1,b1)=0
        assert score_from_embeddings(a, b) == pytest.approx((r + 1.0 + r) / 4.0, rel=1e-12)

    def test_swap_is_bit_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 32))
        b = rng.normal(size=(10, 32))
        assert score_from_embeddings(a, b) == score_from_embeddings(b, a)

    def test_crop_order_is_irrelevant(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 32))
        b = rng.normal(size=(10, 32))
        baseline = score_from_embeddings(a, b)
        for _ in range(5):
            pa = rng.permutation(10)
            pb = rng.permutation(10)
            assert score_from_embeddings(a[pa], b[pb]) == baseline

    def test_score_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(3, 8))
            b = rng.normal(size=(3, 8))
            assert -1.0 <= score_from_embeddings(a, b) <= 1.0


class TestScoreTrials:
    def test_each_score_has_the_bits_of_its_pair(self):
        rng = np.random.default_rng(7)
        by_id = {f"u{i}": rng.normal(size=(int(rng.integers(1, 11)), 64)) for i in range(11)}
        by_id["short"] = np.tile(rng.normal(size=(1, 64)), (10, 1))
        embeddings = list(by_id.values())
        pairs = [(a, b) for a in range(12) for b in range(12) if a != b]  # two full chunks and a partial one
        assert len(pairs) > 2 * scoring.TRIAL_CHUNK and len(pairs) % scoring.TRIAL_CHUNK
        want = [score_from_embeddings(embeddings[a], embeddings[b]) for a, b in pairs]
        enroll, test = np.array(pairs, dtype=np.intp).T
        assert score_trials(embeddings, enroll, test).tolist() == want

    @pytest.mark.parametrize("enroll,test", [([0, 3], [1, 0]), ([0, 1], [-1, 0]), ([2, 0], [0, 7])])
    def test_row_outside_the_embeddings_raises(self, enroll, test):
        embeddings = [np.eye(2, 4) + k for k in range(3)]
        with pytest.raises(IndexError):
            score_trials(embeddings, np.array(enroll, dtype=np.intp), np.array(test, dtype=np.intp))

    def test_empty_list_scores_nothing(self):
        none = np.zeros(0, dtype=np.intp)
        assert score_trials([], none, none).shape == (0,)


def first_sample_embedder(waveform: Waveform) -> np.ndarray:
    return np.array([waveform.samples[0], 1.0])


class TestCropEmbeddings:
    def test_rows_follow_planned_offsets(self):
        wave = make_wave(seed=0, seconds=6.0)
        rows = crop_embeddings(wave, per_crop(first_sample_embedder))
        offsets = plan_crops(len(wave), 4 * SR, N_CROPS)
        np.testing.assert_array_equal(rows[:, 0], wave.samples[offsets])
        assert rows.shape == (10, 2)

    def test_short_utterance_is_tiled_to_crop_length(self):
        length_probe = lambda w: np.array([float(len(w)), 1.0])
        wave = make_wave(seed=1, seconds=1.0)
        rows = crop_embeddings(wave, per_crop(length_probe))
        assert np.all(rows[:, 0] == 4 * SR)

    def test_short_utterance_crops_repeat_source(self):
        wave = make_wave(seed=2, seconds=1.0)
        rows = crop_embeddings(wave, per_crop(first_sample_embedder))
        # Tiled signal starts with the original, and all offsets are 0.
        np.testing.assert_array_equal(rows[:, 0], np.full(10, wave.samples[0]))

    def test_custom_crop_count_and_length(self):
        wave = make_wave(seed=3, seconds=2.0)
        rows = crop_embeddings(wave, per_crop(first_sample_embedder), crop_seconds=0.5, n_crops=4)
        assert rows.shape == (4, 2)

    def test_short_utterance_embeds_its_one_crop_once(self):
        calls = []
        counting = lambda w: calls.append(len(w)) or np.array([w.samples.sum(), 1.0])
        wave = make_wave(seed=13, seconds=3.0)
        rows = crop_embeddings(wave, per_crop(counting))
        assert calls == [4 * SR]
        assert rows.shape == (10, 2)
        np.testing.assert_array_equal(rows, np.tile(rows[0], (10, 1)))

    def test_repeated_offsets_reuse_their_row(self):
        calls = []
        counting = lambda w: calls.append(w) or first_sample_embedder(w)
        wave = make_wave(seed=14, seconds=4.0 + 8 / SR)  # slack 8: offsets 0..8 with 4 twice
        offsets = plan_crops(len(wave), 4 * SR, N_CROPS)
        assert len(set(offsets.tolist())) == 9
        rows = crop_embeddings(wave, per_crop(counting))
        assert len(calls) == 9
        np.testing.assert_array_equal(rows[:, 0], wave.samples[offsets])

    def test_non_finite_embedding_rejected(self):
        wave = make_wave(seed=4, seconds=1.0)
        bad = lambda w: np.array([np.nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            crop_embeddings(wave, per_crop(bad))


def segment_sum_embedder(waveform: Waveform) -> np.ndarray:
    return waveform.samples[: 16 * 100].reshape(16, 100).sum(axis=1)


class TestScorePair:
    def test_constant_embedder_scores_one(self):
        stub = lambda w: np.array([0.3, -0.2, 0.9])
        a = make_wave(seed=5, seconds=1.0)
        b = make_wave(seed=6, seconds=2.0)
        assert score_pair(a, b, per_crop(stub)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_is_bit_exact(self):
        a = make_wave(seed=7, seconds=5.0)
        b = make_wave(seed=8, seconds=6.5)
        assert score_pair(a, b, per_crop(segment_sum_embedder)) == score_pair(
            b, a, per_crop(segment_sum_embedder)
        )

    def test_self_score_is_deterministic(self):
        a = make_wave(seed=9, seconds=4.5)
        first = score_pair(a, a, per_crop(segment_sum_embedder))
        second = score_pair(a, a, per_crop(segment_sum_embedder))
        assert first == second
        assert -1.0 <= first <= 1.0

    def test_both_utterances_share_one_crop_queue(self, monkeypatch):
        monkeypatch.setattr(scoring, "crop_workers", lambda: 2)
        both = threading.Barrier(2, timeout=10)

        def embed(waveform):
            # The second utterance's one crop must run beside the first's;
            # one queue after the other breaks the barrier.
            both.wait()
            return segment_sum_embedder(waveform)

        a, b = make_wave(seed=10, seconds=0.5), make_wave(seed=11, seconds=0.6)
        apart = [crop_embeddings(w, per_crop(segment_sum_embedder), crop_seconds=1.0) for w in (a, b)]
        assert score_pair(a, b, per_crop(embed), crop_seconds=1.0) == score_from_embeddings(*apart)


class TestNetworkEmbedder:
    def test_produces_finite_embedding(self, q_weights):
        embed = network_embedder(FoldedWeights(q_weights))
        out = embed([make_wave(seed=10, seconds=0.5)])
        assert out.shape == (1, 512)
        assert np.all(np.isfinite(out))

    def test_end_to_end_pair_score_is_symmetric(self, q_weights):
        embed = network_embedder(FoldedWeights(q_weights))
        a = make_wave(seed=11, seconds=0.6)
        b = make_wave(seed=12, seconds=0.8)
        forward_score = score_pair(a, b, embed, crop_seconds=0.5, n_crops=3)
        reverse_score = score_pair(b, a, embed, crop_seconds=0.5, n_crops=3)
        assert forward_score == reverse_score
        assert -1.0 <= forward_score <= 1.0


def embed_on(monkeypatch, workers, *args, **kwargs):
    """crop_embeddings with crop_workers() forced to `workers`."""
    monkeypatch.setattr(scoring, "crop_workers", lambda: workers)
    return crop_embeddings(*args, **kwargs)


def failing_at(delays=None):
    """first_sample_embedder, raising for a crop whose first sample is a
    key of `delays`, after waiting that many seconds."""
    delays = delays or {}

    def embed(waveform):
        start = float(waveform.samples[0])
        if start in delays:
            time.sleep(delays[start])
            raise ValueError(f"bad crop starting {start}")
        time.sleep(0.002)  # let every thread take a crop
        return first_sample_embedder(waveform)

    return embed


class TestParallelCrops:
    """Crops on several threads give the rows, row order and errors of
    crops one by one."""

    # 3 s utterance, 1 s crops: ten distinct offsets
    WAVE = make_wave(seed=21, seconds=3.0)
    OFFSETS = plan_crops(3 * SR, SR, N_CROPS)

    def test_utterance_has_ten_distinct_crops(self):
        assert len(set(self.OFFSETS.tolist())) == 10

    @pytest.mark.parametrize("variant", ["q-sap", "h-asp"])
    def test_network_rows_are_bit_identical(self, variant, monkeypatch, request):
        weights = request.getfixturevalue(f"{variant[0]}_weights")
        embed = network_embedder(FoldedWeights(weights))
        serial = embed_on(monkeypatch, 1, self.WAVE, embed, crop_seconds=1.0)
        threaded = embed_on(monkeypatch, 2, self.WAVE, embed, crop_seconds=1.0)
        assert serial.shape == (10, 512)
        assert threaded.tobytes() == serial.tobytes()

    def test_rows_follow_planned_offsets_on_two_threads(self, monkeypatch):
        threads = set()
        recording = lambda w: threads.add(threading.get_ident()) or failing_at()(w)
        rows = embed_on(monkeypatch, 2, self.WAVE, per_crop(recording), crop_seconds=1.0)
        np.testing.assert_array_equal(rows[:, 0], self.WAVE.samples[self.OFFSETS])
        assert len(threads) == 2

    def test_short_crops_stay_on_the_calling_thread(self, monkeypatch):
        threads = set()
        recording = lambda w: threads.add(threading.get_ident()) or failing_at()(w)
        embed_on(monkeypatch, 2, self.WAVE, per_crop(recording), crop_seconds=0.5)
        assert threads == {threading.get_ident()}

    def test_single_crop_rows_match_one_by_one(self, monkeypatch):
        serial = embed_on(monkeypatch, 1, self.WAVE, per_crop(segment_sum_embedder), crop_seconds=1.0, n_crops=1)
        threaded = embed_on(monkeypatch, 2, self.WAVE, per_crop(segment_sum_embedder), crop_seconds=1.0, n_crops=1)
        assert serial.shape == (1, 16)
        assert threaded.tobytes() == serial.tobytes()

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        want = embed_on(monkeypatch, 1, self.WAVE, per_crop(segment_sum_embedder), crop_seconds=1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got = embed_on(monkeypatch, 4, self.WAVE, per_crop(segment_sum_embedder), crop_seconds=1.0)
                assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_crop_raises_on_every_path(self, workers, monkeypatch):
        starts = self.WAVE.samples[self.OFFSETS]
        # Crop 6 fails first in time, crop 3 first in order.
        embed = failing_at({float(starts[3]): 0.05, float(starts[6]): 0.0})
        with pytest.raises(ValueError, match=re.escape(f"starting {float(starts[3])}")):
            embed_on(monkeypatch, workers, self.WAVE, per_crop(embed), crop_seconds=1.0)
        # The pool is idle again: the next utterance embeds normally.
        rows = embed_on(monkeypatch, workers, self.WAVE, per_crop(failing_at()), crop_seconds=1.0)
        np.testing.assert_array_equal(rows[:, 0], starts)

    def test_blas_runs_one_thread_per_call_while_crops_run(self, monkeypatch):
        blas = scoring._openblas()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS whose thread count can be set")
        get, set_, _ = blas
        before = get()
        seen = set()
        recording = lambda w: seen.add(get()) or failing_at()(w)
        set_(2)
        try:
            embed_on(monkeypatch, 2, self.WAVE, per_crop(recording), crop_seconds=1.0)
            assert seen == {1}
            assert get() == 2
        finally:
            set_(before)

    def test_blas_runs_one_thread_per_call_while_short_crops_run_one_by_one(self, monkeypatch):
        blas = scoring._openblas()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS whose thread count can be set")
        get, set_, _ = blas
        before = get()
        seen, threads = set(), set()
        recording = lambda w: seen.add(get()) or threads.add(threading.get_ident()) or failing_at()(w)
        set_(2)
        try:
            embed_on(monkeypatch, 2, self.WAVE, per_crop(recording), crop_seconds=0.5)
            assert threads == {threading.get_ident()}
            assert seen == {1}
            assert get() == 2
        finally:
            set_(before)

    def test_crops_run_one_by_one_without_settable_blas(self, monkeypatch):
        monkeypatch.setattr(scoring, "_openblas", lambda: None)
        assert scoring.crop_workers.__wrapped__() == 1

    def test_crops_without_settable_blas_leave_its_thread_count(self, monkeypatch):
        blas = scoring._openblas()
        if blas is None:
            pytest.skip("numpy links no OpenBLAS whose thread count can be set")
        get, set_, _ = blas
        before = get()
        waves = [self.WAVE, make_wave(seed=22, seconds=2.0)]
        seen = set()
        recording = lambda w: seen.add(get()) or segment_sum_embedder(w)
        set_(2)
        try:
            want = list(embed_utterances(waves, per_crop(segment_sum_embedder), crop_seconds=1.0, n_crops=N_CROPS))
            # A BLAS the queue cannot see: crops run one by one, as
            # crop_workers then rules, and keep the thread count BLAS has.
            monkeypatch.setattr(scoring, "_openblas", lambda: None)
            monkeypatch.setattr(scoring, "crop_workers", scoring.crop_workers.__wrapped__)
            got = list(embed_utterances(waves, per_crop(recording), crop_seconds=1.0, n_crops=N_CROPS))
            assert seen == {2}
            assert get() == 2
        finally:
            set_(before)
        assert [rows.tobytes() for rows in got] == [rows.tobytes() for rows in want]


class TestCropQueue:
    """The distinct crops of several utterances form one queue."""

    WAVES = [make_wave(seed=40 + i, seconds=0.5 + 0.1 * i) for i in range(6)]

    def test_one_crop_utterances_run_concurrently(self, monkeypatch):
        monkeypatch.setattr(scoring, "crop_workers", lambda: 2)
        both = threading.Barrier(2, timeout=10)

        def embed(waveform):
            # Each crop waits for a second one running beside it; one crop
            # at a time breaks the barrier.
            both.wait()
            return first_sample_embedder(waveform)

        rows = list(embed_utterances(self.WAVES[:4], per_crop(embed), crop_seconds=1.0, n_crops=N_CROPS))
        assert [r[0, 0] for r in rows] == [w.samples[0] for w in self.WAVES[:4]]
        assert all(r.shape == (10, 2) for r in rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_utterances_are_read_as_the_queue_reaches_them(self, workers, monkeypatch):
        monkeypatch.setattr(scoring, "crop_workers", lambda: workers)
        done = []
        finished_at_load = []

        def load(i):
            finished_at_load.append(len(done))
            return self.WAVES[i]

        embed = lambda w: done.append(w) or first_sample_embedder(w)
        loaded_at_yield = []
        for _ in embed_utterances(map(load, range(6)), per_crop(embed), crop_seconds=1.0, n_crops=N_CROPS):
            loaded_at_yield.append(len(finished_at_load))
        assert len(loaded_at_yield) == len(done) == 6
        # Utterance i is read only once at most 2 * workers crops are in
        # flight, the ones of utterances 0 .. i - 1, and its rows are
        # yielded before utterance i + 2 * workers + 1 is read.
        assert all(finished >= i - 2 * workers for i, finished in enumerate(finished_at_load))
        assert all(loaded <= i + 2 * workers + 1 for i, loaded in enumerate(loaded_at_yield))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_in_utterance_order_wins(self, workers, monkeypatch):
        monkeypatch.setattr(scoring, "crop_workers", lambda: workers)
        first, second = self.WAVES[:2]
        embed = failing_at({float(first.samples[0]): 0.05})

        def unreadable(*waves):
            yield from waves
            raise OSError("unreadable")

        with pytest.raises(ValueError, match="bad crop"):
            list(embed_utterances(unreadable(first), per_crop(embed), crop_seconds=1.0, n_crops=N_CROPS))
        with pytest.raises(OSError, match="unreadable"):
            list(embed_utterances(unreadable(second), per_crop(embed), crop_seconds=1.0, n_crops=N_CROPS))
        nan_first = lambda w: np.array([np.nan if w.samples[0] == first.samples[0] else 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            list(embed_utterances(unreadable(first), per_crop(nan_first), crop_seconds=1.0, n_crops=N_CROPS))

    def test_a_queue_may_start_while_another_is_suspended(self, monkeypatch):
        monkeypatch.setattr(scoring, "crop_workers", lambda: 2)
        first, second, third = self.WAVES[:3]
        inner = []

        def nested():
            embed = per_crop(first_sample_embedder)
            outer = embed_utterances([first, second], embed, crop_seconds=1.0, n_crops=N_CROPS)
            for _ in outer:
                inner.append(crop_embeddings(third, embed, crop_seconds=1.0))

        thread = threading.Thread(target=nested, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [rows[0, 0] for rows in inner] == [third.samples[0]] * 2

    def test_closing_early_cancels_the_queued_crops(self, monkeypatch):
        monkeypatch.setattr(scoring, "crop_workers", lambda: 2)
        blas = scoring._openblas()
        if blas:  # a thread count the queue's one must not leave behind
            get, set_, _ = blas
            before = get()
            set_(2)
        calls, returned = [], []
        started, released = threading.Event(), threading.Event()

        def embed(waveform):
            # Past the first utterance, crops wait until released, after the
            # close has begun: both threads are then busy and the rest of the
            # 4 in flight queued.
            calls.append(waveform)
            if waveform.samples[0] != self.WAVES[0].samples[0]:
                started.set()
                released.wait(timeout=10)
            row = first_sample_embedder(waveform)
            returned.append(waveform)
            return row

        rows = embed_utterances(self.WAVES, per_crop(embed), crop_seconds=1.0, n_crops=N_CROPS)
        assert next(rows)[0, 0] == self.WAVES[0].samples[0]
        assert started.wait(timeout=10)  # a crop is running when the queue closes
        release = threading.Timer(0.2, released.set)
        release.start()
        rows.close()
        # The close waited for every crop that had started.
        closed = len(calls)
        assert len(returned) == closed
        release.join(timeout=10)
        if blas:
            threads = get()
            set_(before)
            assert threads == 2
        # Each pool thread takes one of these waits only once its crop in
        # flight is done.
        idle = threading.Barrier(3, timeout=10)
        waits = [scoring._crop_pool(2).submit(idle.wait) for _ in range(2)]
        idle.wait()
        for wait in waits:
            wait.result(timeout=10)
        settled = len(calls)
        time.sleep(0.05)
        # Crops 1 and 2 may have started; crop 3, queued, never does, and no
        # crop starts after the close.
        assert len(calls) == settled < 4
        assert settled == closed
        # The pool is idle again: the next queue embeds every utterance.
        rows = list(embed_utterances(self.WAVES, per_crop(embed), crop_seconds=1.0, n_crops=N_CROPS))
        assert [r[0, 0] for r in rows] == [w.samples[0] for w in self.WAVES]


class TestCropBatches:
    """Crops shorter than MIN_PARALLEL_CROP_SECONDS run one utterance's
    distinct crops per trunk call, at most crops_per_call of them."""

    # At 0.5 s crops the first is tiled to one crop and the others have ten
    # distinct crops; at 0.1 s every one has ten.
    WAVES = [make_wave(seed=60 + i, seconds=0.3 + 0.4 * i) for i in range(3)]

    def test_calls_hold_one_utterance_and_a_size_set_by_the_crop_length(self):
        assert [crops_per_call(s) for s in (0.1, 0.25, 0.5, 0.99, 1.0, 4.0)] == [36, 15, 7, 4, 1, 1]
        embed_each = per_crop(first_sample_embedder)
        for seconds, sizes in ((0.1, [10, 10, 10]), (0.5, [1, 7, 3, 7, 3]), (1.0, [1] * 12)):
            calls = []
            embed = lambda crops: calls.append([float(c.samples[0]) for c in crops]) or embed_each(crops)
            rows = list(embed_utterances(self.WAVES, embed, seconds, N_CROPS))
            assert [len(call) for call in calls] == sizes, seconds
            firsts = [list(dict.fromkeys(r[:, 0].tolist())) for r in rows]
            assert [first for call in calls for first in call] == [first for f in firsts for first in f]

    @pytest.mark.parametrize("crop_seconds", [0.1, 0.5])
    @pytest.mark.parametrize("variant", ["q-sap", "h-asp"])
    def test_rows_do_not_depend_on_other_utterances_or_workers(self, variant, crop_seconds, monkeypatch, request):
        embed = network_embedder(FoldedWeights(request.getfixturevalue(f"{variant[0]}_weights")))
        alone = [embed_on(monkeypatch, 1, wave, embed, crop_seconds=crop_seconds).tobytes() for wave in self.WAVES]
        for workers in (1, 2):
            monkeypatch.setattr(scoring, "crop_workers", lambda: workers)
            together = list(embed_utterances(self.WAVES, embed, crop_seconds, N_CROPS))
            backwards = list(embed_utterances(self.WAVES[::-1], embed, crop_seconds, N_CROPS))[::-1]
            assert [rows.tobytes() for rows in together] == alone, workers
            assert [rows.tobytes() for rows in backwards] == alone, workers

    # README's bound across OpenBLAS kernels, on an utterance's rows together.
    # Measured on these utterances (SkylakeX kernel, numpy 2.4): at most
    # 3.9e-7 on q-sap at 0.1 s; q-sap at 0.5 s and h-asp matched bit for bit.
    @pytest.mark.parametrize("crop_seconds", [0.1, 0.5])
    @pytest.mark.parametrize("variant", ["q-sap", "h-asp"])
    def test_rows_are_within_1e_5_of_a_forward_per_crop(self, variant, crop_seconds, request):
        folded = FoldedWeights(request.getfixturevalue(f"{variant[0]}_weights"))
        crop_samples = sample_count(crop_seconds)
        for wave in self.WAVES:
            rows = crop_embeddings(wave, network_embedder(folded), crop_seconds)
            offsets = plan_crops(len(wave), crop_samples, N_CROPS)
            one_by_one = [forward(extract_features(crop).values, folded) for crop in wave.windows(offsets, crop_samples)]
            assert relative_l2(rows, one_by_one) <= 1e-5


class TestOneFrontEndAndPoolingPerCall:
    """network_embedder runs the front end, the pooling and the embedding
    layer once per trunk call; each row has the bits of those steps run on
    its crop alone, over the call's trunk output."""

    @pytest.mark.parametrize("crop_seconds", [0.1, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("variant", ["q-sap", "h-asp"])
    def test_rows_equal_a_front_end_and_pooling_per_crop_bit_for_bit(self, variant, crop_seconds, monkeypatch, request):
        folded = FoldedWeights(request.getfixturevalue(f"{variant[0]}_weights"))
        crop_samples = sample_count(crop_seconds)
        wave = make_wave(seed=70, seconds=1.7)
        offsets = plan_crops(len(wave), crop_samples, N_CROPS)[: crops_per_call(crop_seconds)]
        crops = list(wave.windows(offsets, crop_samples))
        rows = network_embedder(folded)(crops)
        assert rows.shape == (len(crops), 512)
        features = np.stack([extract_features(crop).values for crop in crops])
        trunk = network.run_trunk(features.astype(np.float32), folded)
        for i, row in enumerate(rows):
            monkeypatch.setattr(network, "run_trunk", lambda *args: trunk[i : i + 1])
            assert row.tobytes() == forward(features[i], folded).tobytes()
