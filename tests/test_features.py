import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_wave
from svkit.audio import Waveform
from svkit.features import (
    LOG_FLOOR,
    FeatureMap,
    FeatureParams,
    extract_features,
    instance_normalize,
    log_mel_spectrogram,
    mel_center_frequencies,
    mel_filterbank,
    preemphasize,
)


class TestPreemphasis:
    def test_constant_signal(self):
        out = preemphasize(Waveform(np.ones(3)), 0.97)
        assert_allclose(out.samples, [0.03, 0.03, 0.03], rtol=0, atol=1e-15)

    def test_impulse(self):
        out = preemphasize(Waveform(np.array([1.0, 0.0, 0.0])), 0.97)
        assert_allclose(out.samples, [0.03, -0.97, 0.0], rtol=0, atol=1e-15)

    def test_zero_coefficient_is_identity(self):
        w = make_wave(0, 0.1)
        assert_array_equal(preemphasize(w, 0.0).samples, w.samples)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_direct_formula(self, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, size=64)
        out = preemphasize(Waveform(x), 0.97).samples
        assert out[0] == pytest.approx(x[0] - 0.97 * x[0])
        assert_allclose(out[1:], x[1:] - 0.97 * x[:-1], rtol=0, atol=1e-15)


class TestMelFilterbank:
    def test_shape_and_support(self):
        fb = mel_filterbank(64, 512)
        assert fb.shape == (64, 257)
        sums = fb.sum(axis=1)
        assert np.all(sums > 0) and np.all(np.isfinite(sums))
        # compact support: each filter is a single contiguous bump
        for row in fb:
            nz = np.flatnonzero(row > 0)
            assert nz.size >= 1
            assert nz[-1] - nz[0] == nz.size - 1

    def test_adjacent_filters_overlap(self):
        fb = mel_filterbank(64, 512)
        for i in range(63):
            assert np.any((fb[i] > 0) & (fb[i + 1] > 0))

    def test_center_frequencies_follow_htk_mel_scale(self):
        # independent table: m = 2595 log10(1 + f/700), 66 points over 0..8000
        mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), 66)
        expected = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
        assert_allclose(mel_center_frequencies(64), expected[1:65], rtol=1e-12)


class TestLogMelSpectrogram:
    @pytest.mark.parametrize("n_samples", [16000, 32000, 64000])
    def test_frame_count(self, n_samples):
        w = make_wave(1, n_samples / 16000)
        fmap = log_mel_spectrogram(w)
        assert fmap.n_frames == 1 + n_samples // 160
        assert fmap.n_mels == 64

    def test_all_zero_input_hits_log_floor(self):
        fmap = log_mel_spectrogram(Waveform(np.zeros(16000)))
        assert_array_equal(fmap.values, np.full_like(fmap.values, np.log(1e-6)))

    def test_pure_tone_peaks_at_nearest_center(self):
        # recompute the center table here rather than trusting the library's
        mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), 66)
        centers = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)[1:65]
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        t = np.arange(32000) / 16000.0
        tone = Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        fmap = log_mel_spectrogram(preemphasize(tone, 0.97))
        profile = fmap.values.mean(axis=0)
        assert int(np.argmax(profile)) == expected_bin

    def test_shift_by_hops_shifts_frames(self):
        w = make_wave(2, 3.0)
        k = 5
        shifted = Waveform(w.samples[160 * k :])
        full = log_mel_spectrogram(w).values
        part = log_mel_spectrogram(shifted).values
        interior = slice(2, part.shape[0] - 3)
        assert_allclose(part[interior], full[k:][interior], atol=1e-6)

    def test_deterministic(self):
        w = make_wave(3, 1.0)
        a = log_mel_spectrogram(w).values
        b = log_mel_spectrogram(w).values
        assert_array_equal(a, b)

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            log_mel_spectrogram(Waveform(np.ones(100)))

    @pytest.mark.parametrize("n_frames", [63, 64, 65, 401])
    def test_blocked_fft_matches_one_call(self, n_frames):
        # Reference: the whole windowed-frame matrix in one rfft call.
        p = FeatureParams()
        w = make_wave(4, (n_frames - 1) * p.hop_length / 16000)
        window = np.zeros(p.fft_size)
        start = (p.fft_size - p.win_length) // 2
        window[start : start + p.win_length] = np.hamming(p.win_length)
        padded = np.pad(w.samples, p.fft_size // 2, mode="reflect")
        frames = sliding_window_view(padded, p.fft_size)[:: p.hop_length]
        spectrum = np.abs(np.fft.rfft(frames * window, n=p.fft_size, axis=1)) ** 2
        want = np.log(spectrum @ mel_filterbank(p.n_mels, p.fft_size).T + LOG_FLOOR)
        got = log_mel_spectrogram(w).values
        assert got.shape == (n_frames, p.n_mels)
        assert got.tobytes() == want.tobytes()


class TestInstanceNormalize:
    def test_per_bin_stats(self):
        rng = np.random.default_rng(0)
        fmap = FeatureMap(rng.standard_normal((201, 64)) * 3.0 + 1.5)
        out = instance_normalize(fmap)
        assert np.abs(out.values.mean(axis=0)).max() < 1e-6
        assert np.abs(out.values.var(axis=0) - 1.0).max() < 1e-3

    def test_constant_bin_maps_to_zeros(self):
        values = np.ones((50, 4))
        values[:, 2] = 7.5
        out = instance_normalize(FeatureMap(values))
        assert_array_equal(out.values[:, 2], np.zeros(50))

    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            instance_normalize(FeatureMap(np.ones((1, 4))))


class TestPipeline:
    def test_extract_is_normalized_log_mel_of_preemphasized(self):
        w = make_wave(4, 2.0)
        via_steps = instance_normalize(log_mel_spectrogram(preemphasize(w, 0.97)))
        assert_array_equal(extract_features(w).values, via_steps.values)

    def test_custom_params_respected(self):
        w = make_wave(5, 1.0)
        fmap = extract_features(w, FeatureParams(n_mels=40))
        assert fmap.n_mels == 40

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FeatureParams(preemphasis=1.0)
        with pytest.raises(ValueError):
            FeatureParams(fft_size=256)  # below the 400-sample window
        with pytest.raises(ValueError):
            FeatureParams(n_mels=0)
