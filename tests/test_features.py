import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_wave
from oracles import mel_center_frequencies
from svkit import features
from svkit.audio import Waveform
from svkit.features import (
    LOG_FLOOR,
    FeatureMap,
    FeatureParams,
    batch_features,
    extract_features,
    instance_normalize,
    log_mel_spectrogram,
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

    @pytest.mark.parametrize("coeff", [-0.1, 1.0, 1.5, float("nan")])
    def test_coefficient_outside_unit_interval_rejected(self, coeff):
        with pytest.raises(ValueError, match=r"in \[0, 1\)"):
            preemphasize(Waveform(np.ones(3)), coeff)

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
        centers = mel_center_frequencies(64)
        assert_allclose(centers, expected[1:65], rtol=1e-12)
        # each library filter peaks at one of the two FFT bins around its centre
        bin_hz = 16000 / 512
        peaks_hz = np.argmax(mel_filterbank(64, 512), axis=1) * bin_hz
        assert np.all(np.abs(peaks_hz - centers) < bin_hz)


class TestLogMelSpectrogram:
    @pytest.mark.parametrize("n_samples", [16000, 32000, 64000])
    def test_frame_count(self, n_samples):
        w = make_wave(1, n_samples / 16000)
        fmap = log_mel_spectrogram(w, FeatureParams())
        assert fmap.values.shape[0] == 1 + n_samples // 160
        assert fmap.values.shape[1] == 64

    def test_all_zero_input_hits_log_floor(self):
        fmap = log_mel_spectrogram(Waveform(np.zeros(16000)), FeatureParams())
        assert_array_equal(fmap.values, np.full_like(fmap.values, np.log(1e-6)))

    def test_pure_tone_peaks_at_nearest_center(self):
        # recompute the center table here rather than trusting the library's
        mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), 66)
        centers = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)[1:65]
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        t = np.arange(32000) / 16000.0
        tone = Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        fmap = log_mel_spectrogram(preemphasize(tone, 0.97), FeatureParams())
        profile = fmap.values.mean(axis=0)
        assert int(np.argmax(profile)) == expected_bin

    def test_shift_by_hops_shifts_frames(self):
        w = make_wave(2, 3.0)
        k = 5
        shifted = Waveform(w.samples[160 * k :])
        full = log_mel_spectrogram(w, FeatureParams()).values
        part = log_mel_spectrogram(shifted, FeatureParams()).values
        interior = slice(2, part.shape[0] - 3)
        assert_allclose(part[interior], full[k:][interior], atol=1e-6)

    def test_deterministic(self):
        w = make_wave(3, 1.0)
        a = log_mel_spectrogram(w, FeatureParams()).values
        b = log_mel_spectrogram(w, FeatureParams()).values
        assert_array_equal(a, b)

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            log_mel_spectrogram(Waveform(np.ones(100)), FeatureParams())

    def test_window_and_filterbank_are_built_once_per_params(self, monkeypatch):
        calls = []
        monkeypatch.setattr(features, "mel_filterbank", lambda *args: calls.append(args) or mel_filterbank(*args))
        p = FeatureParams(n_mels=23, fft_size=1024)  # used by no other test
        w = make_wave(5, 0.5)
        first = log_mel_spectrogram(w, p).values
        assert log_mel_spectrogram(w, p).values.tobytes() == first.tobytes()
        assert calls == [(23, 1024)]
        fb = mel_filterbank(23, 1024)  # still a new, writable array
        fb[:] = 0.0
        assert log_mel_spectrogram(w, p).values.tobytes() == first.tobytes()

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
        got = log_mel_spectrogram(w, FeatureParams()).values
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

    @pytest.mark.parametrize("values,match", [
        (np.ones(4), "must be 2-D"),
        (np.ones((2, 3, 4)), "must be 2-D"),
        (np.array([[0.0, np.nan]]), "non-finite"),
        (np.array([[np.inf, 0.0]]), "non-finite"),
    ], ids=["1-D", "3-D", "nan", "inf"])
    def test_feature_map_is_a_finite_matrix(self, values, match):
        with pytest.raises(ValueError, match=match):
            FeatureMap(values)

    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            instance_normalize(FeatureMap(np.ones((1, 4))))


def faulty(kind: str, seed: int, n: int) -> Waveform:
    """A finite crop whose pre-emphasized samples ("samples") or power
    spectrum ("spectrum") overflow to inf, or a good crop ("none")."""
    if kind == "samples":
        return Waveform(1e308 * (-1.0) ** np.arange(n))
    return Waveform(make_wave(seed, n / 16000).samples * (1e200 if kind == "spectrum" else 1.0))


class TestBatchFeatures:
    """batch_features runs each front-end step once over a batch of crops,
    each row with the bits of the one-crop steps."""

    @pytest.mark.parametrize("frames", [63, 64, 65, 401])
    @pytest.mark.parametrize("n_crops", [1, 4, 7, 15, 36])
    def test_rows_equal_each_crop_alone_bit_for_bit(self, n_crops, frames):
        p = FeatureParams()
        n = (frames - 1) * p.hop_length + (7 * n_crops) % p.hop_length  # L = 1 + n // hop
        crops = [make_wave(seed=100 + i, seconds=n / 16000) for i in range(n_crops)]
        got = batch_features(crops)
        assert got.shape == (n_crops, frames, p.n_mels)
        for row, crop in zip(got, crops):
            one = instance_normalize(log_mel_spectrogram(preemphasize(crop, p.preemphasis), p)).values
            assert row.tobytes() == one.tobytes()
            assert row.tobytes() == extract_features(crop).values.tobytes()

    # A crop's faults are found as the one-crop steps find them: its
    # pre-emphasized samples, then its length (the same for every crop of a
    # batch), then its feature map; the first crop at fault raises.
    @pytest.mark.parametrize("kinds,seconds,message", [
        (["none", "none", "samples", "none"], 0.1, "waveform contains non-finite samples"),
        (["none", "none", "spectrum", "none"], 0.1, "feature map contains non-finite values"),
        (["none", "spectrum", "samples"], 0.1, "feature map contains non-finite values"),
        (["none", "samples", "spectrum"], 0.1, "waveform contains non-finite samples"),
        (["none", "none", "none"], 0.005, "waveform too short: 80 samples < one hop (160)"),
        (["none", "samples", "none"], 0.005, "waveform too short: 80 samples < one hop (160)"),
        (["samples", "none", "none"], 0.005, "waveform contains non-finite samples"),
    ])
    def test_a_crop_at_fault_raises_the_message_of_the_first_one_alone(self, kinds, seconds, message):
        crops = [faulty(kind, seed, round(seconds * 16000)) for seed, kind in enumerate(kinds)]
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                batch_features(crops)
            first = 0 if seconds < 0.01 else next(i for i, kind in enumerate(kinds) if kind != "none")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                extract_features(crops[first])


class TestPipeline:
    def test_extract_is_normalized_log_mel_of_preemphasized(self):
        w = make_wave(4, 2.0)
        via_steps = instance_normalize(log_mel_spectrogram(preemphasize(w, 0.97), FeatureParams()))
        assert_array_equal(extract_features(w).values, via_steps.values)

    def test_custom_params_respected(self):
        w = make_wave(5, 1.0)
        fmap = extract_features(w, FeatureParams(n_mels=40))
        assert fmap.values.shape[1] == 40

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FeatureParams(preemphasis=1.0)
        with pytest.raises(ValueError):
            FeatureParams(fft_size=256)  # below the 400-sample window
        with pytest.raises(ValueError):
            FeatureParams(n_mels=0)

    @pytest.mark.parametrize(
        "field,value", [("win_ms", 0.0), ("win_ms", 0.03), ("hop_ms", 0.0), ("hop_ms", -10.0), ("hop_ms", float("nan"))]
    )
    def test_window_and_hop_need_at_least_one_sample(self, field, value):
        # 0.03 ms is 0.48 samples at 16 kHz, which rounds to none.
        with pytest.raises(ValueError, match="win_ms and hop_ms"):
            FeatureParams(**{field: value})

    def test_one_sample_window_and_hop_are_allowed(self):
        p = FeatureParams(win_ms=0.0625, hop_ms=0.0625)  # 1 sample at 16 kHz
        assert (p.win_length, p.hop_length) == (1, 1)
