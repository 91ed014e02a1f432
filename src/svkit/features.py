"""Log-mel filterbank front end.

Pipeline: pre-emphasis -> framed Hamming-window power spectrum -> 64
triangular mel filters -> natural log -> per-bin instance normalization.

Conventions (fixed, since several are underdetermined by common usage):
  * pre-emphasis uses a replicate-padded boundary, y[0] = (1 - c) * x[0];
  * STFT frames are centered with reflect padding of fft_size // 2;
  * the Hamming window is symmetric, 0.54 - 0.46 cos(2 pi n / (N - 1)),
    zero-padded to fft_size and centered within the frame;
  * the spectrum is power (|X|^2);
  * the mel scale is m = 2595 log10(1 + f / 700) over 0..MEL_F_MAX Hz
    (8000, the Nyquist frequency of 16 kHz audio);
  * the log is taken of mel energy + LOG_FLOOR (1e-6);
  * instance normalization divides by sqrt(var + NORM_EPS), NORM_EPS = 1e-5.

Frame count is L = 1 + floor(T / hop) for a T-sample input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import SAMPLE_RATE, Waveform

# Frames per windowed-FFT block. Each frame's transform is independent, so
# blocks give the same bits as one call, while the windowed frames and their
# complex spectrum are held for one block at a time instead of the whole
# input (3.3 MB for a 4 s crop).
STFT_BLOCK_FRAMES = 64
MEL_F_MAX = SAMPLE_RATE / 2
LOG_FLOOR = 1e-6
NORM_EPS = 1e-5


@dataclass(frozen=True)
class FeatureParams:
    preemphasis: float = 0.97
    win_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int = 512
    n_mels: int = 64

    def __post_init__(self):
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValueError("preemphasis must be in [0, 1)")
        if self.fft_size < self.win_length:
            raise ValueError("fft_size must be >= window length in samples")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")

    @property
    def win_length(self) -> int:
        return int(round(SAMPLE_RATE * self.win_ms / 1000.0))

    @property
    def hop_length(self) -> int:
        return int(round(SAMPLE_RATE * self.hop_ms / 1000.0))


@dataclass(frozen=True)
class FeatureMap:
    """L x n_mels matrix of log-mel values (time-major)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"feature map must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_mels(self) -> int:
        return self.values.shape[1]


def preemphasize(w: Waveform, coeff: float) -> Waveform:
    """First-order high-pass: y[t] = x[t] - coeff * x[t-1], replicate-padded."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError("pre-emphasis coefficient must be in [0, 1)")
    x = w.samples
    y = np.empty_like(x)
    y[0] = (1.0 - coeff) * x[0]
    y[1:] = x[1:] - coeff * x[:-1]
    return Waveform(y)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges_hz(n_mels: int) -> np.ndarray:
    """n_mels + 2 frequencies equally spaced on the mel scale over 0..MEL_F_MAX."""
    return mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(MEL_F_MAX), n_mels + 2))


def mel_filterbank(n_mels: int = 64, fft_size: int = 512) -> np.ndarray:
    """Triangular mel filters evaluated at FFT bin frequencies.

    Returns an (n_mels, fft_size // 2 + 1) matrix. Filter k rises from edge
    frequency k to a peak of 1 at edge k+1 and falls back to zero at edge
    k+2, where the edges are n_mels + 2 points equally spaced on the mel
    scale over 0..MEL_F_MAX. Rows are not area-normalized.
    """
    edges_hz = _mel_edges_hz(n_mels)
    bin_hz = np.arange(fft_size // 2 + 1) * (SAMPLE_RATE / fft_size)
    lo = edges_hz[:-2, None]
    mid = edges_hz[1:-1, None]
    hi = edges_hz[2:, None]
    rising = (bin_hz[None, :] - lo) / (mid - lo)
    falling = (hi - bin_hz[None, :]) / (hi - mid)
    return np.maximum(0.0, np.minimum(rising, falling))


def mel_center_frequencies(n_mels: int = 64) -> np.ndarray:
    """Peak frequency in Hz of each triangular mel filter."""
    return _mel_edges_hz(n_mels)[1:-1]


def log_mel_spectrogram(w: Waveform, p: FeatureParams = FeatureParams()) -> FeatureMap:
    """Compute the L x n_mels log-mel energy matrix of a waveform.

    L = 1 + floor(T / hop). Requires at least one hop of input.
    """
    x = w.samples
    if x.size < p.hop_length:
        raise ValueError(f"waveform too short: {x.size} samples < one hop ({p.hop_length})")

    window = np.zeros(p.fft_size)
    pad_left = (p.fft_size - p.win_length) // 2
    window[pad_left : pad_left + p.win_length] = np.hamming(p.win_length)

    padded = np.pad(x, p.fft_size // 2, mode="reflect")
    frames = sliding_window_view(padded, p.fft_size)[:: p.hop_length]
    spectrum = np.empty((len(frames), p.fft_size // 2 + 1))
    for i in range(0, len(frames), STFT_BLOCK_FRAMES):
        block = frames[i : i + STFT_BLOCK_FRAMES] * window
        spectrum[i : i + STFT_BLOCK_FRAMES] = np.abs(np.fft.rfft(block, n=p.fft_size, axis=1)) ** 2

    fb = mel_filterbank(p.n_mels, p.fft_size)
    energies = spectrum @ fb.T
    return FeatureMap(np.log(energies + LOG_FLOOR))


def instance_normalize(f: FeatureMap) -> FeatureMap:
    """Standardize each mel bin over time: (x - mean) / sqrt(var + NORM_EPS).

    No learned affine. Requires at least two frames (variance over time is
    undefined otherwise). A constant bin maps to zeros via the NORM_EPS floor.
    """
    if f.n_frames < 2:
        raise ValueError("instance normalization needs at least 2 frames")
    mean = f.values.mean(axis=0)
    var = f.values.var(axis=0)
    return FeatureMap((f.values - mean) / np.sqrt(var + NORM_EPS))


def extract_features(w: Waveform, p: FeatureParams = FeatureParams()) -> FeatureMap:
    """Full front end: pre-emphasis, log-mel spectrogram, instance norm."""
    emphasized = preemphasize(w, p.preemphasis)
    return instance_normalize(log_mel_spectrogram(emphasized, p))
