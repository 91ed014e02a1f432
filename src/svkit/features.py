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

Each step takes a leading crop axis: batch_features runs the front end
once over B crops of one length, and extract_features is its one-crop
case. Every row has the bits of its crop alone: the FFT and elementwise
steps work frame by frame, and the mel projection is one GEMM per crop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import SAMPLE_RATE, Waveform, sample_count

# Frames per windowed-FFT block: as many whole crops of a batch as fit,
# else this many frames of one crop. Each frame's transform is independent,
# so blocks give the same bits as one call, while the windowed frames and
# their complex spectrum are held for one block at a time instead of the
# whole input (3.3 MB for a 4 s crop, 2.9 MB for seven 0.5 s crops): ten
# 0.1 s crops make two blocks of five crops, 55 frames each.
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
        try:
            lengths = self.win_length, self.hop_length
        except ValueError as exc:
            raise ValueError(f"win_ms and hop_ms must each be a count of samples: {exc}") from None
        if min(lengths) < 1:
            raise ValueError("win_ms and hop_ms must each round to at least one sample")
        if self.fft_size < self.win_length:
            raise ValueError("fft_size must be >= window length in samples")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")

    @property
    def win_length(self) -> int:
        return sample_count(self.win_ms, 1000.0)

    @property
    def hop_length(self) -> int:
        return sample_count(self.hop_ms, 1000.0)


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


def _preemphasis(x: np.ndarray, coeff: float) -> np.ndarray:
    """y[t] = x[t] - coeff * x[t-1] along the last axis, replicate-padded."""
    y = np.empty_like(x)
    y[..., 0] = (1.0 - coeff) * x[..., 0]
    y[..., 1:] = x[..., 1:] - coeff * x[..., :-1]
    return y


def preemphasize(w: Waveform, coeff: float) -> Waveform:
    """First-order high-pass: y[t] = x[t] - coeff * x[t-1], replicate-padded."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError("pre-emphasis coefficient must be in [0, 1)")
    return Waveform(_preemphasis(w.samples, coeff))


def mel_filterbank(n_mels: int, fft_size: int) -> np.ndarray:
    """Triangular mel filters evaluated at FFT bin frequencies.

    Returns an (n_mels, fft_size // 2 + 1) matrix. Filter k rises from edge
    frequency k to a peak of 1 at edge k+1 and falls back to zero at edge
    k+2, where the edges are n_mels + 2 points equally spaced on the mel
    scale over 0..MEL_F_MAX. Rows are not area-normalized.
    """
    top = 2595.0 * np.log10(1.0 + MEL_F_MAX / 700.0)  # MEL_F_MAX in mels; 0 Hz is 0 mels
    edges_hz = 700.0 * (10.0 ** (np.linspace(0.0, top, n_mels + 2) / 2595.0) - 1.0)
    bin_hz = np.arange(fft_size // 2 + 1) * (SAMPLE_RATE / fft_size)
    lo = edges_hz[:-2, None]
    mid = edges_hz[1:-1, None]
    hi = edges_hz[2:, None]
    rising = (bin_hz[None, :] - lo) / (mid - lo)
    falling = (hi - bin_hz[None, :]) / (hi - mid)
    return np.maximum(0.0, np.minimum(rising, falling))


@functools.lru_cache(maxsize=8)
def _constants(p: FeatureParams) -> tuple[np.ndarray, np.ndarray]:
    """The front end's constants for p, computed once per FeatureParams and
    read-only: the Hamming window zero-padded to fft_size and centred, and
    the mel filterbank."""
    window = np.zeros(p.fft_size)
    pad_left = (p.fft_size - p.win_length) // 2
    window[pad_left : pad_left + p.win_length] = np.hamming(p.win_length)
    fb = mel_filterbank(p.n_mels, p.fft_size)
    window.flags.writeable = fb.flags.writeable = False
    return window, fb


def _log_mel(x: np.ndarray, p: FeatureParams) -> np.ndarray:
    """(B, L, n_mels) log-mel energies of B crops of T samples, L = 1 + floor(T / hop)."""
    if x.shape[-1] < p.hop_length:
        raise ValueError(f"waveform too short: {x.shape[-1]} samples < one hop ({p.hop_length})")

    window, fb = _constants(p)
    padded = np.pad(x, [(0, 0), (p.fft_size // 2, p.fft_size // 2)], mode="reflect")
    frames = sliding_window_view(padded, p.fft_size, axis=-1)[:, :: p.hop_length]
    n_crops, n_frames = frames.shape[:2]
    spectrum = np.empty((n_crops, n_frames, p.fft_size // 2 + 1))
    rows = min(n_frames, STFT_BLOCK_FRAMES)
    crops = min(n_crops, max(1, STFT_BLOCK_FRAMES // n_frames))
    for b0 in range(0, n_crops, crops):
        for t0 in range(0, n_frames, rows):
            block = np.s_[b0 : b0 + crops, t0 : t0 + rows]
            spectrum[block] = np.abs(np.fft.rfft(frames[block] * window, n=p.fft_size, axis=-1)) ** 2

    # A stacked matmul: one GEMM per crop, each summing in the order of a
    # lone crop's, where one (crops * L, bins) GEMM would not.
    energies = spectrum @ fb.T
    energies += LOG_FLOOR
    return np.log(energies, out=energies)  # in place, so the front end peaks in an FFT block


def _normalized(values: np.ndarray) -> np.ndarray:
    """(values - mean) / sqrt(var + NORM_EPS) over the frame axis (-2)."""
    if values.shape[-2] < 2:
        raise ValueError("instance normalization needs at least 2 frames")
    mean = values.mean(axis=-2, keepdims=True)
    var = values.var(axis=-2, keepdims=True)
    return (values - mean) / np.sqrt(var + NORM_EPS)


def log_mel_spectrogram(w: Waveform, p: FeatureParams) -> FeatureMap:
    """Compute the L x n_mels log-mel energy matrix of a waveform.

    L = 1 + floor(T / hop). Requires at least one hop of input.
    """
    return FeatureMap(_log_mel(w.samples[None], p)[0])


def instance_normalize(f: FeatureMap) -> FeatureMap:
    """Standardize each mel bin over time: (x - mean) / sqrt(var + NORM_EPS).

    No learned affine. Requires at least two frames (variance over time is
    undefined otherwise). A constant bin maps to zeros via the NORM_EPS floor.
    """
    return FeatureMap(_normalized(f.values))


def batch_features(crops: Sequence[Waveform], p: FeatureParams = FeatureParams()) -> np.ndarray:
    """The full front end of B crops of one length as one (B, L, n_mels)
    array: each step runs once over the batch, and each row has the bits of
    extract_features of its crop alone. A fault raises as extract_features
    would raise it for the first crop at fault: its pre-emphasized samples,
    then (for every crop alike) its length, then its feature map."""
    samples = crops[0].samples[None] if len(crops) == 1 else np.stack([crop.samples for crop in crops])
    emphasized = _preemphasis(samples, p.preemphasis)
    del samples  # a batch's stacked copy is not held through the FFT
    Waveform(emphasized[0])  # the first crop's samples are checked before the length
    values = _normalized(_log_mel(emphasized, p))
    finite = np.isfinite(emphasized).all(axis=-1) & np.isfinite(values).all(axis=(-2, -1))
    if not finite.all():
        first = int(np.argmin(finite))
        Waveform(emphasized[first])
        FeatureMap(values[first])
    return values


def extract_features(w: Waveform, p: FeatureParams = FeatureParams()) -> FeatureMap:
    """Full front end: pre-emphasis, log-mel spectrogram, instance norm;
    batch_features of one crop."""
    return FeatureMap(batch_features([w], p)[0])
