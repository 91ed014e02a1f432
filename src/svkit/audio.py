"""Waveform container, WAV ingestion, and temporal cropping.

All audio in the toolkit is mono float at SAMPLE_RATE (16 kHz), nominally
in [-1, 1]. A Waveform carries no rate of its own: every reader uses the
constant. Resampling and multi-channel audio are out of scope; files that
are not 16-bit PCM mono 16 kHz are rejected at load time.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000


@dataclass(frozen=True)
class Waveform:
    """Mono PCM samples at SAMPLE_RATE.

    Invariants enforced on construction: 1-D, at least one sample, all
    samples finite.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if samples.size < 1:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


def read_wav(path: str | Path) -> Waveform:
    """Load a 16-bit PCM mono 16 kHz WAV file; malformed files raise ValueError."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            if f.getframerate() != SAMPLE_RATE:
                raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {f.getframerate()} Hz")
            declared = f.getnframes()
            raw = f.readframes(declared)
    # wave raises a bare RuntimeError for a chunk size past the end of the file.
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise ValueError(f"{path}: malformed WAV file: {str(exc) or 'truncated file'}") from exc
    if len(raw) != 2 * declared:
        raise ValueError(f"{path}: truncated WAV file: {len(raw) // 2} of {declared} frames")
    if not raw:
        raise ValueError(f"{path}: WAV file has no samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples)


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write a waveform as 16-bit PCM mono WAV, clipping to the int16 range.

    Uses the same 1/32768 quantization step as read_wav, so values already
    on the int16 grid survive a write/read cycle bit-exactly.
    """
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())


def tile_to_length(w: Waveform, n_samples: int) -> Waveform:
    """Repeat the waveform end-to-end to exactly n_samples.

    Inputs already at least n_samples long pass through unchanged.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if len(w) >= n_samples:
        return w
    reps = -(-n_samples // len(w))  # ceil division
    return Waveform(np.tile(w.samples, reps)[:n_samples])


def crop_segment(
    w: Waveform,
    seconds: float,
    offset: int | None = None,
    seed: int | None = None,
) -> Waveform:
    """Extract a fixed-length segment, tiling the input first if too short.

    Exactly one of `offset` (fixed start sample) or `seed` (seeded uniform
    random start) selects the crop position.

    Args:
        w: input waveform.
        seconds: segment length in seconds; must be positive.
        offset: fixed start offset in samples.
        seed: seed for a random start draw.

    Returns:
        Waveform of exactly round(seconds * 16000) samples.
    """
    if seconds <= 0:
        raise ValueError("crop length must be positive")
    if (offset is None) == (seed is None):
        raise ValueError("provide exactly one of offset or seed")
    n = int(round(seconds * SAMPLE_RATE))
    if offset is not None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        tiled = tile_to_length(w, offset + n)
        start = offset
    else:
        tiled = tile_to_length(w, n)
        rng = np.random.default_rng(seed)
        start = int(rng.integers(0, len(tiled) - n + 1))
    return Waveform(tiled.samples[start : start + n])
