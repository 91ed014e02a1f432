"""Waveform container, WAV ingestion, and temporal cropping.

All audio in the toolkit is mono float at SAMPLE_RATE (16 kHz), nominally
in [-1, 1]. A Waveform carries no rate of its own: every reader uses the
constant. Resampling and multi-channel audio are out of scope; files that
are not 16-bit PCM mono 16 kHz are rejected when their header is read.

A WAV is read in two steps. open_wav checks its header, reading no
samples, and gives a WavFile: the path and frame count. WavFile.windows
then reads only the frames each crop needs, decoded as int16 / 32768.
read_wav reads a whole file through one open, and crop_segment takes one
window of a WavFile or a Waveform, both cut by one rule (_window).
sample_count alone turns a duration into a number of samples.
"""

from __future__ import annotations

import contextlib
import math
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

SAMPLE_RATE = 16000


def sample_count(duration: float, per_second: float = 1.0) -> int:
    """round(SAMPLE_RATE * duration / per_second): the samples in a duration
    given in 1/per_second seconds (per_second 1000 for milliseconds). A
    count that is not finite or does not fit a numpy intp raises ValueError."""
    count = SAMPLE_RATE * duration / per_second
    if math.isfinite(count) and abs(n := round(count)) <= np.iinfo(np.intp).max:
        return n
    raise ValueError(f"{duration} / {per_second} s is {count} samples at {SAMPLE_RATE} Hz, not an intp")


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

    def windows(self, offsets: Iterable[int], n: int) -> Iterator[Waveform]:
        """Samples [offset, offset + n) for each offset of the waveform
        repeated end to end (_window), a view of it within one repeat."""
        read = lambda start, count: self.samples[start : start + count]
        return (Waveform(_window(read, len(self), offset, n)) for offset in offsets)


def _window(read: Callable[[int, int], np.ndarray], length: int, offset: int, n: int) -> np.ndarray:
    """Samples [offset, offset + n) of a signal of `length` samples repeated
    end to end, from read(start, count) of its samples: one read within one
    repeat, a read to the end and one from the start where the window wraps,
    and the whole signal read and tiled only where it is shorter than n."""
    start = offset % length
    if start + n <= length:
        return read(start, n)
    if n <= length:
        return np.concatenate([read(start, length - start), read(0, start + n - length)])
    return np.tile(read(0, length), -(-(start + n) // length))[start : start + n]


@contextlib.contextmanager
def _checked(path: str | Path) -> Iterator[tuple[Callable[[int, int], np.ndarray], int]]:
    """read(start, count), decoding frames [start, start + count) of the open
    file, and its frame count, once its header has passed every check. Any
    fault of the file, or a read past its end, raises ValueError naming it."""
    try:
        with open(path, "rb") as raw, wave.open(raw) as f:
            if f.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
            if f.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
            if f.getframerate() != SAMPLE_RATE:
                raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {f.getframerate()} Hz")
            declared = f.getnframes()
            if not declared:
                raise ValueError(f"{path}: WAV file has no samples")
            # The last declared frame can be read exactly when a read of the
            # whole file gets every frame.
            f.setpos(declared - 1)
            if len(f.readframes(1)) != 2:
                raise ValueError(f"{path}: truncated WAV file: fewer than the {declared} frames its header declares")

            def read(start: int, count: int) -> np.ndarray:
                f.setpos(start)
                frames = f.readframes(count)
                if len(frames) != 2 * count:
                    got = len(frames) // 2
                    raise ValueError(f"{path}: truncated WAV file: read {got} of {count} frames at {start}")
                return np.frombuffer(frames, dtype="<i2") / 32768.0

            yield read, declared
    # wave raises a bare RuntimeError for a chunk size past the end of the file.
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise ValueError(f"{path}: malformed WAV file: {str(exc) or 'truncated file'}") from exc


@dataclass(frozen=True)
class WavFile:
    """A WAV file whose header passed every check (open_wav): its path and
    frame count, and no samples."""

    path: str | Path
    n_frames: int

    def __len__(self) -> int:
        return self.n_frames

    def windows(self, offsets: Iterable[int], n: int) -> Iterator[Waveform]:
        """Frames [offset, offset + n) for each offset, as Waveform.windows
        cuts them, each read when pulled, through one open file. A window no
        longer in the file (changed after open_wav) raises ValueError naming it."""
        with _checked(self.path) as (read, _):
            for offset in offsets:
                yield Waveform(_window(read, self.n_frames, offset, n))


def open_wav(path: str | Path) -> WavFile:
    """Check a 16-bit PCM mono 16 kHz WAV file's header, reading no
    samples; a malformed file raises ValueError naming it."""
    with _checked(path) as (_, n_frames):
        return WavFile(path, n_frames)


def read_wav(path: str | Path) -> Waveform:
    """Load a 16-bit PCM mono 16 kHz WAV file; malformed files raise ValueError."""
    with _checked(path) as (read, n_frames):
        return Waveform(read(0, n_frames))


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


def crop_segment(
    w: Waveform | WavFile,
    seconds: float,
    offset: int | None = None,
    seed: int | None = None,
) -> Waveform:
    """Extract a fixed-length segment, tiling the input first if too short.

    Exactly one of `offset` (fixed start sample) or `seed` (seeded uniform
    random start) selects the crop position.

    Args:
        w: input waveform, or a WAV file, of which only the segment is read.
        seconds: segment length in seconds; must be positive.
        offset: fixed start offset in samples.
        seed: seed for a random start draw.

    Returns:
        Waveform of exactly sample_count(seconds) samples.
    """
    if seconds <= 0:
        raise ValueError("crop length must be positive")
    if (offset is None) == (seed is None):
        raise ValueError("provide exactly one of offset or seed")
    n = sample_count(seconds)
    if offset is None:
        # a start in the input tiled to at least n samples
        offset = int(np.random.default_rng(seed).integers(0, max(len(w), n) - n + 1))
    elif offset < 0:
        raise ValueError("offset must be non-negative")
    [segment] = w.windows([offset], n)
    return segment
