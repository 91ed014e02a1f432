"""Audio augmentation: additive noise at controlled SNR, and reverberation.

Four mutually exclusive kinds per call:

  * speech: 3..7 recordings summed onto the signal, each at an independent
    SNR drawn uniformly from 13..20 dB;
  * music: a single recording at 5..15 dB SNR;
  * noise: a single recording at 0..15 dB SNR;
  * rir: convolution with an energy-normalized impulse response whose gain
    is drawn from a configurable dB range (default -6..0 dB).

Randomness contract: each call consumes one PRNG seeded from the spec, and
the draw sequence is fixed as (count, then per recording: catalog index,
crop offset, SNR). Identical seeds therefore give bit-identical output.
Additive noise is tiled when shorter than the signal and randomly cropped
when longer, so its duration always matches.

Reverberation splits the impulse response as low-latency convolution does
(Gardner, JAES 1995): a short head in direct form and the tail as one real
FFT convolution, so its cost grows with the sum of the two lengths, not
their product (see augment_rir for what stays exact).

Each kind draws from a NoiseCatalog of Waveforms or WAV paths (impulse
responses for rir). A drawn WAV's header is read when it is drawn, and of
an additive recording only the window it mixes is read, so memory does not
grow with the catalog's recordings; an impulse response is read whole.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .audio import WavFile, Waveform, open_wav, read_wav

# kind -> (count range inclusive, SNR range in dB)
ADDITIVE_DEFAULTS = {
    "speech": ((3, 7), (13.0, 20.0)),
    "music": ((1, 1), (5.0, 15.0)),
    "noise": ((1, 1), (0.0, 15.0)),
}
ADDITIVE_KINDS = tuple(ADDITIVE_DEFAULTS)
AUGMENT_KINDS = ADDITIVE_KINDS + ("rir",)
DEFAULT_RIR_GAIN_DB = (-6.0, 0.0)
# Impulse-response taps convolved in direct form; the rest go through one FFT.
DIRECT_TAPS = 16


@dataclass(frozen=True)
class AugmentSpec:
    kind: str
    seed: int
    count_range: tuple[int, int]
    snr_range_db: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ADDITIVE_KINDS:
            raise ValueError(f"additive kind must be one of {ADDITIVE_KINDS}, got {self.kind!r}")
        if self.count_range[0] < 1 or self.count_range[0] > self.count_range[1]:
            raise ValueError(f"bad count range {self.count_range}")
        if self.snr_range_db[0] > self.snr_range_db[1]:
            raise ValueError(f"bad SNR range {self.snr_range_db}")


@dataclass
class NoiseCatalog:
    """Recordings of one kind (additive noise or impulse responses);
    entries are Waveforms or WAV paths."""

    entries: list

    def __len__(self) -> int:
        return len(self.entries)

    def where(self, index: int) -> str:
        """A message prefix naming a WAV entry's file; empty for a Waveform."""
        entry = self.entries[index]
        return "" if isinstance(entry, Waveform) else f"{entry}: "

    def get(self, index: int) -> Waveform | WavFile:
        """The entry; a WAV path is opened (open_wav), its samples read
        only as windows of it are."""
        entry = self.entries[index]
        return entry if isinstance(entry, Waveform) else open_wav(entry)

    def read(self, index: int) -> Waveform:
        """The entry; a WAV path is read whole."""
        entry = self.entries[index]
        return entry if isinstance(entry, Waveform) else read_wav(entry)


def scan_catalogs(root: str | Path) -> dict:
    """Build catalogs from a directory tree, keyed by kind.

    The kind is the subdirectory name: speech/, music/, noise/ hold
    additive recordings, rir/ holds impulse responses. Only present
    subdirectories produce catalogs.
    """
    catalogs: dict = {}
    for kind in AUGMENT_KINDS:
        sub = Path(root) / kind
        paths = sorted(sub.glob("*.wav")) if sub.is_dir() else []
        if paths:
            catalogs[kind] = NoiseCatalog(paths)
    return catalogs


class SilentSignalError(ValueError):
    """The signal to augment has zero power, so no SNR can be set against it."""


def _power(x: np.ndarray) -> float:
    return float(np.mean(x * x))


def _db_ratio(db: float, per_decade: float) -> float:
    """10 ** (db / per_decade); ValueError unless that is finite and positive."""
    with contextlib.suppress(OverflowError):
        if 0.0 < (ratio := 10.0 ** (db / per_decade)) < math.inf:
            return ratio
    raise ValueError(f"10 ** ({db} / {per_decade}) is not a finite positive float")


snr_ratio = functools.partial(_db_ratio, per_decade=10.0)  # the power ratio of an SNR in dB
gain_ratio = functools.partial(_db_ratio, per_decade=20.0)  # the amplitude ratio of a gain in dB


def snr_gain(p_clean: float, p_noise: float, target_snr_db: float) -> float:
    """Scale for the noise so that clean vs scaled noise hits the target SNR;
    ValueError where no finite scale does, as when the noise power times the
    SNR's ratio underflows to 0."""
    with contextlib.suppress(ZeroDivisionError):
        if (gain := float(np.sqrt(p_clean / (p_noise * snr_ratio(target_snr_db))))) < math.inf:
            return gain
    raise ValueError(f"noise of power {p_noise} has no finite gain to {target_snr_db} dB SNR")


@dataclass(frozen=True)
class AdditiveDraw:
    catalog_index: int
    crop_offset: int
    snr_db: float
    recording: Waveform | WavFile = field(compare=False, repr=False)


def plan_additive(clean_length: int, cat: NoiseCatalog, spec: AugmentSpec) -> Iterator[AdditiveDraw]:
    """Yield the seeded draw sequence for one additive augmentation.

    Draw order per the randomness contract: count, then per recording
    (catalog index, crop offset, SNR). The crop offset is drawn over the
    slack left after tiling the recording to at least the clean length,
    which needs only its length. Each draw carries its recording as the
    catalog gives it (NoiseCatalog.get), so a WAV is read only as the
    caller reads a window of it.
    """
    if len(cat) == 0:
        raise ValueError(f"empty {spec.kind} catalog")
    rng = np.random.default_rng(spec.seed)
    count = int(rng.integers(spec.count_range[0], spec.count_range[1] + 1))
    for _ in range(count):
        index = int(rng.integers(0, len(cat)))
        recording = cat.get(index)
        noise_len = len(recording)
        tiled_len = noise_len * (-(-max(clean_length, noise_len) // noise_len))
        offset = int(rng.integers(0, tiled_len - clean_length + 1))
        # + 0.0 turns a top of -0.0, which numpy rejects over a bottom of 0.0, into 0.0; no other bits change.
        snr_db = float(rng.uniform(*np.add(spec.snr_range_db, 0.0)))
        yield AdditiveDraw(index, offset, snr_db, recording)


def augment_additive(clean: Waveform, cat: NoiseCatalog, spec: AugmentSpec) -> Waveform:
    """Sum seeded draws of catalog recordings onto the signal, each scaled
    against the clean signal's power to its own drawn SNR."""
    out = clean.samples.copy()
    p_clean = _power(clean.samples)
    if p_clean == 0.0:
        raise SilentSignalError("clean signal has zero power")
    for draw in plan_additive(len(clean), cat, spec):
        [noise] = draw.recording.windows([draw.crop_offset], len(clean))
        p_noise = _power(noise.samples)
        if p_noise == 0.0:
            raise ValueError(f"{cat.where(draw.catalog_index)}catalog entry {draw.catalog_index} has zero power")
        try:
            gain = snr_gain(p_clean, p_noise, draw.snr_db)
        except ValueError as exc:
            raise ValueError(f"{cat.where(draw.catalog_index)}catalog entry {draw.catalog_index}: {exc}") from None
        out += gain * noise.samples
    return Waveform(out)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, for b < 12 and c < 8. numpy's FFT runs such
    a length fast; an exact length with a large prime factor falls back to
    Bluestein's algorithm, several times slower."""
    # For each odd factor f, the smallest f * 2^k >= n.
    odd = (3**b * 5**c for b in range(12) for c in range(8))
    return min(f << (-(-n // f) - 1).bit_length() for f in odd)


def augment_rir(
    clean: Waveform,
    cat: NoiseCatalog,
    seed: int,
    gain_db_range: tuple[float, float],
) -> Waveform:
    """Reverberate by convolution with a randomly chosen impulse response.

    The impulse response is normalized to unit energy, scaled by a gain
    drawn uniformly (in dB) from gain_db_range, and convolved with the
    input to the input's length: its first DIRECT_TAPS taps in direct form,
    the rest by one real FFT. A response of at most DIRECT_TAPS taps gives
    exactly the direct-form result, a unit impulse at 0 dB the input
    exactly, and any other response stays within 1e-12 of direct form.
    """
    if len(cat) == 0:
        raise ValueError("empty RIR catalog")
    rng = np.random.default_rng(seed)
    index = int(rng.integers(0, len(cat)))
    gain_db = float(rng.uniform(*np.add(gain_db_range, 0.0)))  # + 0.0: as in plan_additive
    rir = cat.read(index).samples
    energy = float(np.sum(rir * rir))
    if energy == 0.0:
        raise ValueError(f"{cat.where(index)}RIR entry {index} has zero energy")
    n = len(clean)
    with np.errstate(over="ignore", invalid="ignore"):  # a gain too large for the float range is checked below
        scaled = rir * (gain_ratio(gain_db) / np.sqrt(energy))
        wet = np.convolve(clean.samples, scaled[:DIRECT_TAPS])[:n]
        tail = scaled[DIRECT_TAPS:n]  # taps from n on never reach the kept output
        if tail.size:
            dry = clean.samples[: n - DIRECT_TAPS]
            size = _fft_length(dry.size + tail.size - 1)
            spectrum = np.fft.rfft(dry, size) * np.fft.rfft(tail, size)
            wet[DIRECT_TAPS:] += np.fft.irfft(spectrum, size)[: dry.size]
    if not np.isfinite(wet).all():
        raise ValueError(f"{cat.where(index)}RIR entry {index} at {gain_db} dB gain gives non-finite samples")
    return Waveform(wet)

