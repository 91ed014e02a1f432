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

Each kind draws from a NoiseCatalog of Waveforms or WAV paths (impulse
responses for rir). A drawn recording is read once, when it is drawn, and
only the one being mixed is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .audio import Waveform, read_wav, tile_to_length

ADDITIVE_KINDS = ("speech", "music", "noise")
AUGMENT_KINDS = ADDITIVE_KINDS + ("rir",)

# kind -> (count range inclusive, SNR range in dB)
ADDITIVE_DEFAULTS = {
    "speech": ((3, 7), (13.0, 20.0)),
    "music": ((1, 1), (5.0, 15.0)),
    "noise": ((1, 1), (0.0, 15.0)),
}
DEFAULT_RIR_GAIN_DB = (-6.0, 0.0)


@dataclass(frozen=True)
class AugmentSpec:
    kind: str
    seed: int
    count_range: tuple[int, int] = (1, 1)
    snr_range_db: tuple[float, float] = (0.0, 15.0)

    def __post_init__(self):
        if self.kind not in ADDITIVE_KINDS:
            raise ValueError(f"additive kind must be one of {ADDITIVE_KINDS}, got {self.kind!r}")
        if self.count_range[0] < 1 or self.count_range[0] > self.count_range[1]:
            raise ValueError(f"bad count range {self.count_range}")
        if self.snr_range_db[0] > self.snr_range_db[1]:
            raise ValueError(f"bad SNR range {self.snr_range_db}")

    @classmethod
    def for_kind(cls, kind: str, seed: int) -> "AugmentSpec":
        counts, snrs = ADDITIVE_DEFAULTS[kind]
        return cls(kind=kind, seed=seed, count_range=counts, snr_range_db=snrs)


@dataclass
class NoiseCatalog:
    """Recordings of one kind (additive noise or impulse responses);
    entries are Waveforms or WAV paths."""

    entries: list

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, index: int) -> Waveform:
        entry = self.entries[index]
        if isinstance(entry, Waveform):
            return entry
        return read_wav(entry)


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


def _power(x: np.ndarray) -> float:
    return float(np.mean(x * x))


def measure_snr_db(clean: Waveform, noise: Waveform) -> float:
    """Signal-to-noise ratio 10 log10(P_clean / P_noise), P = mean square."""
    if len(clean) != len(noise):
        raise ValueError(f"length mismatch: {len(clean)} vs {len(noise)}")
    p_clean = _power(clean.samples)
    p_noise = _power(noise.samples)
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power; SNR undefined")
    if p_noise == 0.0:
        raise ValueError("noise has zero power; SNR unbounded")
    return 10.0 * np.log10(p_clean / p_noise)


def snr_gain(p_clean: float, p_noise: float, target_snr_db: float) -> float:
    """Scale for the noise so that clean vs scaled noise hits the target SNR."""
    return float(np.sqrt(p_clean / (p_noise * 10.0 ** (target_snr_db / 10.0))))


def mix_at_snr(clean: Waveform, noise: Waveform, target_snr_db: float) -> Waveform:
    """Add noise to clean, scaled to the exact target SNR in dB."""
    if len(clean) != len(noise):
        raise ValueError(f"length mismatch: {len(clean)} vs {len(noise)}")
    p_clean = _power(clean.samples)
    p_noise = _power(noise.samples)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("mixing requires nonzero clean and noise power")
    g = snr_gain(p_clean, p_noise, target_snr_db)
    return Waveform(clean.samples + g * noise.samples)


@dataclass(frozen=True)
class AdditiveDraw:
    catalog_index: int
    crop_offset: int
    snr_db: float
    recording: Waveform = field(compare=False, repr=False)


def plan_additive(clean_length: int, cat: NoiseCatalog, spec: AugmentSpec) -> Iterator[AdditiveDraw]:
    """Yield the seeded draw sequence for one additive augmentation.

    Draw order per the randomness contract: count, then per recording
    (catalog index, crop offset, SNR). The crop offset is drawn over the
    slack left after tiling the recording to at least the clean length.
    Each draw carries its recording, read once from the catalog, so a
    caller that mixes each draw before taking the next holds one at a time.
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
        snr_db = float(rng.uniform(*spec.snr_range_db))
        yield AdditiveDraw(index, offset, snr_db, recording)


def _matched_noise(noise: Waveform, clean_length: int, offset: int) -> Waveform:
    tiled = tile_to_length(noise, clean_length + offset)
    return Waveform(tiled.samples[offset : offset + clean_length])


def augment_additive(clean: Waveform, cat: NoiseCatalog, spec: AugmentSpec) -> Waveform:
    """Sum seeded draws of catalog recordings onto the signal, each scaled
    against the clean signal's power to its own drawn SNR."""
    out = clean.samples.copy()
    p_clean = _power(clean.samples)
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power")
    for draw in plan_additive(len(clean), cat, spec):
        noise = _matched_noise(draw.recording, len(clean), draw.crop_offset)
        p_noise = _power(noise.samples)
        if p_noise == 0.0:
            raise ValueError(f"catalog entry {draw.catalog_index} has zero power")
        out += snr_gain(p_clean, p_noise, draw.snr_db) * noise.samples
    return Waveform(out)


def augment_rir(
    clean: Waveform,
    cat: NoiseCatalog,
    seed: int,
    gain_db_range: tuple[float, float] = DEFAULT_RIR_GAIN_DB,
) -> Waveform:
    """Reverberate by convolution with a randomly chosen impulse response.

    The impulse response is normalized to unit energy, scaled by a gain
    drawn uniformly (in dB) from gain_db_range, convolved in full, and
    the result truncated to the input length. Direct-form convolution is
    used so a unit impulse at 0 dB reproduces the input exactly.
    """
    if len(cat) == 0:
        raise ValueError("empty RIR catalog")
    rng = np.random.default_rng(seed)
    index = int(rng.integers(0, len(cat)))
    gain_db = float(rng.uniform(*gain_db_range))
    rir = cat.get(index).samples
    energy = float(np.sum(rir * rir))
    if energy == 0.0:
        raise ValueError(f"RIR entry {index} has zero energy")
    scaled = rir * (10.0 ** (gain_db / 20.0) / np.sqrt(energy))
    wet = np.convolve(clean.samples, scaled, mode="full")[: len(clean)]
    return Waveform(wet)


def apply_augmentation(
    clean: Waveform,
    kind: str,
    catalogs: dict,
    seed: int,
    rir_gain_db_range: tuple[float, float] = DEFAULT_RIR_GAIN_DB,
) -> Waveform:
    """Apply exactly one augmentation kind (one-of semantics)."""
    if kind not in AUGMENT_KINDS:
        raise ValueError(f"kind must be one of {AUGMENT_KINDS}, got {kind!r}")
    if kind not in catalogs:
        raise ValueError(f"no catalog available for kind {kind!r}")
    if kind == "rir":
        return augment_rir(clean, catalogs["rir"], seed, rir_gain_db_range)
    return augment_additive(clean, catalogs[kind], AugmentSpec.for_kind(kind, seed))
