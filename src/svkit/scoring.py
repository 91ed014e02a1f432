"""Trial scoring: several fixed-length crops per utterance, all-pairs cosine.

Each utterance is sampled at ten 4-second crops spaced evenly from start
to end (utterances shorter than a crop are tiled first), every crop is
embedded, and a pair of utterances scores as the mean cosine similarity
over all crop pairs. The mean is accumulated in sorted order so the score
is bit-for-bit independent of which utterance comes first and of crop
order.

The embedder is injected as a callable so the scoring layer can run
against the real network or any substitute.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .audio import Waveform, tile_to_length
from .features import FeatureParams, extract_features
from .network import NetworkWeights, TrunkConfig, fold_weights, forward

Embedder = Callable[[Waveform], np.ndarray]

CROP_SECONDS = 4.0
N_CROPS = 10


def plan_crops(n_samples: int, crop_samples: int, n_crops: int = N_CROPS) -> np.ndarray:
    """Start offsets of n_crops windows of crop_samples, spaced evenly
    over [0, n_samples - crop_samples]. n_samples below crop_samples is
    treated as exactly crop_samples (the caller tiles)."""
    if crop_samples < 1 or n_crops < 1:
        raise ValueError("crop_samples and n_crops must be positive")
    slack = max(n_samples - crop_samples, 0)
    if n_crops == 1:
        return np.zeros(1, dtype=np.intp)
    k = np.arange(n_crops)
    return np.rint(k * slack / (n_crops - 1)).astype(np.intp)


def crop_embeddings(
    waveform: Waveform,
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> np.ndarray:
    """Embed each planned crop of the utterance; returns (n_crops, D).

    Crops that start at the same offset are embedded once and the row is
    repeated, so an utterance no longer than one crop costs one call.
    """
    crop_samples = int(round(crop_seconds * waveform.sample_rate))
    if len(waveform) < crop_samples:
        waveform = tile_to_length(waveform, crop_samples)
    offsets = plan_crops(len(waveform), crop_samples, n_crops).tolist()
    rows = {}
    for o in dict.fromkeys(offsets):
        row = embedder(Waveform(waveform.samples[o : o + crop_samples]))
        rows[o] = np.asarray(row, dtype=np.float64).ravel()
    out = np.stack([rows[o] for o in offsets])
    if not np.all(np.isfinite(out)):
        raise ValueError("embedder produced non-finite values")
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarity between rows of a and rows of b.

    Each entry reduces over its own contiguous product row, so its value
    depends only on the two vectors involved — never on where they sit in
    the matrix. That keeps scores bit-identical under crop reordering and
    argument swap, which a BLAS matmul does not guarantee.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.sqrt(np.sum(a * a, axis=1))
    nb = np.sqrt(np.sum(b * b, axis=1))
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("zero-norm embedding")
    unit_a = a / na[:, None]
    unit_b = b / nb[:, None]
    sims = np.sum(unit_a[:, None, :] * unit_b[None, :, :], axis=-1)
    return np.clip(sims, -1.0, 1.0)

def score_from_embeddings(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over all crop-pair cosines, summed in sorted order so the
    result is identical under argument swap and crop reordering."""
    sims = cosine_matrix(a, b)
    return float(np.sort(sims, axis=None).sum() / sims.size)


def score_pair(
    wav_a: Waveform,
    wav_b: Waveform,
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> float:
    ea = crop_embeddings(wav_a, embedder, crop_seconds, n_crops)
    eb = crop_embeddings(wav_b, embedder, crop_seconds, n_crops)
    return score_from_embeddings(ea, eb)


def network_embedder(
    weights: NetworkWeights,
    config: TrunkConfig,
    params: FeatureParams | None = None,
) -> Embedder:
    """Embedder that runs the feature front end and the trunk. The weights
    are folded once here and the embedder keeps only the folded copy."""
    params = params or FeatureParams()
    weights = fold_weights(weights)

    def embed(waveform: Waveform) -> np.ndarray:
        return forward(extract_features(waveform, params).values, weights, config)

    return embed
