"""Independent oracles the tests compare the library against.

Deliberately naive implementations: central finite differences for
gradients, an exhaustive midpoint threshold sweep for EER/MinDCF, a
float64 trunk that applies every batch norm after its conv, a trial
score that averages the cosine of every crop pair one pair at a time,
the SNR of a mix and a mix at a target SNR, full direct-form
convolution, the HTK mel filter centres, the mean angular gap between
speaker classes, a synthetic corpus's trial lists drawn from listed pair
pools, and a parser of report text. Kept free of any imports
from the package under test.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def central_difference(f, x: np.ndarray, index: tuple, h: float = 1e-5) -> float:
    """d f / d x[index] by central differences, restoring x afterwards."""
    orig = x[index]
    x[index] = orig + h
    f_plus = f()
    x[index] = orig - h
    f_minus = f()
    x[index] = orig
    return (f_plus - f_minus) / (2.0 * h)


def assert_grad_matches(f, x: np.ndarray, analytic: np.ndarray, rng, n_points: int = 10,
                        rtol: float = 1e-4, h: float = 1e-5) -> None:
    """Spot-check >= n_points random coordinates of the analytic gradient."""
    analytic = np.asarray(analytic, dtype=np.float64)
    assert analytic.shape == x.shape
    flat_idx = rng.choice(x.size, size=min(n_points, x.size), replace=False)
    for fi in flat_idx:
        index = np.unravel_index(fi, x.shape)
        numeric = central_difference(f, x, index, h)
        got = analytic[index]
        denom = max(abs(numeric), abs(got), 1e-12)
        rel = abs(numeric - got) / denom
        assert rel < rtol, f"coord {index}: numeric {numeric} vs analytic {got} (rel {rel})"


def sweep_thresholds(target_scores, nontarget_scores) -> np.ndarray:
    """Midpoints between sorted distinct scores, plus -inf and +inf."""
    distinct = np.unique(np.concatenate([target_scores, nontarget_scores]))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate([[-np.inf], mids, [np.inf]])


def error_rates_at(tau, target_scores, nontarget_scores) -> tuple[float, float]:
    t = np.asarray(target_scores, dtype=np.float64)
    n = np.asarray(nontarget_scores, dtype=np.float64)
    p_miss = float(np.mean(t < tau))
    p_fa = float(np.mean(n >= tau))
    return p_miss, p_fa


def brute_force_eer(target_scores, nontarget_scores) -> float:
    """EER by exhaustive sweep, interpolated at the sign change."""
    prev = None
    for tau in sweep_thresholds(target_scores, nontarget_scores):
        p_miss, p_fa = error_rates_at(tau, target_scores, nontarget_scores)
        d = p_miss - p_fa
        if d >= 0.0:
            if d == 0.0 or prev is None:
                return p_miss
            pm1, pf1 = prev
            alpha = (pf1 - pm1) / ((p_miss - pm1) - (p_fa - pf1))
            return (1.0 - alpha) * pm1 + alpha * p_miss
        prev = (p_miss, p_fa)
    return 1.0


def brute_force_min_dcf(target_scores, nontarget_scores, c_miss=1.0, c_fa=1.0,
                        p_target=0.05, normalize=True) -> float:
    best = np.inf
    for tau in sweep_thresholds(target_scores, nontarget_scores):
        p_miss, p_fa = error_rates_at(tau, target_scores, nontarget_scores)
        dcf = c_miss * p_target * p_miss + c_fa * (1.0 - p_target) * p_fa
        if dcf < best:
            best = dcf
    if normalize:
        best /= min(c_miss * p_target, c_fa * (1.0 - p_target))
    return float(best)


def all_pairs_mean_cosine(a, b) -> float:
    """Mean cosine similarity over every (row of a, row of b) pair, in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for x in a:
        for y in b:
            total += float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
    return total / (len(a) * len(b))


def _conv_shifted(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Zero-padded strided convolution as a sum of kh*kw shifted matmuls."""
    kh, kw, _, c_out = kernel.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    t_out = (xp.shape[0] - kh) // stride + 1
    f_out = (xp.shape[1] - kw) // stride + 1
    out = np.zeros((t_out, f_out, c_out))
    for i in range(kh):
        for j in range(kw):
            t_end = i + stride * (t_out - 1) + 1
            f_end = j + stride * (f_out - 1) + 1
            out += xp[i:t_end:stride, j:f_end:stride] @ kernel[i, j]
    return out


def trunk_embedding(features, tensors: dict, eps: float = 1e-5, var_floor: float = 1e-5) -> np.ndarray:
    """Float64 ResNet-34 trunk: every conv followed by its own batch norm,
    nothing folded.

    Stem width 16 is q-sap (stride-2 stem, frequency-mean frames,
    attentive mean); 32 is h-asp (stride-1 stem, frequency-major flattened
    frames, attentive mean and standard deviation). An "embed_bn" batch
    norm after the embedding layer is applied when present.
    """
    w = {name: np.asarray(t, dtype=np.float64) for name, t in tensors.items()}

    def bn(x, prefix):
        std = np.sqrt(w[f"{prefix}.running_var"] + eps)
        return (x - w[f"{prefix}.running_mean"]) / std * w[f"{prefix}.gamma"] + w[f"{prefix}.beta"]

    q_sap = w["conv1.weight"].shape[-1] == 16
    x = np.asarray(features, dtype=np.float64)[:, :, None]
    x = np.maximum(bn(_conv_shifted(x, w["conv1.weight"], 2 if q_sap else 1, 1), "conv1.bn"), 0.0)
    for layer, n_blocks in enumerate((3, 4, 6, 3), start=1):
        for block in range(n_blocks):
            p = f"layer{layer}.block{block}"
            stride = 2 if layer > 1 and block == 0 else 1
            h = np.maximum(bn(_conv_shifted(x, w[f"{p}.conv1.weight"], stride, 1), f"{p}.bn1"), 0.0)
            h = bn(_conv_shifted(h, w[f"{p}.conv2.weight"], 1, 1), f"{p}.bn2")
            if f"{p}.shortcut.weight" in w:
                x = bn(_conv_shifted(x, w[f"{p}.shortcut.weight"], stride, 0), f"{p}.shortcut_bn")
            x = np.maximum(h + x, 0.0)
    frames = x.mean(axis=1) if q_sap else x.reshape(x.shape[0], -1)
    logits = np.tanh(frames @ w["pool.w"] + w["pool.b"]) @ w["pool.u"]
    alpha = np.exp(logits - logits.max())
    alpha /= alpha.sum()
    mean = alpha @ frames
    pooled = mean
    if not q_sap:
        pooled = np.concatenate([mean, np.sqrt(np.maximum(alpha @ frames**2 - mean**2, var_floor))])
    embedding = pooled @ w["embed.weight"] + w["embed.bias"]
    if "embed_bn.gamma" in w:
        embedding = bn(embedding, "embed_bn")
    return embedding


def relative_l2(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def measure_snr_db(clean, noise) -> float:
    """Signal-to-noise ratio 10 log10(P_clean / P_noise), P = mean square."""
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape:
        raise ValueError(f"length mismatch: {clean.size} vs {noise.size}")
    p_clean = np.mean(clean * clean)
    p_noise = np.mean(noise * noise)
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power; SNR undefined")
    if p_noise == 0.0:
        raise ValueError("noise has zero power; SNR unbounded")
    return float(10.0 * np.log10(p_clean / p_noise))


def mix_at_snr(clean, noise, target_snr_db: float) -> np.ndarray:
    """clean + g * noise, with g chosen so that clean vs g * noise is at
    the target SNR in dB."""
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape:
        raise ValueError(f"length mismatch: {clean.size} vs {noise.size}")
    p_clean = np.mean(clean * clean)
    p_noise = np.mean(noise * noise)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("mixing requires nonzero clean and noise power")
    return clean + np.sqrt(p_clean / (p_noise * 10.0 ** (target_snr_db / 10.0))) * noise


def direct_convolution(x, h, n: int) -> np.ndarray:
    """The first n samples of the full direct-form convolution of x and h."""
    return np.convolve(np.asarray(x, dtype=np.float64), np.asarray(h, dtype=np.float64))[:n]


def mel_center_frequencies(n_mels: int = 64, f_max: float = 8000.0) -> np.ndarray:
    """Peak frequency in Hz of each of n_mels triangular filters whose edges
    are n_mels + 2 points equally spaced on the HTK mel scale over 0..f_max."""
    mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + f_max / 700.0), n_mels + 2)
    return (700.0 * (10.0 ** (mels / 2595.0) - 1.0))[1:-1]


def mean_angular_gap(embeddings) -> float:
    """Mean inter-class angular gap in degrees over all utterances of a
    (K speakers, M utterances, D) array.

    Per utterance: angle to the nearest *other* speaker's centroid minus
    angle to its own speaker's centroid (centroid = mean of the speaker's
    unit-normalized embeddings). Larger means classes sit farther apart
    relative to their spread; this is the quantity a cosine margin
    directly enlarges.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    k = e.shape[0]
    unit = e / np.linalg.norm(e, axis=-1, keepdims=True)
    centroids = unit.mean(axis=1)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    cos = np.clip(np.einsum("kmd,jd->kmj", unit, centroids), -1.0, 1.0)
    angles = np.degrees(np.arccos(cos))  # (K, M, K): utterance -> centroid j
    own = angles[np.arange(k), :, np.arange(k)]
    others = angles.copy()
    others[np.arange(k), :, np.arange(k)] = np.inf
    return float((others.min(axis=2) - own).mean())


def corpus_pair_pools(n_speakers: int, n_utts: int) -> tuple[list, list]:
    """Every target and every nontarget pair of a K x M utterance grid, as
    (row, row) tuples in row-major order: targets by (speaker, i < j),
    nontargets by (speakers k1 < k2, utterance i, utterance j)."""
    same = [
        (k * n_utts + i, k * n_utts + j)
        for k in range(n_speakers)
        for i in range(n_utts)
        for j in range(i + 1, n_utts)
    ]
    cross = [
        (k1 * n_utts + i, k2 * n_utts + j)
        for k1 in range(n_speakers)
        for k2 in range(k1 + 1, n_speakers)
        for i in range(n_utts)
        for j in range(n_utts)
    ]
    return same, cross


def corpus_trial_lists(n_speakers: int, n_utts: int, dim: int, n_trials: int, seed: int) -> list:
    """(labels, enroll, test) of a synthetic corpus's train and held-out
    lists, drawn from the listed pools: one generator seeded with seed
    draws the (K, M, dim) embeddings, then 2 * (n_trials // 2) distinct
    picks from the target pool and as many from the nontarget pool. Each
    list takes half of each label's picks, targets first."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((n_speakers, n_utts, dim))
    half = n_trials // 2
    drawn = [[pool[i] for i in rng.choice(len(pool), 2 * half, replace=False)]
             for pool in corpus_pair_pools(n_speakers, n_utts)]
    lists = []
    for part in (slice(half), slice(half, None)):
        rows = np.array(drawn[0][part] + drawn[1][part], dtype=np.intp).reshape(-1, 2)
        labels = np.array([1] * half + [0] * half, dtype=np.int8)
        lists.append((labels, rows[:, 0], rows[:, 1]))
    return lists


def report_from_text(report_type, text: str):
    """The report_type dataclass (metrics.EvalReport) that report text
    describes: one key=value line per field, each read as its field's
    type (float or int). Blank lines are skipped."""
    values: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"malformed report line: {line!r}")
        values[key] = raw
    kwargs = {}
    for f in fields(report_type):
        if f.name not in values:
            raise ValueError(f"report missing field {f.name!r}")
        kwargs[f.name] = (float if f.type == "float" else int)(values[f.name])
    return report_type(**kwargs)
