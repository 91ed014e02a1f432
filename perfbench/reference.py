"""Independent references the benchmark checks svkit's outputs against.

Everything here is written from the file formats and the documented
maths, not from svkit's code: SVW1 and WAV readers, the ten-crop plan,
a float64 ResNet trunk built from shifted matmuls (svkit uses im2col),
the crop-averaged cosine score, and an exhaustive-sweep EER / MinDCF.
Only the log-mel front end is taken from svkit, so the trunk reference
checks the trunk, the crop plan and the pooling, not the front end.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
BN_EPS = 1e-5
VAR_FLOOR = 1e-5


def read_svw1(path: str | Path) -> dict[str, np.ndarray]:
    """Named float32 tensors from an SVW1 file (magic, u32 count, then
    per tensor u16 name length, name, u8 rank, u32 dims, float32 data)."""
    data = Path(path).read_bytes()
    if data[:4] != b"SVW1":
        raise ValueError(f"{path}: not an SVW1 file")
    (count,) = struct.unpack_from("<I", data, 4)
    offset = 8
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<B", data, offset)
        offset += 1
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        size = int(np.prod(dims, dtype=np.int64))
        tensors[name] = np.frombuffer(data, "<f4", size, offset).reshape(dims)
        offset += 4 * size
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return tensors


def read_wav(path: str | Path) -> np.ndarray:
    """Samples of a 16-bit mono 16 kHz WAV as float64 in [-1, 1)."""
    with wave.open(str(path), "rb") as f:
        if (f.getnchannels(), f.getsampwidth(), f.getframerate()) != (1, 2, SAMPLE_RATE):
            raise ValueError(f"{path}: not 16-bit mono {SAMPLE_RATE} Hz")
        raw = f.readframes(f.getnframes())
    return np.frombuffer(raw, "<i2").astype(np.float64) / 32768.0


def crop_offsets(n_samples: int, crop_samples: int, n_crops: int) -> list[int]:
    """Start offsets of n_crops windows spaced evenly over the slack."""
    slack = max(n_samples - crop_samples, 0)
    if n_crops == 1:
        return [0]
    return [int(np.rint(k * slack / (n_crops - 1))) for k in range(n_crops)]


def crop(samples: np.ndarray, crop_samples: int, offset: int) -> np.ndarray:
    """One crop; audio shorter than a crop is tiled to exactly one crop."""
    if samples.size < crop_samples:
        samples = np.tile(samples, -(-crop_samples // samples.size))[:crop_samples]
    return samples[offset : offset + crop_samples]


def _conv(x: np.ndarray, kernel: np.ndarray, stride: int, pad: int) -> np.ndarray:
    kh, kw, _, c_out = kernel.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    t_out = (xp.shape[0] - kh) // stride + 1
    f_out = (xp.shape[1] - kw) // stride + 1
    out = np.zeros((t_out, f_out, c_out))
    for i in range(kh):
        for j in range(kw):
            window = xp[i : i + stride * (t_out - 1) + 1 : stride, j : j + stride * (f_out - 1) + 1 : stride]
            out += window @ kernel[i, j]
    return out


def _bn(x: np.ndarray, w: dict, prefix: str) -> np.ndarray:
    scale = w[f"{prefix}.gamma"] / np.sqrt(w[f"{prefix}.running_var"] + BN_EPS)
    return (x - w[f"{prefix}.running_mean"]) * scale + w[f"{prefix}.beta"]


def trunk_embedding(features: np.ndarray, tensors: dict[str, np.ndarray]) -> np.ndarray:
    """512-d embedding of one normalized (frames, 64) feature matrix.

    The variant follows from the stem width: 16 channels is q-sap
    (stride-2 stem, frequency-mean frames, attentive mean), 32 is h-asp
    (stride-1 stem, frequency-major flattened frames, attentive mean and
    standard deviation).
    """
    w = {name: t.astype(np.float64) for name, t in tensors.items()}
    q_sap = w["conv1.weight"].shape[-1] == 16
    x = _conv(np.asarray(features, np.float64)[:, :, None], w["conv1.weight"], 2 if q_sap else 1, 1)
    x = np.maximum(_bn(x, w, "conv1.bn"), 0.0)
    for layer, n_blocks in enumerate((3, 4, 6, 3), start=1):
        for block in range(n_blocks):
            p = f"layer{layer}.block{block}"
            stride = 2 if layer > 1 and block == 0 else 1
            out = np.maximum(_bn(_conv(x, w[f"{p}.conv1.weight"], stride, 1), w, f"{p}.bn1"), 0.0)
            out = _bn(_conv(out, w[f"{p}.conv2.weight"], 1, 1), w, f"{p}.bn2")
            if f"{p}.shortcut.weight" in w:
                x = _bn(_conv(x, w[f"{p}.shortcut.weight"], stride, 0), w, f"{p}.shortcut_bn")
            x = np.maximum(out + x, 0.0)
    frames = x.mean(axis=1) if q_sap else x.reshape(x.shape[0], -1)
    logits = np.tanh(frames @ w["pool.w"] + w["pool.b"]) @ w["pool.u"]
    alpha = np.exp(logits - logits.max())
    alpha /= alpha.sum()
    mu = alpha @ frames
    if q_sap:
        pooled = mu
    else:
        sigma = np.sqrt(np.maximum(alpha @ (frames * frames) - mu * mu, VAR_FLOOR))
        pooled = np.concatenate([mu, sigma])
    embedding = pooled @ w["embed.weight"] + w["embed.bias"]
    if "embed_bn.gamma" in w:
        embedding = _bn(embedding, w, "embed_bn")
    return embedding


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, np.float64)
    want = np.asarray(want, np.float64)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def crop_averaged_score(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine over all crop pairs of two (n_crops, D) matrices."""
    ua = a / np.linalg.norm(a, axis=1, keepdims=True)
    ub = b / np.linalg.norm(b, axis=1, keepdims=True)
    return float(np.mean(ua.astype(np.float64) @ ub.astype(np.float64).T))


def _sweep(targets: np.ndarray, nontargets: np.ndarray):
    """(p_miss, p_fa) at -inf, every midpoint between distinct scores, +inf;
    a trial is accepted when its score is >= the threshold."""
    distinct = np.unique(np.concatenate([targets, nontargets]))
    taus = np.concatenate([[-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]])
    p_miss = (targets[None, :] < taus[:, None]).mean(axis=1)
    p_fa = (nontargets[None, :] >= taus[:, None]).mean(axis=1)
    return p_miss, p_fa


def eer(targets: np.ndarray, nontargets: np.ndarray) -> float:
    """Equal error rate, linearly interpolated where p_miss - p_fa turns
    non-negative."""
    p_miss, p_fa = _sweep(targets, nontargets)
    diff = p_miss - p_fa
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0 or i == 0:
        return float(p_miss[i])
    alpha = -diff[i - 1] / (diff[i] - diff[i - 1])
    return float((1.0 - alpha) * p_miss[i - 1] + alpha * p_miss[i])


def min_dcf(
    targets: np.ndarray, nontargets: np.ndarray, c_miss=1.0, c_fa=1.0, p_target=0.05
) -> tuple[float, float]:
    """(normalized, raw) minimum detection cost over the sweep."""
    p_miss, p_fa = _sweep(targets, nontargets)
    raw = float(np.min(c_miss * p_target * p_miss + c_fa * (1.0 - p_target) * p_fa))
    return raw / min(c_miss * p_target, c_fa * (1.0 - p_target)), raw
