"""Forward-only inference for the two ResNet-34 trunk variants.

Both variants stack basic residual blocks [3, 4, 6, 3] on a single-channel
time x mel input and emit a 512-d embedding:

  * q-sap: quarter-width channels (16, 32, 64, 128), first conv stride 2x2,
    frames reduced by a mean over the frequency axis, self-attentive
    pooling (weighted mean). ~1.4M trainable parameters.
  * h-asp: half-width channels (32, 64, 128, 256), first conv stride 1x1,
    frames flattened (freq-major, then channel), attentive statistics
    pooling (weighted mean concatenated with weighted std). ~8.0M
    trainable parameters.

VARIANTS holds the two TrunkConfigs, and a TrunkConfig describes its
trunk once: the block layout (blocks), each conv's kernel shape and batch
norm (convs) and the shape of every weight tensor (shapes), which
init_weights fills and FoldedWeights checks. All tensors are float32.
Inference runs on FoldedWeights only: each batch norm is folded once into
the conv or embedding layer before it, and the variant is inferred from
conv1's width at the same time, so the weights alone decide how they run.
Every conv is an unpadded im2col + GEMM over tiles whose column buffer
fits a byte budget, with bias, residual and ReLU applied per tile. Each
activation lives in a (t + 2, f + 2, c) buffer with a zero border, which
pads the 3x3 conv that reads it. Inference is pure: weights are immutable
after load and no state is shared between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import containers

BN_EPS = 1e-5
# Shared by both variants: residual blocks per stage, input mel bands,
# embedding and attention widths, and the ASP variance floor.
BLOCK_COUNTS = (3, 4, 6, 3)
N_MELS = 64
EMBED_DIM = 512
ATTN_DIM = 128
VAR_FLOOR = 1e-5


@dataclass(frozen=True)
class TrunkConfig:
    """What differs between the two variants."""

    variant: str
    channels: tuple[int, int, int, int]
    conv1_stride: tuple[int, int]
    pooling: str  # "sap" | "asp"
    frame_agg: str  # "mean" | "flatten"

    @property
    def final_freq(self) -> int:
        """Frequency extent after conv1 and the three stride-2 stages."""
        freq = _conv_out(N_MELS, 3, self.conv1_stride[1], 1)
        for _ in range(3):
            freq = _conv_out(freq, 3, 2, 1)
        return freq

    @property
    def frame_dim(self) -> int:
        if self.frame_agg == "flatten":
            return self.final_freq * self.channels[-1]
        return self.channels[-1]

    @property
    def pooled_dim(self) -> int:
        return 2 * self.frame_dim if self.pooling == "asp" else self.frame_dim

    def blocks(self) -> Iterator[tuple[str, int, int, int]]:
        """(prefix, stride, in channels, out channels) of each residual
        block, in the order they run: each stage after the first starts
        with a stride-2 block."""
        c_in = self.channels[0]
        for layer, (c_out, n_blocks) in enumerate(zip(self.channels, BLOCK_COUNTS), start=1):
            for block in range(n_blocks):
                yield f"layer{layer}.block{block}", 2 if layer > 1 and block == 0 else 1, c_in, c_out
                c_in = c_out

    def convs(self) -> dict[str, tuple[tuple[int, int, int, int], str]]:
        """Kernel shape and following batch norm of every conv, in the
        order they run. A block has a 1x1 shortcut conv when it changes
        stride or channel count."""
        convs = {"conv1": ((3, 3, 1, self.channels[0]), "conv1.bn")}
        for prefix, stride, c_in, c_out in self.blocks():
            convs[f"{prefix}.conv1"] = ((3, 3, c_in, c_out), f"{prefix}.bn1")
            convs[f"{prefix}.conv2"] = ((3, 3, c_out, c_out), f"{prefix}.bn2")
            if stride != 1 or c_in != c_out:
                convs[f"{prefix}.shortcut"] = ((1, 1, c_in, c_out), f"{prefix}.shortcut_bn")
        return convs

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every tensor of the variant's weights, in file order:
        each conv's kernel then its batch norm, the attention pooling and
        the embedding layer."""
        shapes: dict[str, tuple[int, ...]] = {}
        for conv, (kernel, bn) in self.convs().items():
            shapes[f"{conv}.weight"] = kernel
            shapes.update(dict.fromkeys(_bn_names(bn), kernel[-1:]))
        return shapes | {
            "pool.w": (self.frame_dim, ATTN_DIM),
            "pool.b": (ATTN_DIM,),
            "pool.u": (ATTN_DIM,),
            "embed.weight": (self.pooled_dim, EMBED_DIM),
            "embed.bias": (EMBED_DIM,),
        }


VARIANTS = {
    "q-sap": TrunkConfig("q-sap", (16, 32, 64, 128), (2, 2), pooling="sap", frame_agg="mean"),
    "h-asp": TrunkConfig("h-asp", (32, 64, 128, 256), (1, 1), pooling="asp", frame_agg="flatten"),
}


def _conv_out(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


# Bytes of one im2col + GEMM tile's column buffer. Each tile costs about
# five numpy calls, and each call releases and retakes the interpreter
# lock, so concurrent crops contend for it less with fewer, larger tiles; a
# budget in bytes rather than output positions makes a conv with few input
# channels, such as the stem, one tile, while the buffer still fits in a
# per-core cache and the full (t*f, k*k*c) im2col matrix is never built.
# With OpenBLAS 0.3.31 this budget gives the embeddings of 512-position tiles
# bit for bit.
TILE_BYTES = 1 << 20


def _zero_bordered(shape: tuple[int, int, int]) -> np.ndarray:
    """A (t + 2, f + 2, c) float32 buffer for a (t, f, c) tensor: the
    one-wide border is zero, the interior is left for the caller to fill."""
    t, f, c = shape
    buf = np.empty((t + 2, f + 2, c), dtype=np.float32)
    buf[0] = buf[-1] = 0.0
    buf[:, 0] = buf[:, -1] = 0.0
    return buf


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    stride: tuple[int, int],
    bias: np.ndarray,
    residual: np.ndarray | None = None,
    relu: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unpadded 2-D convolution of a (time, freq, ch_in) tensor.

    kernel is (kh, kw, ch_in, ch_out); output spatial extents follow
    floor((in - k) / stride) + 1, so a padded conv reads a zero-bordered
    input. A per-channel bias, then a residual of the output's shape when
    given, then a ReLU when asked for, are applied.

    The conv runs as im2col + GEMM over tiles of whole output rows whose
    column buffer takes at most TILE_BYTES (at least one row); each tile
    is finished while it is in cache and written to out, which may be a
    strided view such as the interior of a zero-bordered buffer.
    """
    if x.ndim != 3:
        raise ValueError(f"input must be (time, freq, channels), got shape {x.shape}")
    kh, kw, c_in, c_out = kernel.shape
    if x.shape[2] != c_in:
        raise ValueError(f"channel mismatch: input has {x.shape[2]}, kernel expects {c_in}")
    st, sf = stride
    dtype = np.result_type(x, kernel)
    windows = sliding_window_view(x, (kh, kw), axis=(0, 1))[::st, ::sf].transpose(0, 1, 3, 4, 2)
    t_out, f_out = windows.shape[:2]
    if out is None:
        out = np.empty((t_out, f_out, c_out), dtype=dtype)
    if residual is not None and residual.shape != out.shape:
        raise ValueError(f"residual shape mismatch: {out.shape} vs shortcut {residual.shape}")
    row_bytes = f_out * kh * kw * c_in * np.dtype(dtype).itemsize
    rows = min(t_out, max(1, TILE_BYTES // row_bytes))
    cols = np.empty((rows * f_out, kh * kw * c_in), dtype=dtype)
    acc = np.empty((rows * f_out, c_out), dtype=dtype)
    matrix = kernel.reshape(kh * kw * c_in, c_out)
    for t0 in range(0, t_out, rows):
        t1 = min(t0 + rows, t_out)
        m = (t1 - t0) * f_out
        np.copyto(cols[:m].reshape(t1 - t0, f_out, kh, kw, c_in), windows[t0:t1])
        tile = np.matmul(cols[:m], matrix, out=acc[:m]).reshape(t1 - t0, f_out, c_out)
        tile += bias
        if residual is not None:
            tile += residual[t0:t1]
        if relu:
            np.maximum(tile, 0.0, out=out[t0:t1])
        else:
            out[t0:t1] = tile
    return out


def _bn_affine(gamma, beta, mean, var):
    """Inference batch norm as a per-channel (scale, shift)."""
    scale = gamma / np.sqrt(var + BN_EPS)
    return scale, beta - mean * scale


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def parameter_count(tensors: dict[str, np.ndarray]) -> int:
    """Trainable scalars of a weight set: every tensor but the batch-norm
    buffers (names with running_mean / running_var)."""
    return sum(t.size for name, t in tensors.items() if "running_" not in name)


def _bn_names(prefix: str) -> tuple[str, str, str, str]:
    """Tensor names of a batch norm: (gamma, beta, running_mean, running_var)."""
    return tuple(f"{prefix}.{k}" for k in ("gamma", "beta", "running_mean", "running_var"))


class FoldedWeights:
    """Inference form of a weight set: each batch norm folded into the
    layer before it (Jacob et al. 2018, arXiv 1712.05877), computed in
    float64 and stored as float32. A conv's batch norm becomes the conv's
    kernel and a per-channel bias; the optional batch norm after the
    embedding layer, applied when the weight set has one, becomes
    embed.weight and embed.bias. Holds no batch-norm tensor, so the raw
    weight set can be released.

    The weights are checked whole as they are folded: the variant is
    inferred from conv1's width (config), and every tensor the variant
    needs (TrunkConfig.shapes) must be present with its shape. convs maps
    each conv to its folded (kernel, bias); tensors holds pool.* and
    embed.*. Other tensors are ignored.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        """Fold a float32 copy of tensors, which are left unchanged."""
        self._fold({name: np.array(t, dtype=np.float32) for name, t in tensors.items()})

    @classmethod
    def load(cls, path: str | Path) -> "FoldedWeights":
        """Load a weight file and fold it in place (fold_in_place).
        Bit-identical to FoldedWeights(containers.load_tensors(path))."""
        return cls.fold_in_place(containers.load_tensors(path), path)

    @classmethod
    def fold_in_place(cls, tensors: dict[str, np.ndarray], path: str | Path) -> "FoldedWeights":
        """Fold tensors as load_tensors read them from path, each batch norm
        into the weight array it was read into, so the weight set is held
        once, not twice. An error names path."""
        folded = cls.__new__(cls)
        try:
            folded._fold(tensors)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc.args[0]}") from None
        return folded

    def _fold(self, tensors: dict[str, np.ndarray]) -> None:
        """Check tensors, infer their variant and fold each batch norm into
        their arrays, in place."""

        def tensor(name: str) -> np.ndarray:
            if name not in tensors:
                raise ValueError(f"weights have no tensor named {name!r}")
            return tensors[name]

        for name, t in tensors.items():
            if name.endswith(".running_var") and np.any(t < 0):
                raise ValueError(f"{name}: batch norm running variance must be non-negative")
        stem = tensor("conv1.weight").shape
        self.config = next((cfg for cfg in VARIANTS.values() if stem[-1:] == (cfg.channels[0],)), None)
        if self.config is None:
            raise ValueError(f"cannot infer variant from conv1.weight of shape {stem}")
        embed_bn = any(name.startswith("embed_bn.") for name in tensors)
        shapes = self.config.shapes()
        if embed_bn:
            shapes.update(dict.fromkeys(_bn_names("embed_bn"), (EMBED_DIM,)))
        for name, shape in shapes.items():
            if tensor(name).shape != shape:
                raise ValueError(f"{name} has shape {tensors[name].shape}, {self.config.variant} needs {shape}")

        def fold(t: np.ndarray, bn: str) -> tuple[np.ndarray, np.ndarray]:
            """Multiply each output channel (last axis) of t by bn's scale;
            bn's float64 (scale, shift)."""
            scale, shift = _bn_affine(*(tensors[name].astype(np.float64) for name in _bn_names(bn)))
            # A float64 product stored as float32, as (t * scale).astype(np.float32).
            np.multiply(t, scale, out=t, casting="unsafe")
            return scale, shift

        self.convs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for conv, (_, bn) in self.config.convs().items():
            kernel = tensors[f"{conv}.weight"]
            _, shift = fold(kernel, bn)
            self.convs[conv] = (kernel, shift.astype(np.float32))
        self.tensors = {name: tensors[name] for name in ("pool.w", "pool.b", "pool.u", "embed.weight", "embed.bias")}
        if embed_bn:
            scale, shift = fold(self.tensors["embed.weight"], "embed_bn")
            self.tensors["embed.bias"] = (self.tensors["embed.bias"] * scale + shift).astype(np.float32)


def _conv_relu_bordered(x, conv, stride, residual) -> np.ndarray:
    """ReLU of a folded (kernel, bias) conv of the zero-bordered x, plus
    residual unless None, in the interior of a new zero-bordered buffer."""
    kernel, bias = conv
    kh, kw, _, c_out = kernel.shape
    t, f = _conv_out(x.shape[0], kh, stride[0], 0), _conv_out(x.shape[1], kw, stride[1], 0)
    out = _zero_bordered((t, f, c_out))
    conv2d(x, kernel, stride, bias, residual, relu=True, out=out[1:-1, 1:-1])
    return out


def residual_block(x: np.ndarray, weights: FoldedWeights, prefix: str, stride: int) -> np.ndarray:
    """Basic block: conv-BN-ReLU-conv-BN plus shortcut, final ReLU.

    Takes the block's input in a zero-bordered buffer and returns its
    output in a new one; each BN is folded into its conv. The shortcut,
    which reads the interior of x, is a 1x1 conv + BN (present in the
    weight set) when the block changes stride or channel count, identity
    otherwise.
    """
    mid = _conv_relu_bordered(x, weights.convs[f"{prefix}.conv1"], (stride, stride), None)
    shortcut = x[1:-1, 1:-1]
    if f"{prefix}.shortcut" in weights.convs:
        kernel, bias = weights.convs[f"{prefix}.shortcut"]
        shortcut = conv2d(shortcut, kernel, (stride, stride), bias)
    return _conv_relu_bordered(mid, weights.convs[f"{prefix}.conv2"], (1, 1), shortcut)


def frame_attention(
    frames: np.ndarray, w: np.ndarray, b: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Attention weights over frames: softmax_t of u . tanh(W h_t + b)."""
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError(f"frames must be a non-empty (L, D) matrix, got shape {frames.shape}")
    hidden = np.tanh(frames @ w + b)
    logits = hidden @ u
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite attention logits")
    return softmax(logits)


def sap_pool(frames: np.ndarray, w: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Self-attentive pooling: attention-weighted mean of frame features."""
    alpha = frame_attention(frames, w, b, u)
    return alpha @ frames


def asp_pool(frames: np.ndarray, w: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Attentive statistics pooling: weighted mean concat weighted std.

    The channel-wise variance sum(alpha * h^2) - mu^2 is floored at
    VAR_FLOOR before the square root, so identical frames pool to
    (v, sqrt(VAR_FLOOR) * ones).
    """
    if not np.all(np.isfinite(frames)):
        raise ValueError("non-finite frame features")
    alpha = frame_attention(frames, w, b, u)
    mu = alpha @ frames
    ex2 = alpha @ (frames * frames)
    sigma = np.sqrt(np.maximum(ex2 - mu * mu, VAR_FLOOR))
    return np.concatenate([mu, sigma])


_BN_INIT = {"gamma": np.ones, "beta": np.zeros, "running_mean": np.zeros, "running_var": np.ones}


def init_weights(cfg: TrunkConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Random untrained weights of cfg.shapes(): He-uniform over the fan-in
    for conv/linear layers and pool.u, zero biases, identity batch norm
    (gamma 1, beta 0, running mean 0, running var 1)."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in cfg.shapes().items():
        kind = name.rpartition(".")[2]
        if kind in _BN_INIT:
            tensors[name] = _BN_INIT[kind](shape, dtype=np.float32)
        elif kind in ("b", "bias"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:  # the fan-in is every axis but the output one; pool.u has only that
            bound = np.sqrt(6.0 / (math.prod(shape[:-1]) if len(shape) > 1 else shape[0]))
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return tensors


def forward(features: np.ndarray, weights: FoldedWeights) -> np.ndarray:
    """Embed a normalized (L, N_MELS) feature matrix as a 512-d vector.

    The weights decide everything: the variant is weights.config, and every
    batch norm, an embedding batch norm included, is applied as folded into
    the layer before it. A raw tensor dict is rejected; fold it once with
    FoldedWeights(tensors).
    """
    if not isinstance(weights, FoldedWeights):
        raise TypeError(f"forward takes FoldedWeights, got {type(weights).__name__}")
    cfg = weights.config
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[1] != N_MELS:
        raise ValueError(f"expected (L, {N_MELS}) features, got shape {features.shape}")

    x = _zero_bordered((*features.shape, 1))
    x[1:-1, 1:-1, 0] = features
    x = _conv_relu_bordered(x, weights.convs["conv1"], cfg.conv1_stride, None)
    for prefix, stride, _, _ in cfg.blocks():
        x = residual_block(x, weights, prefix, stride)

    x = x[1:-1, 1:-1]
    # flatten is freq-major, then channel
    frames = x.reshape(x.shape[0], -1) if cfg.frame_agg == "flatten" else x.mean(axis=1)
    pool = sap_pool if cfg.pooling == "sap" else asp_pool
    t = weights.tensors
    pooled = pool(frames, t["pool.w"], t["pool.b"], t["pool.u"])
    embedding = pooled @ t["embed.weight"] + t["embed.bias"]
    if not np.all(np.isfinite(embedding)):
        raise ValueError("non-finite embedding")
    return embedding.astype(np.float32)
