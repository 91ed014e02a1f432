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

All tensors are float32. Inference runs on FoldedWeights only: each batch
norm is folded once into the conv or embedding layer before it, and the
variant's TrunkConfig is inferred from the tensor shapes at the same time,
so the weights alone decide how they run. Every conv is an im2col + GEMM
over tiles whose column buffer fits a byte budget, with bias, residual and
ReLU applied per tile. Inference is pure: weights are immutable after load
and no state is shared between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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

    @classmethod
    def q_sap(cls) -> "TrunkConfig":
        return cls(
            variant="q-sap",
            channels=(16, 32, 64, 128),
            conv1_stride=(2, 2),
            pooling="sap",
            frame_agg="mean",
        )

    @classmethod
    def h_asp(cls) -> "TrunkConfig":
        return cls(
            variant="h-asp",
            channels=(32, 64, 128, 256),
            conv1_stride=(1, 1),
            pooling="asp",
            frame_agg="flatten",
        )

    @classmethod
    def from_variant(cls, variant: str) -> "TrunkConfig":
        factories = {"q-sap": cls.q_sap, "h-asp": cls.h_asp}
        if variant not in factories:
            raise ValueError(f"unknown variant {variant!r}, expected one of {sorted(factories)}")
        return factories[variant]()

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


def _zero_bordered(shape: tuple[int, int, int], pad: tuple[int, int], dtype=np.float32) -> np.ndarray:
    """A (t + 2*pad_t, f + 2*pad_f, c) buffer for a (t, f, c) tensor: the
    border is zero, the interior is left for the caller to fill."""
    (t, f, c), (pt, pf) = shape, pad
    buf = np.empty((t + 2 * pt, f + 2 * pf, c), dtype=dtype)
    buf[:pt] = buf[pt + t :] = 0.0
    buf[:, :pf] = buf[:, pf + f :] = 0.0
    return buf


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    pad: tuple[int, int] = (1, 1),
    bias: np.ndarray | None = None,
    residual: np.ndarray | None = None,
    relu: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """2-D convolution of a (time, freq, ch_in) tensor.

    kernel is (kh, kw, ch_in, ch_out); output spatial extents follow
    floor((in + 2*pad - k) / stride) + 1. A per-channel bias, a residual
    of the output's shape and a ReLU are applied, in that order, when
    given.

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
    pt, pf = pad
    dtype = np.result_type(x, kernel)
    if pt or pf:
        xp = _zero_bordered(x.shape, pad, dtype)
        xp[pt : pt + x.shape[0], pf : pf + x.shape[1]] = x
    else:
        xp = x
    if xp.shape[0] < kh or xp.shape[1] < kw:
        raise ValueError(f"input {x.shape} too small for kernel {kernel.shape} with pad {pad}")
    windows = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::st, ::sf].transpose(0, 1, 3, 4, 2)
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
        if bias is not None:
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


class NetworkWeights:
    """Named float32 tensors for one trunk variant.

    Names ending in running_mean / running_var are batch-norm buffers and
    do not count as trainable parameters.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = {name: np.asarray(t, dtype=np.float32) for name, t in tensors.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise KeyError(f"weights have no tensor named {name!r}") from None

    def __len__(self) -> int:
        return len(self.tensors)

    def parameter_count(self) -> int:
        """Total trainable scalar count (conv, BN gamma/beta, attention, linear)."""
        return sum(t.size for name, t in self.tensors.items() if "running_" not in name)

    def save(self, path: str | Path) -> None:
        containers.save_tensors(path, self.tensors)

    @classmethod
    def load(cls, path: str | Path) -> "NetworkWeights":
        return cls(containers.load_tensors(path))


def _bn(weights, prefix: str):
    return (
        weights[f"{prefix}.gamma"],
        weights[f"{prefix}.beta"],
        weights[f"{prefix}.running_mean"],
        weights[f"{prefix}.running_var"],
    )


_BLOCK_BN = {"conv1": "bn1", "conv2": "bn2", "shortcut": "shortcut_bn"}


def _bn_of_conv(conv: str) -> str:
    """Name of the batch norm that follows a conv: conv1.bn for the stem,
    <block>.bn1 / bn2 / shortcut_bn for a block's conv1 / conv2 / shortcut."""
    if conv == "conv1":
        return "conv1.bn"
    block, _, name = conv.rpartition(".")
    return f"{block}.{_BLOCK_BN[name]}"


class FoldedWeights:
    """Inference form of a weight set: each batch norm folded into the
    layer before it (Jacob et al. 2018, arXiv 1712.05877), computed in
    float64 and stored as float32. A conv's batch norm becomes the conv's
    kernel and a per-channel bias; the optional batch norm after the
    embedding layer, applied when the weight set has one, becomes
    embed.weight and embed.bias. Holds no batch-norm tensor, so the raw
    weight set can be released. The weights passed in are left unchanged.
    config is the TrunkConfig inferred from the tensor shapes as they are
    folded.
    """

    def __init__(self, weights: NetworkWeights):
        self._fold(weights, in_place=False)

    @classmethod
    def load(cls, path: str | Path) -> "FoldedWeights":
        """Load a weight file and fold each batch norm into the weight array
        it was read into, so the weight set is held once, not twice.
        Bit-identical to FoldedWeights(NetworkWeights.load(path))."""
        weights = NetworkWeights.load(path)
        folded = cls.__new__(cls)
        try:
            folded._fold(weights, in_place=True)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: {exc.args[0]}") from None
        return folded

    def _fold(self, weights: NetworkWeights, in_place: bool) -> None:
        for name, t in weights.tensors.items():
            if name.endswith(".running_var") and np.any(t < 0):
                raise ValueError(f"{name}: batch norm running variance must be non-negative")
        self.config = infer_config(weights)

        def scaled(t: np.ndarray, bn: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """t with each output channel (last axis) times bn's scale, and
            bn's float64 (scale, shift)."""
            scale, shift = _bn_affine(*(s.astype(np.float64) for s in _bn(weights, bn)))
            # A float64 product stored as float32, as (t * scale).astype(np.float32).
            out = t if in_place else np.empty_like(t)
            np.multiply(t, scale, out=out, casting="unsafe")
            return out, scale, shift

        self.convs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, kernel in weights.tensors.items():
            if name.endswith(".weight") and kernel.ndim == 4:
                conv = name.removesuffix(".weight")
                out, _, shift = scaled(kernel, _bn_of_conv(conv))
                self.convs[conv] = (out, shift.astype(np.float32))
        folded = {_bn_of_conv(conv) for conv in self.convs} | {"embed_bn"}
        self.tensors = {
            name: t
            for name, t in weights.tensors.items()
            if name.removesuffix(".weight") not in self.convs and name.rpartition(".")[0] not in folded
        }
        if any(name.startswith("embed_bn.") for name in weights.tensors):
            weight, scale, shift = scaled(weights["embed.weight"], "embed_bn")
            bias = weights["embed.bias"] * scale + shift
            self.tensors.update({"embed.weight": weight, "embed.bias": bias.astype(np.float32)})

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise KeyError(f"weights have no tensor named {name!r}") from None

    def conv(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(kernel, bias) of the named conv with its batch norm folded in."""
        try:
            return self.convs[name]
        except KeyError:
            raise KeyError(f"weights have no conv named {name!r}") from None


def residual_block(x: np.ndarray, weights: FoldedWeights, prefix: str, stride: int) -> np.ndarray:
    """Basic block: conv-BN-ReLU-conv-BN plus shortcut, final ReLU.

    The shortcut is a 1x1 conv + BN (present in the weight set) when the
    block changes stride or channel count, identity otherwise. Each BN is
    folded into its conv; the first conv writes into the interior of a
    zero-bordered buffer that the second conv reads unpadded.
    """
    kernel, bias = weights.conv(f"{prefix}.conv1")
    kh, kw, _, c_mid = kernel.shape
    t_mid = _conv_out(x.shape[0], kh, stride, 1)
    f_mid = _conv_out(x.shape[1], kw, stride, 1)
    mid = _zero_bordered((t_mid, f_mid, c_mid), (1, 1))
    conv2d(x, kernel, (stride, stride), (1, 1), bias=bias, relu=True, out=mid[1:-1, 1:-1])
    if f"{prefix}.shortcut" in weights.convs:
        kernel, bias = weights.conv(f"{prefix}.shortcut")
        shortcut = conv2d(x, kernel, (stride, stride), (0, 0), bias=bias)
    else:
        shortcut = x
    kernel, bias = weights.conv(f"{prefix}.conv2")
    return conv2d(mid, kernel, (1, 1), (0, 0), bias=bias, residual=shortcut, relu=True)


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


def init_weights(cfg: TrunkConfig, seed: int = 0) -> NetworkWeights:
    """Random untrained weights: He-uniform fan-in for conv/linear layers,
    identity batch-norm (gamma 1, beta 0, running mean 0, running var 1)."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}

    def he_uniform(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    def add_bn(prefix, channels):
        tensors[f"{prefix}.gamma"] = np.ones(channels, dtype=np.float32)
        tensors[f"{prefix}.beta"] = np.zeros(channels, dtype=np.float32)
        tensors[f"{prefix}.running_mean"] = np.zeros(channels, dtype=np.float32)
        tensors[f"{prefix}.running_var"] = np.ones(channels, dtype=np.float32)

    tensors["conv1.weight"] = he_uniform((3, 3, 1, cfg.channels[0]), 9)
    add_bn("conv1.bn", cfg.channels[0])

    c_in = cfg.channels[0]
    for layer_idx, (c_out, n_blocks) in enumerate(zip(cfg.channels, BLOCK_COUNTS), start=1):
        for block_idx in range(n_blocks):
            prefix = f"layer{layer_idx}.block{block_idx}"
            stride = 2 if (layer_idx > 1 and block_idx == 0) else 1
            block_in = c_in if block_idx == 0 else c_out
            tensors[f"{prefix}.conv1.weight"] = he_uniform((3, 3, block_in, c_out), 9 * block_in)
            add_bn(f"{prefix}.bn1", c_out)
            tensors[f"{prefix}.conv2.weight"] = he_uniform((3, 3, c_out, c_out), 9 * c_out)
            add_bn(f"{prefix}.bn2", c_out)
            if stride != 1 or block_in != c_out:
                tensors[f"{prefix}.shortcut.weight"] = he_uniform((1, 1, block_in, c_out), block_in)
                add_bn(f"{prefix}.shortcut_bn", c_out)
        c_in = c_out

    d = cfg.frame_dim
    tensors["pool.w"] = he_uniform((d, ATTN_DIM), d)
    tensors["pool.b"] = np.zeros(ATTN_DIM, dtype=np.float32)
    tensors["pool.u"] = he_uniform((ATTN_DIM,), ATTN_DIM)

    tensors["embed.weight"] = he_uniform((cfg.pooled_dim, EMBED_DIM), cfg.pooled_dim)
    tensors["embed.bias"] = np.zeros(EMBED_DIM, dtype=np.float32)

    return NetworkWeights(tensors)


def infer_config(weights: NetworkWeights) -> TrunkConfig:
    """Recover the trunk configuration from tensor shapes."""
    by_width = {16: TrunkConfig.q_sap, 32: TrunkConfig.h_asp}
    width = weights["conv1.weight"].shape[-1]
    if width not in by_width:
        raise ValueError(f"cannot infer variant from conv1 width {width}")
    return by_width[width]()


def forward(
    features: np.ndarray,
    weights: FoldedWeights,
    cfg: TrunkConfig | None = None,
    *,
    shape_log: list | None = None,
) -> np.ndarray:
    """Embed a normalized (L, N_MELS) feature matrix as a 512-d vector.

    The weights decide everything: the variant is weights.config, and every
    batch norm, an embedding batch norm included, is applied as folded into
    the layer before it. Raw NetworkWeights are rejected; fold them once
    with FoldedWeights(weights). shape_log, when given, collects
    (stage, shape) pairs for the intermediate activations.

    cfg exists only for the older call forward(features, raw, cfg) that
    perfbench's reference-trunk test still makes: raw NetworkWeights given
    with a cfg are folded on that call. A cfg other than the one the
    weights infer to raises ValueError.
    """
    if cfg is not None and isinstance(weights, NetworkWeights):
        weights = FoldedWeights(weights)
    if not isinstance(weights, FoldedWeights):
        raise TypeError(f"forward takes FoldedWeights, got {type(weights).__name__}")
    if cfg is not None and cfg != weights.config:
        raise ValueError(f"weights are {weights.config.variant}, not {cfg.variant}")
    cfg = weights.config
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[1] != N_MELS:
        raise ValueError(f"expected (L, {N_MELS}) features, got shape {features.shape}")

    def log(stage, shape):
        if shape_log is not None:
            shape_log.append((stage, tuple(shape)))

    x = features[:, :, None]
    kernel, bias = weights.conv("conv1")
    x = conv2d(x, kernel, cfg.conv1_stride, (1, 1), bias=bias, relu=True)
    log("conv1", x.shape)

    for layer_idx, n_blocks in enumerate(BLOCK_COUNTS, start=1):
        for block_idx in range(n_blocks):
            stride = 2 if (layer_idx > 1 and block_idx == 0) else 1
            x = residual_block(x, weights, f"layer{layer_idx}.block{block_idx}", stride)
        log(f"layer{layer_idx}", x.shape)

    if cfg.frame_agg == "flatten":
        frames = x.reshape(x.shape[0], -1)  # freq-major, then channel
    else:
        frames = x.mean(axis=1)
    log("frames", frames.shape)

    if cfg.pooling == "sap":
        pooled = sap_pool(frames, weights["pool.w"], weights["pool.b"], weights["pool.u"])
    else:
        pooled = asp_pool(frames, weights["pool.w"], weights["pool.b"], weights["pool.u"])
    log("pooled", pooled.shape)

    embedding = pooled @ weights["embed.weight"] + weights["embed.bias"]
    if not np.all(np.isfinite(embedding)):
        raise ValueError("non-finite embedding")
    log("embedding", embedding.shape)
    return embedding.astype(np.float32)
