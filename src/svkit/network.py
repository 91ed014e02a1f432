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
fits a byte budget, with bias, residual and ReLU applied per tile. One
call runs a batch of crops of one length: each activation lives in a
(crops, t + 2, f + 2, c) buffer, each crop with a zero border, which pads
the 3x3 conv that reads it. forward runs a TrunkPlan, built once per
(variant, crops, input length): every conv in run order, each buffer a
view of one arena that each call allocates. Inference is pure: weights are
immutable after load, and calls share only plans, which hold no array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

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
    pooling: str  # "sap" averages frames over frequency; "asp" flattens them

    @property
    def final_freq(self) -> int:
        """Frequency extent after conv1 and the three stride-2 stages."""
        freq = _conv_out(N_MELS, 3, self.conv1_stride[1], 1)
        for _ in range(3):
            freq = _conv_out(freq, 3, 2, 1)
        return freq

    @property
    def frame_dim(self) -> int:
        if self.pooling == "asp":
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
    "q-sap": TrunkConfig("q-sap", (16, 32, 64, 128), (2, 2), pooling="sap"),
    "h-asp": TrunkConfig("h-asp", (32, 64, 128, 256), (1, 1), pooling="asp"),
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
# bit for bit. A tile of a batch holds as many whole crops as fit, so short
# crops share each tile's numpy calls.
TILE_BYTES = 1 << 20


def _conv_tiles(windows, matrix, bias, out, residual, relu, cols, acc) -> None:
    """The tile loop of every conv: for each tile of whole crops, or of
    whole output rows of one crop, copy its windows into cols, multiply by
    the (kh*kw*c_in, c_out) matrix into acc, add bias, then residual's rows
    when given, and write the result, through a ReLU when asked for, to
    out's rows.

    windows is the (crops, t_out, f_out, kh, kw, c_in) window view of the
    input, cols a C-contiguous (tile crops, rows, f_out, kh, kw, c_in)
    buffer and acc a (tile crops, rows, f_out, c_out) one: they set the
    tile size, and rows is t_out when a tile holds more than one crop. out
    and residual may be strided views, and the same one: a tile reads
    residual's rows before it writes out's.
    """
    crops, rows = cols.shape[:2]
    cols2 = cols.reshape(-1, matrix.shape[0])
    acc2 = acc.reshape(-1, matrix.shape[1])
    n_crops, t_out, f_out = out.shape[:3]
    for b0 in range(0, n_crops, crops):
        b = min(crops, n_crops - b0)
        for t0 in range(0, t_out, rows):
            r = min(rows, t_out - t0)
            tile = np.s_[b0 : b0 + b, t0 : t0 + r]
            np.copyto(cols[:b, :r], windows[tile])
            np.matmul(cols2[: b * r * f_out], matrix, out=acc2[: b * r * f_out])
            result = acc[:b, :r]
            result += bias
            if residual is not None:
                result += residual[tile]
            if relu:
                np.maximum(result, 0.0, out=out[tile])
            else:
                out[tile] = result


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, in one new array."""
    out = x - np.max(x, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


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
    needs (TrunkConfig.shapes) must be present, of its shape and finite, a
    running variance non-negative. convs maps each conv to its folded (kernel,
    bias); tensors holds pool.* and embed.*. Other tensors are not checked.
    """

    def __init__(self, tensors: dict[str, np.ndarray]):
        """Fold a float32 copy of tensors, which are left unchanged."""
        self._fold({name: np.array(t, dtype=np.float32) for name, t in tensors.items()})

    @classmethod
    def load(cls, path: str | Path) -> "FoldedWeights":
        """Load a weight file and fold each batch norm into the array it was
        read into, so the weight set is held once, with the bits of
        FoldedWeights(containers.load_tensors(path)). A fold error names path."""
        tensors = containers.load_tensors(path)
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
            if not np.isfinite(tensors[name]).all():
                raise ValueError(f"{name}: weights must be finite")
            if name.endswith(".running_var") and np.any(tensors[name] < 0):
                raise ValueError(f"{name}: batch norm running variance must be non-negative")

        def fold(t: np.ndarray, bn: str) -> tuple[np.ndarray, np.ndarray]:
            """Scale t's output channels (last axis) as bn does; return bn's float64 (scale, shift)."""
            gamma, beta, mean, var = (tensors[name].astype(np.float64) for name in _bn_names(bn))
            scale = gamma / np.sqrt(var + BN_EPS)
            # A float64 product stored as float32, as (t * scale).astype(np.float32).
            np.multiply(t, scale, out=t, casting="unsafe")
            return scale, beta - mean * scale

        self.convs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for conv, (_, bn) in self.config.convs().items():
            kernel = tensors[f"{conv}.weight"]
            _, shift = fold(kernel, bn)
            self.convs[conv] = (kernel, shift.astype(np.float32))
        self.tensors = {name: tensors[name] for name in ("pool.w", "pool.b", "pool.u", "embed.weight", "embed.bias")}
        if embed_bn:
            scale, shift = fold(self.tensors["embed.weight"], "embed_bn")
            self.tensors["embed.bias"] = (self.tensors["embed.bias"] * scale + shift).astype(np.float32)


def frame_attention(
    frames: np.ndarray, w: np.ndarray, b: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Attention weights over the frames of (..., L, D) matrices:
    softmax_t of u . tanh(W h_t + b), as (..., L)."""
    if frames.ndim < 2 or frames.shape[-2] < 1:
        raise ValueError(f"frames must be non-empty (..., L, D) matrices, got shape {frames.shape}")
    hidden = np.tanh(frames @ w + b)
    logits = hidden @ u
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite attention logits")
    return softmax(logits)


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m for each vector of v's leading axes (and matrix of m's), as a
    stacked (1, K) @ (K, N) matmul: one vector-matrix product each, with the
    bits of a lone vector's, where one (vectors, K) @ (K, N) GEMM would sum
    in another order."""
    return (v[..., None, :] @ m)[..., 0, :]


def sap_pool(frames: np.ndarray, w: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Self-attentive pooling: attention-weighted mean of frame features,
    of each (L, D) matrix of the leading axes."""
    return _vecmat(frame_attention(frames, w, b, u), frames)


def asp_pool(frames: np.ndarray, w: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Attentive statistics pooling: weighted mean concat weighted std, of
    each (L, D) matrix of the leading axes.

    The channel-wise variance sum(alpha * h^2) - mu^2 is floored at
    VAR_FLOOR before the square root, so identical frames pool to
    (v, sqrt(VAR_FLOOR) * ones).
    """
    if not np.all(np.isfinite(frames)):
        raise ValueError("non-finite frame features")
    alpha = frame_attention(frames, w, b, u)
    mu = _vecmat(alpha, frames)
    ex2 = _vecmat(alpha, frames * frames)
    sigma = np.sqrt(np.maximum(ex2 - mu * mu, VAR_FLOOR))
    return np.concatenate([mu, sigma], axis=-1)


_BN_INIT = {"gamma": np.ones, "beta": np.zeros, "running_mean": np.zeros, "running_var": np.ones}


def init_weights(cfg: TrunkConfig, seed: int) -> dict[str, np.ndarray]:
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


class _View(NamedTuple):
    """A float32 view of one buffer of a trunk call's arena: the buffer,
    the byte offset from its start, shape and byte strides (None for C
    order)."""

    buf: int
    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...] | None = None


class _Step(NamedTuple):
    """One conv of a trunk plan, each of its views naming its buffer."""

    conv: str  # key of FoldedWeights.convs
    borders: tuple[_View, ...]  # the zero-bordered buffers it starts: their borders are zeroed first
    windows: _View  # (crops, t_out, f_out, kh, kw, c_in) windows of its zero-bordered input
    out: _View  # (crops, t_out, f_out, c_out) interior of its zero-bordered output
    residual: bool  # add what out holds before the conv (the block's shortcut)
    relu: bool
    cols: _View  # (tile crops, rows, f_out, kh, kw, c_in) im2col tile
    acc: _View  # (tile crops, rows, f_out, c_out) GEMM tile


class _Stage(NamedTuple):
    steps: int  # steps of the plan that end the stage
    output: _View  # its (crops, t + 2, f + 2, c) zero-bordered output


class TrunkPlan(NamedTuple):
    """Every conv of a trunk for a batch of crops of one length, in run
    order, over one arena of `floats` float32 values that holds each buffer
    at its byte offset: the zero-bordered buffer whose interior takes the
    features, each step, and where each stage (conv1, layer1-4) leaves its
    output."""

    floats: int
    offsets: tuple[int, ...]  # of each buffer, in bytes from the arena's start
    features: _View  # (crops, L + 2, N_MELS + 2, 1)
    steps: tuple[_Step, ...]
    stages: Mapping[str, _Stage]


_ALIGN = 64  # bytes; every buffer of an arena starts on a cache line


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def _place(sizes: list[int], steps: list[_Step]) -> tuple[list[int], int]:
    """Byte offsets in one arena for buffers of sizes bytes, each live from
    the first to the last of steps that views it: each buffer takes the
    lowest offset where it overlaps no placed buffer live at one of its
    steps (greedy by size, Pisarchyk & Lee 2020, arXiv 2001.03288). Buffers
    live at several steps go first, then the one-step tiles fill the gaps,
    each group largest first; for a 4 s crop that comes within 2% of the
    most bytes live at one step on both variants. Returns the offsets and
    the arena's size."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, step in enumerate(steps):
        for v in (*step.borders, step.windows, step.out, step.cols, step.acc):
            first.setdefault(v.buf, i)
            last[v.buf] = i
    offsets = [0] * len(sizes)
    placed: list[int] = []
    for i in sorted(range(len(sizes)), key=lambda i: (first[i] == last[i], -sizes[i])):
        offset = 0
        for j in sorted(placed, key=offsets.__getitem__):
            if first[j] <= last[i] and first[i] <= last[j] and offsets[j] < offset + sizes[i]:
                offset = max(offset, offsets[j] + sizes[j])
        offsets[i] = offset
        placed.append(i)
    return offsets, max(o + size for o, size in zip(offsets, sizes))


@functools.lru_cache(maxsize=8)
def trunk_plan(cfg: TrunkConfig, n_crops: int, n_frames: int) -> TrunkPlan:
    """The trunk of cfg for n_crops crops of n_frames of features as a list
    of convs, built once per (cfg, n_crops, n_frames) and holding no array.

    The stem conv is followed by basic blocks: conv-BN-ReLU-conv-BN plus a
    shortcut, then ReLU, each BN folded into its conv. The shortcut is a
    1x1 conv + BN when the block changes stride or channel count, the
    identity otherwise. Each activation is a (crops, t + 2, f + 2, c)
    buffer, each crop with a zero border. A block's conv1 writes a
    mid-point buffer that every block of its stage reuses. Its conv2 adds
    what its output buffer holds: the block's input, which it overwrites,
    for an identity shortcut, or what the 1x1 shortcut wrote into a new
    buffer first. Each step names the buffers it views, each conv's im2col
    and GEMM tile among them; the buffers are placed in one arena so that
    those live at one step never overlap, and a buffer's border is zeroed
    at the step that starts it. A tile holds as many whole crops as keep
    its columns within TILE_BYTES when one crop's do, else as many output
    rows of one crop as do, at least one.
    """
    itemsize = np.dtype(np.float32).itemsize
    kernels = {name: shape for name, (shape, _) in cfg.convs().items()}
    sizes: list[int] = []  # bytes of each buffer, in the order they are made
    steps: list[_Step] = []

    def buffer(nbytes: int) -> int:
        sizes.append(_aligned(nbytes))
        return len(sizes) - 1

    def activation(t: int, f: int, c: int) -> _View:
        strides = ((t + 2) * (f + 2) * c * itemsize, (f + 2) * c * itemsize, c * itemsize, itemsize)
        return _View(buffer(n_crops * strides[0]), 0, (n_crops, t + 2, f + 2, c), strides)

    def conv(name, src, stride, dst=None, residual=False, relu=True, borders=()):
        """Plan conv name of the activation src into dst, or into a new
        activation when dst is None or of another shape; return dst."""
        kh, kw, c_in, c_out = kernels[name]
        (_, t, f, _), (st, sf) = src.shape, stride
        t_out, f_out = _conv_out(t - 2, kh, st, kh // 2), _conv_out(f - 2, kw, sf, kw // 2)
        if dst is None or dst.shape != (n_crops, t_out + 2, f_out + 2, c_out):
            dst = activation(t_out, f_out, c_out)
            borders += (dst,)
        row_bytes = f_out * kh * kw * c_in * itemsize
        rows = min(t_out, max(1, TILE_BYTES // row_bytes))
        crops = min(n_crops, max(1, TILE_BYTES // (t_out * row_bytes)))
        cols = (crops, rows, f_out, kh, kw, c_in)
        cols_bytes = _aligned(math.prod(cols) * itemsize)
        tile = buffer(cols_bytes + crops * rows * f_out * c_out * itemsize)
        (crop, row, col, _), (_, out_row, out_col, _) = src.strides, dst.strides
        steps.append(
            _Step(
                conv=name,
                borders=borders,
                # a k x k conv reads its input padded by k // 2
                windows=_View(
                    src.buf,
                    (1 - kh // 2) * row + (1 - kw // 2) * col,
                    (n_crops, t_out, f_out, kh, kw, c_in),
                    (crop, st * row, sf * col, row, col, itemsize),
                ),
                out=_View(dst.buf, out_row + out_col, (n_crops, t_out, f_out, c_out), dst.strides),
                residual=residual,
                relu=relu,
                cols=_View(tile, 0, cols),
                acc=_View(tile, cols_bytes, (crops, rows, f_out, c_out)),
            )
        )
        return dst

    stem = activation(n_frames, N_MELS, 1)
    x = conv("conv1", stem, cfg.conv1_stride, borders=(stem,))
    stages = {"conv1": _Stage(len(steps), x)}
    mid = None
    for prefix, stride, _, _ in cfg.blocks():
        mid = conv(f"{prefix}.conv1", x, (stride, stride), dst=mid)
        if f"{prefix}.shortcut" in kernels:
            x = conv(f"{prefix}.shortcut", x, (stride, stride), relu=False)
        conv(f"{prefix}.conv2", mid, (1, 1), dst=x, residual=True)
        stages[prefix.partition(".")[0]] = _Stage(len(steps), x)

    offsets, size = _place(sizes, steps)
    return TrunkPlan(
        floats=size // itemsize,
        offsets=tuple(offsets),
        features=stem,
        steps=tuple(steps),
        stages=MappingProxyType(stages),
    )


def run_trunk(features: np.ndarray, weights: FoldedWeights, stage: str = "layer4") -> np.ndarray:
    """Run the trunk plan of weights for a (B, L, N_MELS) float32 batch of
    B crops' features to the end of stage (conv1 or layer1-4) and return its
    output in its zero-bordered (B, t + 2, f + 2, c) buffer, a view of the
    call's arena.

    The arena is allocated per call, so concurrent calls share nothing; the
    plan is built once per batch shape.
    """
    plan = trunk_plan(weights.config, *features.shape[:2])
    arena = np.empty(plan.floats, dtype=np.float32)

    def view(v: _View) -> np.ndarray:
        return np.ndarray(v.shape, np.float32, arena, plan.offsets[v.buf] + v.offset, v.strides)

    view(plan.features)[:, 1:-1, 1:-1, 0] = features
    n_steps, output = plan.stages[stage]
    for step in plan.steps[:n_steps]:
        for buf in map(view, step.borders):
            buf[:, 0] = buf[:, -1] = 0.0
            buf[:, :, 0] = buf[:, :, -1] = 0.0
        kernel, bias = weights.convs[step.conv]
        out = view(step.out)
        residual = out if step.residual else None
        matrix = kernel.reshape(-1, kernel.shape[-1])
        _conv_tiles(view(step.windows), matrix, bias, out, residual, step.relu, view(step.cols), view(step.acc))
    return view(output)


def forward(features: np.ndarray, weights: FoldedWeights) -> np.ndarray:
    """Embed a normalized (L, N_MELS) feature matrix as a 512-d vector, or
    a (B, L, N_MELS) batch of B crops of one length as (B, 512) rows, in
    one trunk call.

    The weights decide everything: the variant is weights.config, and every
    batch norm, an embedding batch norm included, is applied as folded into
    the layer before it. A raw tensor dict is rejected; fold it once with
    FoldedWeights(tensors). The pooling and the embedding layer run once
    over the batch, each crop's products on its own, so each row has the
    bits of forward of its crop alone. An (L, N_MELS) input is pooled as
    one (L', D) frame matrix, with no crop axis.
    """
    if not isinstance(weights, FoldedWeights):
        raise TypeError(f"forward takes FoldedWeights, got {type(weights).__name__}")
    features = np.asarray(features, dtype=np.float32)
    if features.ndim not in (2, 3) or features.shape[-1] != N_MELS:
        raise ValueError(f"expected (L, {N_MELS}) or (B, L, {N_MELS}) features, got shape {features.shape}")

    trunk = run_trunk(features.reshape(-1, *features.shape[-2:]), weights)[:, 1:-1, 1:-1]
    x = trunk if features.ndim == 3 else trunk[0]  # (..., t, f, c)
    asp = weights.config.pooling == "asp"  # asp flattens freq-major, then channel
    frames = x.reshape(*x.shape[:-2], -1) if asp else x.mean(axis=-2)
    pool = asp_pool if asp else sap_pool
    t = weights.tensors
    pooled = pool(frames, t["pool.w"], t["pool.b"], t["pool.u"])
    embeddings = _vecmat(pooled, t["embed.weight"]) + t["embed.bias"]
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("non-finite embedding")
    return embeddings.astype(np.float32)
