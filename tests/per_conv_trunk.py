"""The trunk as it ran before trunk plans: one conv2d call per conv, each
with its own sliding-window view, fresh zero-bordered output buffer and
fresh im2col and GEMM tiles, and one call per residual block.

It makes the same numpy calls on the same tiles as network.run_trunk, for
a batch of crops as for one, so the two must agree bit for bit; the tests
compare them. It reads only FoldedWeights' convs and config and the tile
budget it is given.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def zero_bordered(shape):
    """A (crops, t + 2, f + 2, c) float32 buffer whose crops each have a
    one-wide zero border."""
    n, t, f, c = shape
    buf = np.empty((n, t + 2, f + 2, c), dtype=np.float32)
    buf[:, 0] = buf[:, -1] = 0.0
    buf[:, :, 0] = buf[:, :, -1] = 0.0
    return buf


def conv2d(x, kernel, stride, bias, tile_bytes, residual=None, relu=False, out=None):
    """Unpadded im2col + GEMM conv of a (crops, t, f, c_in) batch over
    tiles whose column buffer takes at most tile_bytes: as many whole crops
    as fit when one does, else whole output rows of one crop (at least one)."""
    kh, kw, c_in, c_out = kernel.shape
    st, sf = stride
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::st, ::sf].transpose(0, 1, 2, 4, 5, 3)
    n, t_out, f_out = windows.shape[:3]
    if out is None:
        out = np.empty((n, t_out, f_out, c_out), dtype=np.float32)
    row_bytes = f_out * kh * kw * c_in * 4
    rows = min(t_out, max(1, tile_bytes // row_bytes))
    crops = min(n, max(1, tile_bytes // (t_out * row_bytes)))
    cols = np.empty((crops * rows * f_out, kh * kw * c_in), dtype=np.float32)
    acc = np.empty((crops * rows * f_out, c_out), dtype=np.float32)
    matrix = kernel.reshape(kh * kw * c_in, c_out)
    for b0 in range(0, n, crops):
        b1 = min(b0 + crops, n)
        for t0 in range(0, t_out, rows):
            t1 = min(t0 + rows, t_out)
            m = (b1 - b0) * (t1 - t0) * f_out
            np.copyto(cols[:m].reshape(b1 - b0, t1 - t0, f_out, kh, kw, c_in), windows[b0:b1, t0:t1])
            tile = np.matmul(cols[:m], matrix, out=acc[:m]).reshape(b1 - b0, t1 - t0, f_out, c_out)
            tile += bias
            if residual is not None:
                tile += residual[b0:b1, t0:t1]
            if relu:
                np.maximum(tile, 0.0, out=out[b0:b1, t0:t1])
            else:
                out[b0:b1, t0:t1] = tile
    return out


def _conv_relu_bordered(x, conv, stride, residual, tile_bytes):
    kernel, bias = conv
    kh, kw, _, c_out = kernel.shape
    t = (x.shape[1] - kh) // stride[0] + 1
    f = (x.shape[2] - kw) // stride[1] + 1
    out = zero_bordered((x.shape[0], t, f, c_out))
    conv2d(x, kernel, stride, bias, tile_bytes, residual, relu=True, out=out[:, 1:-1, 1:-1])
    return out


def residual_block(x, weights, prefix, stride, tile_bytes):
    mid = _conv_relu_bordered(x, weights.convs[f"{prefix}.conv1"], (stride, stride), None, tile_bytes)
    shortcut = x[:, 1:-1, 1:-1]
    if f"{prefix}.shortcut" in weights.convs:
        kernel, bias = weights.convs[f"{prefix}.shortcut"]
        shortcut = conv2d(shortcut, kernel, (stride, stride), bias, tile_bytes)
    return _conv_relu_bordered(mid, weights.convs[f"{prefix}.conv2"], (1, 1), shortcut, tile_bytes)


def trunk(features, weights, stage="layer4", *, tile_bytes):
    """The zero-bordered output of stage (conv1 or layer1-4) for a
    (crops, L, 64) float32 batch of features, as network.run_trunk returns
    it."""
    x = zero_bordered((*features.shape, 1))
    x[:, 1:-1, 1:-1, 0] = features
    x = _conv_relu_bordered(x, weights.convs["conv1"], weights.config.conv1_stride, None, tile_bytes)
    if stage == "conv1":
        return x
    for prefix, stride, _, _ in weights.config.blocks():
        if prefix.partition(".")[0] > stage:
            break
        x = residual_block(x, weights, prefix, stride, tile_bytes)
    return x
