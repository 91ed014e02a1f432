"""Training objectives on embeddings, with analytic gradients.

Five objectives, selected by name: softmax, amsoftmax, aamsoftmax, ap,
ap+softmax. Classification losses take a (B, 512) batch with integer
labels and a (C, 512) classifier; the prototypical loss takes an
(N, M, 512) batch of N speakers with M utterances each, building each
speaker's prototype from the first M-1 embeddings and querying with the
M-th.

Every function returns (loss, grads) where grads maps parameter names
("embeddings", "weights", "bias", "w", "b") to arrays shaped like the
inputs. All math is double precision; gradients are exact derivatives of
the returned value, suitable for finite-difference verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import softmax


@dataclass(frozen=True)
class MarginParams:
    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        if not 0 <= self.margin < np.inf:  # nan fails too
            raise ValueError("margin must be finite and non-negative")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be finite and positive")


@dataclass(frozen=True)
class APParams:
    """Learnable scale w and bias b of the prototypical similarity; the
    defaults are the values training starts from."""

    w: float = 10.0
    b: float = -5.0


LOSS_NAMES = ("softmax", "amsoftmax", "aamsoftmax", "ap", "ap+softmax")
# The bound each margin loss's MarginParams.margin must stay below: a cosine
# offset below 1, an angle below pi.
MARGIN_LIMITS = {"amsoftmax": 1.0, "aamsoftmax": np.pi}


def _check_labels(labels: np.ndarray, batch: int, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return labels.astype(np.intp)


def _normalize_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero-norm {what}")
    return x / norms[..., None], norms


def _normalize_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # d/dx of x/|x|: remove the radial component, then divide by |x|.
    radial = np.sum(grad_unit * unit, axis=-1, keepdims=True)
    return (grad_unit - radial * unit) / norms[..., None]


def _cross_entropy(logits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of -log softmax(logits)[rows, cols], the true class of each
    row, and softmax - onehot, its gradient times the row count. The
    one-hot is subtracted in the softmax's own array, so the two (N, C)
    arrays held are logits and that one."""
    probs = softmax(logits)
    loss = float(-np.mean(np.log(probs[rows, cols])))
    probs[rows, cols] -= 1.0
    return loss, probs


def softmax_ce(embeddings: np.ndarray, labels: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> tuple[float, dict]:
    """Vanilla softmax cross-entropy over logits W x + bias.

    Returns the mean of -log softmax(logits)[label] and gradients with
    respect to embeddings, weights, and bias. A step holds about two
    (B, C) float64 arrays: the logits and their softmax, which becomes
    the gradient in place.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n, _ = x.shape
    y = _check_labels(labels, n, w.shape[0])
    b = np.asarray(bias, dtype=np.float64)
    if b.shape != w.shape[:1]:
        raise ValueError(f"bias must have shape ({w.shape[0]},), got {b.shape}")

    # The logits are freed as _cross_entropy returns, before the backward GEMMs.
    loss, dlogits = _cross_entropy(x @ w.T + b, np.arange(n), y)
    dlogits /= n
    return loss, {"embeddings": dlogits @ w, "weights": dlogits.T @ x, "bias": dlogits.sum(axis=0)}


def _margin_softmax(
    embeddings: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    params: MarginParams,
    angular: bool,
) -> tuple[float, dict]:
    x = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = x.shape[0]
    y = _check_labels(labels, n, w.shape[0])
    m, s = params.margin, params.scale
    loss_name = "aamsoftmax" if angular else "amsoftmax"
    if m >= MARGIN_LIMITS[loss_name]:
        raise ValueError(f"{loss_name} margin must be below {MARGIN_LIMITS[loss_name]}, got {m}")

    x_unit, x_norms = _normalize_rows(x, "embedding")
    w_unit, w_norms = _normalize_rows(w, "classifier row")
    cos = x_unit @ w_unit.T
    rows = np.arange(n)

    if angular:
        cos_t = cos[rows, y]
        sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 1e-24))
        # cos(theta + m), extended monotonically past theta + m = pi.
        main = cos_t * np.cos(m) - sin_t * np.sin(m)
        fallback = cos_t - m * np.sin(m)
        past_pi = cos_t < np.cos(np.pi - m)
        target = np.where(past_pi, fallback, main)
        dtarget_dcos = np.where(past_pi, 1.0, np.cos(m) + np.sin(m) * cos_t / sin_t)
    else:
        target = cos[rows, y] - m
        dtarget_dcos = np.ones(n)

    cos *= s  # the logits, in cos's array: cos is not read again
    cos[rows, y] = s * target
    loss, dlogits = _cross_entropy(cos, rows, y)
    del cos  # freed before the backward GEMMs
    dlogits *= s / n
    dcos = dlogits
    dcos[rows, y] *= dtarget_dcos

    dx_unit = dcos @ w_unit
    dw_unit = dcos.T @ x_unit
    return loss, {
        "embeddings": _normalize_backward(dx_unit, x_unit, x_norms),
        "weights": _normalize_backward(dw_unit, w_unit, w_norms),
    }


def am_softmax(
    embeddings: np.ndarray, labels: np.ndarray, weights: np.ndarray, params: MarginParams
) -> tuple[float, dict]:
    """Additive margin softmax: true-class logit s (cos theta - m),
    competitors s cos theta, on length-normalized embeddings and rows."""
    return _margin_softmax(embeddings, labels, weights, params, angular=False)


def aam_softmax(
    embeddings: np.ndarray, labels: np.ndarray, weights: np.ndarray, params: MarginParams
) -> tuple[float, dict]:
    """Additive angular margin softmax: true-class logit s cos(theta + m),
    falling back to cos theta - m sin(m) once theta + m passes pi."""
    return _margin_softmax(embeddings, labels, weights, params, angular=True)


def angular_prototypical(embeddings: np.ndarray, params: APParams) -> tuple[float, dict]:
    """Prototypical loss with a cosine similarity S = w cos + b.

    embeddings is (N, M, D) for N >= 2 speakers and M >= 2 utterances:
    each speaker's prototype is the mean of its first M-1 embeddings, its
    query the M-th, and each query is classified against all prototypes
    with cross-entropy. Gradients cover embeddings and the scalars w, b.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 3:
        raise ValueError(f"expected (N, M, D) embeddings, got shape {e.shape}")
    n, m, _ = e.shape
    if n < 2 or m < 2:
        raise ValueError(f"need N >= 2 speakers and M >= 2 utterances, got N={n}, M={m}")

    protos = e[:, : m - 1].mean(axis=1)
    queries = e[:, m - 1]
    q_unit, q_norms = _normalize_rows(queries, "query")
    p_unit, p_norms = _normalize_rows(protos, "prototype")
    cos = q_unit @ p_unit.T

    scores = params.w * cos + params.b
    diag = np.arange(n)
    loss, dscores = _cross_entropy(scores, diag, diag)
    dscores /= n
    grad_w = float(np.sum(dscores * cos))
    grad_b = float(np.sum(dscores))
    dcos = params.w * dscores

    dq = _normalize_backward(dcos @ p_unit, q_unit, q_norms)
    dp = _normalize_backward(dcos.T @ q_unit, p_unit, p_norms)

    grad_e = np.zeros_like(e)
    grad_e[:, : m - 1] = dp[:, None, :] / (m - 1)
    grad_e[:, m - 1] = dq
    return loss, {"embeddings": grad_e, "w": grad_w, "b": grad_b}


def ap_plus_softmax(
    embeddings: np.ndarray,
    weights: np.ndarray,
    ap_params: APParams,
    bias: np.ndarray,
) -> tuple[float, dict]:
    """Sum of the prototypical loss and softmax cross-entropy.

    The (N, M, D) batch feeds the prototypical head as-is and the softmax
    head flattened, with labels implied by the speaker axis. Gradients on
    the shared embeddings are the sum of both heads'.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    ap_loss, ap_grads = angular_prototypical(e, ap_params)  # which checks e is (N, M, D)
    n, m, d = e.shape
    labels = np.repeat(np.arange(n), m)
    ce_loss, ce_grads = softmax_ce(e.reshape(n * m, d), labels, weights, bias)

    return ap_loss + ce_loss, {
        "embeddings": ap_grads["embeddings"] + ce_grads["embeddings"].reshape(n, m, d),
        "weights": ce_grads["weights"],
        "w": ap_grads["w"],
        "b": ap_grads["b"],
        "bias": ce_grads["bias"],
    }
