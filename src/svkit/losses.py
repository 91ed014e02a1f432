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
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class APParams:
    """Learnable scale/bias of the prototypical similarity, with a floor
    (w_min) the trainer clamps the scale to after each update."""

    w: float = 10.0
    b: float = -5.0
    w_min: float = 1e-6


LOSS_NAMES = ("softmax", "amsoftmax", "aamsoftmax", "ap", "ap+softmax")


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


def softmax_ce(
    embeddings: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
) -> tuple[float, dict]:
    """Vanilla softmax cross-entropy over logits W x + bias.

    Returns the mean of -log softmax(logits)[label] and gradients with
    respect to embeddings, weights, and bias.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n, _ = x.shape
    y = _check_labels(labels, n, w.shape[0])

    logits = x @ w.T
    if bias is not None:
        logits = logits + np.asarray(bias, dtype=np.float64)
    probs = softmax(logits)
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grads = {"embeddings": dlogits @ w, "weights": dlogits.T @ x}
    if bias is not None:
        grads["bias"] = dlogits.sum(axis=0)
    return loss, grads


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

    x_unit, x_norms = _normalize_rows(x, "embedding")
    w_unit, w_norms = _normalize_rows(w, "classifier row")
    cos = x_unit @ w_unit.T
    rows = np.arange(n)

    if angular:
        if m >= np.pi:
            raise ValueError("angular margin must be below pi")
        cos_t = cos[rows, y]
        sin_t = np.sqrt(np.maximum(1.0 - cos_t * cos_t, 1e-24))
        # cos(theta + m), extended monotonically past theta + m = pi.
        main = cos_t * np.cos(m) - sin_t * np.sin(m)
        fallback = cos_t - m * np.sin(m)
        past_pi = cos_t < np.cos(np.pi - m)
        target = np.where(past_pi, fallback, main)
        dtarget_dcos = np.where(past_pi, 1.0, np.cos(m) + np.sin(m) * cos_t / sin_t)
    else:
        if m >= 1.0:
            raise ValueError("additive cosine margin must be below 1")
        target = cos[rows, y] - m
        dtarget_dcos = np.ones(n)

    logits = s * cos
    logits[rows, y] = s * target
    probs = softmax(logits)
    loss = float(-np.mean(np.log(probs[rows, y])))

    dlogits = probs.copy()
    dlogits[rows, y] -= 1.0
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
    embeddings: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    params: MarginParams = MarginParams(),
) -> tuple[float, dict]:
    """Additive margin softmax: true-class logit s (cos theta - m),
    competitors s cos theta, on length-normalized embeddings and rows."""
    return _margin_softmax(embeddings, labels, weights, params, angular=False)


def aam_softmax(
    embeddings: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    params: MarginParams = MarginParams(),
) -> tuple[float, dict]:
    """Additive angular margin softmax: true-class logit s cos(theta + m),
    falling back to cos theta - m sin(m) once theta + m passes pi."""
    return _margin_softmax(embeddings, labels, weights, params, angular=True)


def angular_prototypical(
    embeddings: np.ndarray,
    params: APParams = APParams(),
) -> tuple[float, dict]:
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
    probs = softmax(scores)
    diag = np.arange(n)
    loss = float(-np.mean(np.log(probs[diag, diag])))

    dscores = probs.copy()
    dscores[diag, diag] -= 1.0
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
    ap_params: APParams = APParams(),
    bias: np.ndarray | None = None,
) -> tuple[float, dict]:
    """Sum of the prototypical loss and softmax cross-entropy.

    The (N, M, D) batch feeds the prototypical head as-is and the softmax
    head flattened, with labels implied by the speaker axis. Gradients on
    the shared embeddings are the sum of both heads'.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 3:
        raise ValueError(f"expected (N, M, D) embeddings, got shape {e.shape}")
    n, m, d = e.shape
    labels = np.repeat(np.arange(n), m)

    ap_loss, ap_grads = angular_prototypical(e, ap_params)
    ce_loss, ce_grads = softmax_ce(e.reshape(n * m, d), labels, weights, bias)

    loss = ap_loss + ce_loss
    grads = {
        "embeddings": ap_grads["embeddings"] + ce_grads["embeddings"].reshape(n, m, d),
        "weights": ce_grads["weights"],
        "w": ap_grads["w"],
        "b": ap_grads["b"],
    }
    if bias is not None:
        grads["bias"] = ce_grads["bias"]
    return loss, grads
