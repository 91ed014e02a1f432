"""Adam optimizer, step-decay schedule, and a desk-scale training demo.

The demo optimizes free embedding parameters (no trunk backprop) on a
synthetic corpus of K speakers x M utterances, exercising every loss
end-to-end: gradients flow from the chosen objective straight into the
embeddings (plus classifier weights and the prototypical scale/bias
where the loss has them), and progress is measured as EER on held-out
cosine trials after each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import losses
from .losses import APParams, MarginParams
from .metrics import DCFParams, ScoreSet, Trial, eer, min_dcf
from .scoring import _dot_scores

WEIGHT_DECAY = 5e-5


@dataclass(frozen=True)
class Schedule:
    decay_factor: float = 0.95
    decay_every: int = 5

    def __post_init__(self):
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must lie in (0, 1]")
        if self.decay_every < 1:
            raise ValueError("decay_every must be at least 1")


def lr_at(epoch: int, lr0: float, schedule: Schedule) -> float:
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return lr0 * schedule.decay_factor ** (epoch // schedule.decay_every)


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")

    @classmethod
    def for_params(cls, params: dict, **kwargs) -> "AdamState":
        state = cls(**kwargs)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        return state


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    weight_decay: float = WEIGHT_DECAY,
) -> dict:
    """One Adam update with bias correction, applied in place.

    Weight decay enters as an additive L2 term on the gradients
    (g <- g + wd * theta) before the moment updates.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValueError(f"gradient for {name!r} has shape {g.shape}, expected {p.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {name!r}")
        g = g + weight_decay * p
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / (1.0 - state.beta1**t)
        v_hat = state.v[name] / (1.0 - state.beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def _utt_id(speaker: int, utt: int) -> str:
    return f"s{speaker:03d}u{utt:03d}"


@dataclass(frozen=True)
class SyntheticCorpus:
    """Free 512-d embeddings for K speakers x M utterances, plus two
    disjoint cosine trial lists (training monitor and held-out)."""

    embeddings: np.ndarray  # (K, M, D), trainable copy handed to the demo
    train_trials: tuple[Trial, ...]
    heldout_trials: tuple[Trial, ...]

    @property
    def n_speakers(self) -> int:
        return self.embeddings.shape[0]

    @property
    def n_utterances(self) -> int:
        return self.embeddings.shape[1]

    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_speakers), self.n_utterances)


def _sample_pairs(pool: list, n: int, rng: np.random.Generator) -> list:
    if n > len(pool):
        raise ValueError(f"cannot sample {n} distinct pairs from a pool of {len(pool)}")
    picks = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in picks]


def make_corpus(
    n_speakers: int = 20,
    n_utts: int = 10,
    dim: int = 512,
    n_trials: int = 400,
    seed: int = 0,
) -> SyntheticCorpus:
    """Seeded corpus: standard-normal embeddings, then n_trials trials
    (half target, half nontarget) drawn without replacement for each of
    the train and held-out lists, so the lists never share a pair."""
    if n_speakers < 2 or n_utts < 2:
        raise ValueError("need at least 2 speakers and 2 utterances each")
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n_speakers, n_utts, dim))

    same = [
        (k, i, k, j)
        for k in range(n_speakers)
        for i in range(n_utts)
        for j in range(i + 1, n_utts)
    ]
    cross = [
        (k1, i, k2, j)
        for k1 in range(n_speakers)
        for k2 in range(k1 + 1, n_speakers)
        for i in range(n_utts)
        for j in range(n_utts)
    ]
    half = n_trials // 2
    targets = _sample_pairs(same, 2 * half, rng)
    nontargets = _sample_pairs(cross, 2 * half, rng)

    def to_trials(pairs, label):
        return [Trial(label, _utt_id(a, b), _utt_id(c, d)) for a, b, c, d in pairs]

    train = to_trials(targets[:half], 1) + to_trials(nontargets[:half], 0)
    heldout = to_trials(targets[half:], 1) + to_trials(nontargets[half:], 0)
    return SyntheticCorpus(
        embeddings=emb,
        train_trials=tuple(train),
        heldout_trials=tuple(heldout),
    )


def trial_scores(embeddings: np.ndarray, trials: Sequence[Trial]) -> ScoreSet:
    """Cosine score per trial, looking utterance ids up in the corpus grid,
    with the dot-and-clip of scoring.score_trials."""
    k, m, _ = embeddings.shape
    flat = embeddings.reshape(k * m, -1)
    norms = np.linalg.norm(flat, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding in corpus")
    unit = flat / norms[:, None]
    index = {_utt_id(a, b): a * m + b for a in range(k) for b in range(m)}
    enroll = np.array([index[t.enroll] for t in trials], dtype=np.intp)
    test = np.array([index[t.test] for t in trials], dtype=np.intp)
    return ScoreSet(trials=tuple(trials), scores=_dot_scores(unit[enroll], unit[test]))


def mean_angular_gap(embeddings: np.ndarray) -> float:
    """Mean inter-class angular gap in degrees over all utterances.

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


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    loss: float
    heldout_eer: float


@dataclass(frozen=True)
class TrainResult:
    history: tuple[EpochRecord, ...]
    embeddings: np.ndarray
    heldout_eer: float
    heldout_min_dcf: float

    def history_csv(self) -> str:
        lines = ["epoch,lr,loss,heldout_eer"]
        for r in self.history:
            lines.append(f"{r.epoch},{r.lr!r},{r.loss!r},{r.heldout_eer!r}")
        return "\n".join(lines) + "\n"


def train_demo(
    corpus: SyntheticCorpus,
    loss_name: str = "ap+softmax",
    epochs: int = 200,
    lr0: float = 0.1,
    schedule: Schedule = Schedule(),
    weight_decay: float = WEIGHT_DECAY,
    margin: MarginParams = MarginParams(),
    ap: APParams = APParams(),
    seed: int = 0,
    dcf: DCFParams = DCFParams(),
) -> TrainResult:
    """Full-batch optimization of the corpus embeddings under one loss.

    Classifier weights (for the softmax family) start from a seeded
    Gaussian; the prototypical scale starts at ap.w and is clamped to
    ap.w_min after every step. Raises DivergenceError naming the epoch
    if the loss goes non-finite.
    """
    if loss_name not in losses.LOSS_NAMES:
        raise ValueError(f"unknown loss {loss_name!r}; choose from {losses.LOSS_NAMES}")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")

    k, m, d = corpus.embeddings.shape
    labels = corpus.labels()
    rng = np.random.default_rng(seed)

    params = {"embeddings": corpus.embeddings.astype(np.float64, copy=True)}
    if loss_name in ("softmax", "ap+softmax"):
        params["weights"] = rng.standard_normal((k, d)) / np.sqrt(d)
        params["bias"] = np.zeros(k)
    elif loss_name in ("amsoftmax", "aamsoftmax"):
        params["weights"] = rng.standard_normal((k, d)) / np.sqrt(d)
    if loss_name in ("ap", "ap+softmax"):
        params["w"] = np.array(float(ap.w))
        params["b"] = np.array(float(ap.b))

    def evaluate_loss():
        e = params["embeddings"]
        if loss_name == "softmax":
            return losses.softmax_ce(e.reshape(k * m, d), labels, params["weights"], params["bias"])
        if loss_name == "amsoftmax":
            return losses.am_softmax(e.reshape(k * m, d), labels, params["weights"], margin)
        if loss_name == "aamsoftmax":
            return losses.aam_softmax(e.reshape(k * m, d), labels, params["weights"], margin)
        ap_now = APParams(float(params["w"]), float(params["b"]), ap.w_min)
        if loss_name == "ap":
            return losses.angular_prototypical(e, ap_now)
        return losses.ap_plus_softmax(e, params["weights"], ap_now, params["bias"])

    def heldout_eer_now() -> float:
        return eer(trial_scores(params["embeddings"], corpus.heldout_trials))[0]

    state = AdamState.for_params(params)
    history = []
    for epoch in range(epochs):
        lr = lr_at(epoch, lr0, schedule)
        loss, grads = evaluate_loss()
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became non-finite at epoch {epoch}")
        if grads["embeddings"].ndim == 2:
            grads = dict(grads, embeddings=grads["embeddings"].reshape(k, m, d))
        adam_step(params, grads, state, lr, weight_decay)
        if "w" in params and params["w"] < ap.w_min:
            params["w"][()] = ap.w_min
        history.append(EpochRecord(epoch, lr, float(loss), heldout_eer_now()))

    final_scores = trial_scores(params["embeddings"], corpus.heldout_trials)
    return TrainResult(
        history=tuple(history),
        embeddings=params["embeddings"],
        heldout_eer=eer(final_scores)[0],
        heldout_min_dcf=min_dcf(final_scores, dcf)[0],
    )
