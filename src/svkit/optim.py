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

import numpy as np

from . import losses
from .losses import APParams, MarginParams
from .metrics import ScoreSet, Trials, eer, min_dcf
from .scoring import _dot_scores

WEIGHT_DECAY = 5e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    """Step count and first/second moments, by parameter name."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        state = cls()
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
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


@dataclass(frozen=True)
class SyntheticCorpus:
    """Free 512-d embeddings for K speakers x M utterances, plus two
    disjoint cosine trial lists (training monitor and held-out)."""

    embeddings: np.ndarray  # (K, M, D), trainable copy handed to the demo
    train_trials: Trials
    heldout_trials: Trials

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
    the train and held-out lists, so the lists never share a pair. The
    trials' ids are the K x M utterance grid in row-major order."""
    if n_speakers < 2 or n_utts < 2:
        raise ValueError("need at least 2 speakers and 2 utterances each")
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n_speakers, n_utts, dim))

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
    half = n_trials // 2
    targets = _sample_pairs(same, 2 * half, rng)
    nontargets = _sample_pairs(cross, 2 * half, rng)

    ids = tuple(f"s{a:03d}u{b:03d}" for a in range(n_speakers) for b in range(n_utts))

    def to_trials(targets, nontargets) -> Trials:
        rows = np.array(targets + nontargets, dtype=np.intp).reshape(-1, 2)
        labels = np.repeat(np.array([1, 0], dtype=np.int8), [len(targets), len(nontargets)])
        return Trials(ids, labels, rows[:, 0], rows[:, 1])

    return SyntheticCorpus(
        embeddings=emb,
        train_trials=to_trials(targets[:half], nontargets[:half]),
        heldout_trials=to_trials(targets[half:], nontargets[half:]),
    )


def trial_scores(embeddings: np.ndarray, trials: Trials) -> ScoreSet:
    """Cosine score per trial, whose ids are the corpus grid in row-major
    order, with the dot-and-clip of scoring.score_trials."""
    unit, _ = losses._normalize_rows(embeddings.reshape(-1, embeddings.shape[-1]), "embedding in corpus")
    return ScoreSet(trials.labels, _dot_scores(unit[trials.enroll], unit[trials.test]))


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
        heldout_min_dcf=min_dcf(final_scores)[0],
    )
