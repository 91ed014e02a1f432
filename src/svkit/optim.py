"""Adam optimizer, step-decay schedule, and a desk-scale training demo.

The demo optimizes free embedding parameters (no trunk backprop) on a
synthetic corpus of K speakers x M utterances, exercising every loss
end-to-end: gradients flow from the chosen objective straight into the
embeddings (plus classifier weights and the prototypical scale/bias
where the loss has them), and progress is measured as EER on held-out
cosine trials after each epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .losses import APParams, MarginParams
from .metrics import ScoreSet, Trials, evaluate
from .scoring import _dot_scores

WEIGHT_DECAY = 5e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Floor train_demo clamps the prototypical scale w to after each step.
AP_W_MIN = 1e-6


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

    step: int
    m: dict
    v: dict

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        """Step 0, with zero moments shaped like params."""
        m, v = ({name: np.zeros_like(p) for name, p in params.items()} for _ in range(2))
        return cls(0, m, v)


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    weight_decay: float,
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


def pair_pools(n_speakers: int, n_utts: int) -> tuple[int, int]:
    """Sizes of a K x M corpus's target pool (two utterances of one speaker)
    and nontarget pool (one utterance each of two speakers), both unordered."""
    return n_speakers * math.comb(n_utts, 2), math.comb(n_speakers, 2) * n_utts**2


def _pair_at(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j), i < j < n, numbered row-major as np.triu_indices(n, 1)
    lists them, at each index; in O(n) memory. Row k starts at
    k * (2n - k - 1) / 2."""
    k = np.arange(n - 1)
    starts = k * (2 * n - k - 1) // 2
    row = np.searchsorted(starts, index, side="right") - 1
    return row, index - starts[row] + row + 1


def make_corpus(n_speakers: int, n_utts: int, dim: int, n_trials: int, seed: int) -> SyntheticCorpus:
    """Seeded corpus: standard-normal embeddings, then n_trials trials
    (half target, half nontarget) drawn without replacement for each of
    the train and held-out lists, so the lists never share a pair. The
    trials' ids are the K x M utterance grid in row-major order."""
    if n_speakers < 2 or n_utts < 2:
        raise ValueError("need at least 2 speakers and 2 utterances each")
    half = n_trials // 2
    targets, nontargets = pair_pools(n_speakers, n_utts)
    if 2 * half > targets:  # the smaller pool, as K >= 2
        raise ValueError(f"cannot sample {2 * half} distinct pairs from a pool of {targets}")
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n_speakers, n_utts, dim))

    # Each pool is numbered row-major, targets by (speaker, i < j) and nontargets
    # by (speakers k1 < k2, i, j); drawn numbers are decoded, so no pool is built.
    speaker, utt_pair = np.divmod(rng.choice(targets, 2 * half, replace=False), math.comb(n_utts, 2))
    first, second = _pair_at(utt_pair, n_utts)
    same = np.stack([speaker * n_utts + first, speaker * n_utts + second], axis=1)
    speaker_pair, utts = np.divmod(rng.choice(nontargets, 2 * half, replace=False), n_utts**2)
    k1, k2 = _pair_at(speaker_pair, n_speakers)
    i, j = np.divmod(utts, n_utts)
    cross = np.stack([k1 * n_utts + i, k2 * n_utts + j], axis=1)

    ids = tuple(f"s{a:03d}u{b:03d}" for a in range(n_speakers) for b in range(n_utts))

    def to_trials(part: slice) -> Trials:
        rows = np.concatenate([same[part], cross[part]])
        labels = np.repeat(np.array([1, 0], dtype=np.int8), [half, half])
        return Trials(ids, labels, rows[:, 0], rows[:, 1])

    return SyntheticCorpus(
        embeddings=emb,
        train_trials=to_trials(slice(half)),
        heldout_trials=to_trials(slice(half, None)),
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
    loss_name: str,
    epochs: int,
    lr0: float,
    schedule: Schedule,
    weight_decay: float,
    margin: MarginParams,
    seed: int,
) -> TrainResult:
    """Full-batch optimization of the corpus embeddings under one loss.

    Classifier weights (for the softmax family) start from a seeded
    Gaussian and the softmax bias from zero; the prototypical scale and
    bias start at APParams()'s w and b, and the scale is clamped to
    AP_W_MIN after every step. Raises DivergenceError naming the epoch
    if the loss, a gradient or a parameter goes non-finite.
    """
    if loss_name not in losses.LOSS_NAMES:
        raise ValueError(f"unknown loss {loss_name!r}; choose from {losses.LOSS_NAMES}")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")

    k, m, d = corpus.embeddings.shape
    labels = np.repeat(np.arange(k), m)
    rng = np.random.default_rng(seed)

    params = {"embeddings": corpus.embeddings.astype(np.float64, copy=True)}
    if loss_name != "ap":
        params["weights"] = rng.standard_normal((k, d)) / np.sqrt(d)
    if loss_name in ("softmax", "ap+softmax"):
        params["bias"] = np.zeros(k)
    if loss_name in ("ap", "ap+softmax"):
        params["w"] = np.array(float(APParams().w))
        params["b"] = np.array(float(APParams().b))

    def evaluate_loss():
        e = params["embeddings"]
        if loss_name == "softmax":
            return losses.softmax_ce(e.reshape(k * m, d), labels, params["weights"], params["bias"])
        if loss_name == "amsoftmax":
            return losses.am_softmax(e.reshape(k * m, d), labels, params["weights"], margin)
        if loss_name == "aamsoftmax":
            return losses.aam_softmax(e.reshape(k * m, d), labels, params["weights"], margin)
        ap_now = APParams(float(params["w"]), float(params["b"]))
        if loss_name == "ap":
            return losses.angular_prototypical(e, ap_now)
        return losses.ap_plus_softmax(e, params["weights"], ap_now, params["bias"])

    state = AdamState.for_params(params)
    history = []
    with np.errstate(all="ignore"):  # a non-finite loss, gradient or parameter is reported by its epoch
        if epochs == 0:  # the report is of the initial embeddings; otherwise of the last epoch's
            report = evaluate(trial_scores(params["embeddings"], corpus.heldout_trials))
        for epoch in range(epochs):
            lr = lr_at(epoch, lr0, schedule)
            loss, grads = evaluate_loss()
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            if grads["embeddings"].ndim == 2:
                grads = dict(grads, embeddings=grads["embeddings"].reshape(k, m, d))
            try:
                adam_step(params, grads, state, lr, weight_decay)
            except ValueError as exc:  # a non-finite gradient
                raise DivergenceError(f"{exc} at epoch {epoch}") from None
            if "w" in params and params["w"] < AP_W_MIN:
                params["w"][()] = AP_W_MIN
            try:  # non-finite embeddings show here, any other parameter in the next epoch's loss
                scores = trial_scores(params["embeddings"], corpus.heldout_trials)
            except ValueError as exc:
                raise DivergenceError(f"held-out {exc} at epoch {epoch}") from None
            report = evaluate(scores)
            history.append(EpochRecord(epoch, lr, float(loss), report.eer))
        if not all(np.isfinite(p).all() for p in params.values()):  # the last step's, which no loss reads
            raise DivergenceError(f"parameters became non-finite at epoch {epochs - 1}")
    return TrainResult(tuple(history), params["embeddings"], report.eer, report.min_dcf)
