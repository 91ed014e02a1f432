"""Verification metrics: equal error rate and minimum detection cost.

Both metrics walk the same ROC staircase: one operating point per
distinct score, accepting a trial when its score is >= the threshold
(ties accept). p_miss is the fraction of targets below the threshold,
p_fa the fraction of nontargets at or above it, so p_miss rises and
p_fa falls as the threshold sweeps upward. EER linearly interpolates
between the two adjacent points where p_miss - p_fa changes sign;
MinDCF takes the cheapest point, with the reject-everything endpoint
included so the raw cost never exceeds c_miss * p_target.

Text formats: trial files hold `<label:1|0> <enroll_path> <test_path>`
per line, score files `<enroll_path> <test_path> <score>` with scores
printed to 6 decimals, and evaluation reports are key=value lines that
round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class Trial:
    label: int  # 1 target, 0 nontarget
    enroll: str
    test: str

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"trial label must be 0 or 1, got {self.label!r}")

    @property
    def is_target(self) -> bool:
        return self.label == 1


@dataclass(frozen=True)
class ScoreSet:
    """Scores parallel to a trial list, split by label for the sweep."""

    trials: tuple[Trial, ...]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(self.trials),):
            raise ValueError("need exactly one score per trial")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", scores)
        is_target = np.array([t.is_target for t in self.trials], dtype=bool)
        object.__setattr__(self, "_is_target", is_target)

    @classmethod
    def from_map(cls, trials: Sequence[Trial], by_pair: Mapping[tuple[str, str], float]) -> "ScoreSet":
        missing = [t for t in trials if (t.enroll, t.test) not in by_pair]
        if missing:
            shown = ", ".join(f"{t.enroll} vs {t.test}" for t in missing[:10])
            more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
            raise MissingScoresError(f"{len(missing)} trials have no score: {shown}{more}")
        return cls(
            trials=tuple(trials),
            scores=np.array([by_pair[(t.enroll, t.test)] for t in trials]),
        )

    @property
    def target_scores(self) -> np.ndarray:
        return self.scores[self._is_target]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self.scores[~self._is_target]


class MissingScoresError(ValueError):
    pass


@dataclass(frozen=True)
class DCFParams:
    c_miss: float = 1.0
    c_fa: float = 1.0
    p_target: float = 0.05
    normalize: bool = True

    def __post_init__(self):
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("detection costs must be positive")
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must lie strictly between 0 and 1")

    @property
    def normalizer(self) -> float:
        """Cost of the better trivial system (accept all or reject all)."""
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


def roc_points(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, p_miss, p_fa) at every distinct score, ascending."""
    targets = np.sort(scores.target_scores)
    nontargets = np.sort(scores.nontarget_scores)
    if targets.size == 0:
        raise ValueError("score set has no target trials")
    if nontargets.size == 0:
        raise ValueError("score set has no nontarget trials")
    thresholds = np.unique(scores.scores)
    p_miss = np.searchsorted(targets, thresholds, side="left") / targets.size
    p_fa = (nontargets.size - np.searchsorted(nontargets, thresholds, side="left")) / nontargets.size
    return thresholds, p_miss, p_fa


def _with_reject_all(
    thresholds: np.ndarray, p_miss: np.ndarray, p_fa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # One threshold above every score rejects everything: (p_miss, p_fa) = (1, 0).
    return (
        np.append(thresholds, thresholds[-1] + 1.0),
        np.append(p_miss, 1.0),
        np.append(p_fa, 0.0),
    )


def eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and the threshold where it occurs."""
    thresholds, p_miss, p_fa = _with_reject_all(*roc_points(scores))
    diff = p_miss - p_fa
    i = int(np.argmax(diff >= 0.0))  # first non-negative; diff[0] = -1 always
    if diff[i] == 0.0:
        return float(p_miss[i]), float(thresholds[i])
    # Cross between points i-1 and i: solve p_miss(a) = p_fa(a) along the segment.
    frac = -diff[i - 1] / (diff[i] - diff[i - 1])
    value = p_miss[i - 1] + frac * (p_miss[i] - p_miss[i - 1])
    threshold = thresholds[i - 1] + frac * (thresholds[i] - thresholds[i - 1])
    return float(value), float(threshold)


def min_dcf(scores: ScoreSet, params: DCFParams = DCFParams()) -> tuple[float, float]:
    """Minimum detection cost and its threshold, normalized per params."""
    thresholds, p_miss, p_fa = _with_reject_all(*roc_points(scores))
    dcf = params.c_miss * params.p_target * p_miss + params.c_fa * (1.0 - params.p_target) * p_fa
    i = int(np.argmin(dcf))
    value = float(dcf[i])
    if params.normalize:
        value /= params.normalizer
    return value, float(thresholds[i])


@dataclass(frozen=True)
class EvalReport:
    eer_pct: float
    eer: float
    eer_threshold: float
    min_dcf: float
    min_dcf_raw: float
    dcf_threshold: float
    n_target: int
    n_nontarget: int

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name}={value!r}" if f.type == "float" else f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EvalReport":
        values: dict = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise ValueError(f"malformed report line: {line!r}")
            values[key] = raw
        kwargs = {}
        for f in fields(cls):
            if f.name not in values:
                raise ValueError(f"report missing field {f.name!r}")
            kwargs[f.name] = (float if f.type == "float" else int)(values[f.name])
        return cls(**kwargs)


def evaluate(scores: ScoreSet, params: DCFParams = DCFParams()) -> EvalReport:
    eer_value, eer_thr = eer(scores)
    raw, dcf_thr = min_dcf(scores, replace(params, normalize=False))
    return EvalReport(
        eer_pct=round(eer_value * 100.0, 4),
        eer=eer_value,
        eer_threshold=eer_thr,
        min_dcf=raw / params.normalizer if params.normalize else raw,
        min_dcf_raw=raw,
        dcf_threshold=dcf_thr,
        n_target=int(scores.target_scores.size),
        n_nontarget=int(scores.nontarget_scores.size),
    )


def read_trials(path: str | Path) -> tuple[Trial, ...]:
    """Trials in file order. An ordered (enroll, test) pair may appear once:
    a score file holds one score per pair. (a, b) and (b, a) are distinct."""
    entries = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: expected '<label:1|0> <enroll> <test>', got {line!r}")
        pair = (parts[1], parts[2])
        if pair in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate trial {parts[1]} vs {parts[2]} (first on line {first_line[pair]})"
            )
        first_line[pair] = lineno
        entries.append(Trial(label=int(parts[0]), enroll=parts[1], test=parts[2]))
    if not entries:
        raise ValueError(f"{path}: no trials found")
    return tuple(entries)


def read_scores(path: str | Path) -> dict[tuple[str, str], float]:
    by_pair: dict[tuple[str, str], float] = {}
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected '<enroll> <test> <score>', got {line!r}")
        try:
            value = float(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad score {parts[2]!r}") from None
        key = (parts[0], parts[1])
        if key in by_pair:
            raise ValueError(f"{path}:{lineno}: duplicate score for {parts[0]} vs {parts[1]}")
        by_pair[key] = value
    if not by_pair:
        raise ValueError(f"{path}: no scores found")
    # One check per file. Each non-blank line added one entry, in order, so
    # the first non-finite entry names its line without a per-line check.
    finite = np.isfinite(np.fromiter(by_pair.values(), np.float64, len(by_pair)))
    if not finite.all():
        lineno = [i for i, line in enumerate(lines, start=1) if line.strip()][int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: score must be finite, got {lines[lineno - 1].split()[2]!r}")
    return by_pair


def write_scores(path: str | Path, scored: Iterable[tuple[str, str, float]]) -> None:
    lines = [f"{enroll} {test} {value:.6f}" for enroll, test, value in scored]
    Path(path).write_text("\n".join(lines) + "\n")
