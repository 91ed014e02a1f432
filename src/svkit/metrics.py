"""Verification metrics: equal error rate and minimum detection cost.

evaluate makes the one sweep of the ROC staircase; eer and min_dcf read
its report. Each distinct score is a threshold that accepts a trial when
its score is >= the threshold (ties accept). p_miss is the fraction of
targets below it, p_fa the fraction of nontargets at or above it, so
p_miss rises and p_fa falls as the threshold sweeps upward. EER linearly
interpolates between the two adjacent points where p_miss - p_fa changes
sign; MinDCF takes the cheapest point, with the reject-everything endpoint
included so the raw cost never exceeds c_miss * p_target.

A trial list is one Trials value, utterance ids plus label and enroll/test
index arrays, from the file to the report. Text formats, all UTF-8: trial
files hold `<label:1|0> <enroll_path> <test_path>` per line, score files
`<enroll_path> <test_path> <score>` with scores printed to 6 decimals, and
evaluation reports are key=value lines that round-trip losslessly. Errors
about a file's content start with its path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Trials:
    """A trial list as arrays. ids holds each utterance id once: every
    enroll id in file order, then every test id not yet seen. labels is
    int8 (1 target, 0 nontarget); enroll and test are intp rows into ids."""

    ids: tuple[str, ...]
    labels: np.ndarray
    enroll: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class ScoreSet:
    """Scores parallel to trial labels, split by label for the sweep."""

    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != labels.shape or scores.ndim != 1:
            raise ValueError("need exactly one score per trial")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("trial labels must be 0 or 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scores", scores)

    @property
    def target_scores(self) -> np.ndarray:
        return self.scores[self.labels == 1]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self.scores[self.labels == 0]


class MissingScoresError(ValueError):
    pass


@dataclass(frozen=True)
class DCFParams:
    c_miss: float = 1.0
    c_fa: float = 1.0
    p_target: float = 0.05
    normalize: bool = True

    def __post_init__(self):
        if not (0 < self.c_miss < np.inf and 0 < self.c_fa < np.inf):  # nan fails too
            raise ValueError("detection costs must be finite and positive")
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must lie strictly between 0 and 1")
        if self.normalize and self.normalizer == 0.0:  # the checks above keep it finite, >= 0; evaluate divides by it
            raise ValueError("MinDCF normalizer min(c_miss * p_target, c_fa * (1 - p_target)) underflows to 0")

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


def eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and the threshold where it occurs."""
    report = evaluate(scores)
    return report.eer, report.eer_threshold


def min_dcf(scores: ScoreSet, params: DCFParams = DCFParams()) -> tuple[float, float]:
    """Minimum detection cost and its threshold, normalized per params."""
    report = evaluate(scores, params)
    return report.min_dcf, report.dcf_threshold


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


def evaluate(scores: ScoreSet, params: DCFParams = DCFParams()) -> EvalReport:
    """Both metrics from one sweep of the ROC staircase."""
    thresholds, p_miss, p_fa = roc_points(scores)
    # One threshold above every score rejects everything: (p_miss, p_fa) = (1, 0).
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    p_miss, p_fa = np.append(p_miss, 1.0), np.append(p_fa, 0.0)
    diff = p_miss - p_fa
    i = int(np.argmax(diff >= 0.0))  # first non-negative; diff[0] = -1 always
    if diff[i] == 0.0:
        eer_value, eer_thr = float(p_miss[i]), float(thresholds[i])
    else:  # cross between points i-1 and i: solve p_miss(a) = p_fa(a) along the segment
        frac = -diff[i - 1] / (diff[i] - diff[i - 1])
        eer_value = float(p_miss[i - 1] + frac * (p_miss[i] - p_miss[i - 1]))
        eer_thr = float(thresholds[i - 1] + frac * (thresholds[i] - thresholds[i - 1]))
    dcf = params.c_miss * params.p_target * p_miss + params.c_fa * (1.0 - params.p_target) * p_fa
    j = int(np.argmin(dcf))
    raw = float(dcf[j])
    return EvalReport(
        eer_pct=round(eer_value * 100.0, 4),
        eer=eer_value,
        eer_threshold=eer_thr,
        min_dcf=raw / params.normalizer if params.normalize else raw,
        min_dcf_raw=raw,
        dcf_threshold=float(thresholds[j]),
        n_target=int(np.count_nonzero(scores.labels)),
        n_nontarget=int(np.count_nonzero(scores.labels == 0)),
    )


def _read_lines(path: str | Path) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_trials(path: str | Path) -> Trials:
    """Trials in file order. An ordered (enroll, test) pair may appear once:
    a score file holds one score per pair. (a, b) and (b, a) are distinct."""
    labels = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
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
        labels.append(parts[0] == "1")
    if not labels:
        raise ValueError(f"{path}: no trials found")
    enroll, test = zip(*first_line)  # the pairs, in file order
    ids = tuple(dict.fromkeys(enroll + test))
    row = {utt: i for i, utt in enumerate(ids)}
    rows = np.fromiter(map(row.__getitem__, enroll + test), np.intp, 2 * len(labels))
    return Trials(ids, np.array(labels, dtype=np.int8), rows[: len(labels)], rows[len(labels) :])


def read_scores(path: str | Path, trials: Trials) -> np.ndarray:
    """Score of each trial, in trial order. Every line is checked; a line
    whose pair is not in the list is then ignored."""
    by_pair: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
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
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: score must be finite, got {parts[2]!r}")
        key = (parts[0], parts[1])
        if key in by_pair:
            raise ValueError(f"{path}:{lineno}: duplicate score for {parts[0]} vs {parts[1]}")
        by_pair[key] = value
    if not by_pair:
        raise ValueError(f"{path}: no scores found")
    ids = np.array(trials.ids, dtype=object)
    pairs = list(zip(ids[trials.enroll].tolist(), ids[trials.test].tolist()))
    missing = [pair for pair in pairs if pair not in by_pair]
    if missing:
        shown = ", ".join(f"{enroll} vs {test}" for enroll, test in missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise MissingScoresError(f"{path}: {len(missing)} trials have no score: {shown}{more}")
    return np.array([by_pair[pair] for pair in pairs])


def write_scores(path: str | Path, trials: Trials, scores: np.ndarray) -> None:
    """One `<enroll> <test> <score>` line per trial, in trial order."""
    ids = np.array(trials.ids, dtype=object)
    lines = map("{} {} {:.6f}".format, ids[trials.enroll].tolist(), ids[trials.test].tolist(), scores.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
