"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload is one closed-loop client in one process: a pass is a
fixed sequence of `svkit` CLI calls on the inputs made at set-up, and the
next pass starts when the previous one and its checks are done. Each
pass repeats the same job, so its outputs must be byte-identical to the
first pass's (the determinism contract).

The seed decides the audio, the speakers, the trial order, the weights
and the training corpus. It never decides how much work a pass does:
utterance lengths, counts and augmentation seeds are fixed, so seeds
differ in content only and the timings of different seeds agree.

An operation is one CLI call or one output check; `Session` counts both.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import time
import wave
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

SR = ref.SAMPLE_RATE
N_CROPS = 10
EMBED_DIM = 512
SCORE_TOL = 1e-6  # score files hold 6 decimals; rounding adds at most 5e-7
EMBED_REL_TOL = 1e-4  # float32 trunk vs float64 reference, relative L2
REPORT_TOL = 1e-9  # report fields vs the exhaustive sweep on the same scores


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Call:
    argv: list[str]
    seconds: float
    code: int
    stdout: str


class Session:
    """Runs `svkit.cli.main(argv)` in this process and counts operations.

    `main` is looked up on the module at every call, so a traced pass
    goes through the tracer's hook.
    """

    def __init__(self, cli, log):
        self.cli = cli
        self.log = log
        self.attempted = 0
        self.failed = 0

    def _count(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(message)

    def call(self, argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash counts as a failed call, like a bad exit code
                code = -1
                err.write(repr(exc))
            seconds = time.perf_counter() - start
        self._count(code == 0, f"svkit {argv[0]} exited {code}: {err.getvalue().strip()[-400:]}")
        return Call(argv, seconds, code, out.getvalue())

    def check(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # any failure of a check is a failed operation
            self._count(False, f"check failed: {what}: {exc!r}")
        else:
            self._count(True, "")


# ---------------------------------------------------------------- inputs


def write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SR)
        f.writeframes(pcm.tobytes())


def voice(rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """A synthetic speaker: pitch and a harmonic amplitude envelope."""
    return float(rng.uniform(90.0, 250.0)), rng.uniform(0.2, 1.0, 12) / np.arange(1, 13)


def utterance(rng: np.random.Generator, speaker, seconds: float) -> np.ndarray:
    """Voiced harmonics with pitch drift and a ~4 Hz syllable envelope.

    Synthesised one second at a time, so set-up's peak memory stays below
    that of the passes and `peak_rss_mb` measures the program.
    """
    f0, amps = speaker
    n = int(round(seconds * SR))
    drift_hz, drift_phase = rng.uniform(0.3, 1.0), rng.uniform(0, 2 * np.pi)
    syllable_hz, syllable_phase = rng.uniform(3.0, 5.0), rng.uniform(0, 2 * np.pi)
    x = 0.05 * rng.standard_normal(n)
    phase0 = 0.0
    for lo in range(0, n, SR):
        t = np.arange(lo, min(lo + SR, n)) / SR
        phase = phase0 + 2 * np.pi * np.cumsum(f0 * (1.0 + 0.05 * np.sin(2 * np.pi * drift_hz * t + drift_phase))) / SR
        phase0 = phase[-1]
        voiced = sum(a * np.sin(k * phase) for k, a in enumerate(amps, start=1))
        x[lo : lo + t.size] += voiced * (0.2 + np.sin(2 * np.pi * syllable_hz * t + syllable_phase) ** 2)
    x *= 0.3 / np.max(np.abs(x))
    return x


def music(rng: np.random.Generator, seconds: float) -> np.ndarray:
    n = int(round(seconds * SR))
    t = np.arange(n) / SR
    x = sum(np.sin(2 * np.pi * f * t) for f in rng.uniform(110.0, 880.0, 4))
    return 0.3 * x / np.max(np.abs(x))


def noise(rng: np.random.Generator, seconds: float) -> np.ndarray:
    x = np.convolve(rng.standard_normal(int(round(seconds * SR))), np.ones(8) / 8, mode="same")
    return 0.3 * x / np.max(np.abs(x))


def impulse_response(rng: np.random.Generator, seconds: float) -> np.ndarray:
    n = int(round(seconds * SR))
    x = rng.standard_normal(n) * np.exp(-np.arange(n) / (0.05 * SR))
    x[0] = 4.0  # direct path
    return 0.9 * x / np.max(np.abs(x))


def _write_utterances(folder: Path, rng, speakers, lengths) -> list[Path]:
    folder.mkdir(parents=True)
    paths = []
    for i, (speaker, seconds) in enumerate(zip(speakers, lengths)):
        path = folder / f"u{i:03d}.wav"
        write_wav(path, utterance(rng, speaker, seconds))
        paths.append(path)
    return paths


def _digest(*paths_or_text) -> str:
    h = hashlib.sha256()
    for item in paths_or_text:
        h.update(item.read_bytes() if isinstance(item, Path) else item.encode())
        h.update(b"\0")
    return h.hexdigest()


def _check_trunk(weights: Path, wav: Path, out_rows: np.ndarray, crop_index: int) -> None:
    """One crop's embedding against the float64 reference trunk."""
    # Imported here: set-up re-imports svkit, so bind the current modules.
    from svkit.audio import Waveform
    from svkit.features import extract_features

    samples = ref.read_wav(wav)
    crop_samples = 4 * SR
    offset = ref.crop_offsets(max(samples.size, crop_samples), crop_samples, N_CROPS)[crop_index]
    window = ref.crop(samples, crop_samples, offset)
    features = extract_features(Waveform(window)).values
    want = ref.trunk_embedding(features, ref.read_svw1(weights))
    err = ref.relative_error(out_rows[crop_index], want)
    expect(err <= EMBED_REL_TOL, f"{wav.name} crop {crop_index}: relative error {err:.2e}")


def _check_entries(entries: dict, keys: list[str]) -> None:
    for key in keys:
        expect(key in entries, f"no entry for {key}")
        emb = entries[key]
        expect(emb.shape == (N_CROPS, EMBED_DIM), f"{key}: shape {emb.shape}")
        expect(bool(np.all(np.isfinite(emb))), f"{key}: non-finite values")


def _canonical(path: Path) -> str:
    return path.resolve().as_posix()


def _write_trials(path: Path, trials: list[tuple[int, str, str]]) -> None:
    path.write_text("".join(f"{label} {a} {b}\n" for label, a, b in trials))


def _check_scores(scores_path: Path, trials, embeddings: dict, wav_dir: Path) -> list[float]:
    """One line per trial, in trial order, each within SCORE_TOL of the
    crop-averaged cosine of the cached embeddings."""
    lines = scores_path.read_text().splitlines()
    expect(len(lines) == len(trials), f"{len(lines)} score lines for {len(trials)} trials")
    values = []
    for line, (_, a, b) in zip(lines, trials):
        enroll, test, value = line.split()
        expect((enroll, test) == (a, b), f"score line {line!r} for trial {a} {b}")
        want = ref.crop_averaged_score(
            embeddings[_canonical(wav_dir / a)], embeddings[_canonical(wav_dir / b)]
        )
        expect(abs(float(value) - want) <= SCORE_TOL, f"{a} {b}: score {value} vs reference {want:.9f}")
        values.append(float(value))
    return values


class Job:
    """Inputs of one set-up, and the pass that runs on them."""

    audio_seconds: float  # audio the pass's calls take as input
    trials: int  # trials the pass scores (see each workload)

    def run_pass(self, s: Session) -> list[Call]:
        raise NotImplementedError

    def check_pass(self, s: Session, calls: list[Call]) -> None:
        raise NotImplementedError

    def check_once(self, s: Session) -> None:
        """Checks too slow to repeat every pass."""

    def digest(self) -> str:
        raise NotImplementedError


# ------------------------------------------------------------ embed-h-long

EMBED_SECONDS = 28.0  # two utterances of 8-20 s each, split by the seed


class EmbedHLong(Job):
    """`svkit embed` with h-asp weights on two utterances of 8-20 s, so
    all ten crops of each differ. There is no trial list, so `trials`
    counts each embedded utterance as one trial side."""

    def __init__(self, root: Path, seed: int, s: Session):
        rng = np.random.default_rng([seed, 1])
        first = round(float(rng.uniform(8.0, 14.0)), 2)
        self.wavs = _write_utterances(root / "wav", rng, [voice(rng), voice(rng)], (first, EMBED_SECONDS - first))
        self.weights = root / "h-asp.svw"
        self.out = root / "embeddings.svw"
        s.call(["init", "--variant", "h-asp", "--seed", str(seed), "--out", str(self.weights)])
        self.audio_seconds = EMBED_SECONDS
        self.trials = len(self.wavs)

    def run_pass(self, s):
        return [s.call(["embed", "--weights", str(self.weights), "--out", str(self.out), *map(str, self.wavs)])]

    def check_pass(self, s, calls):
        s.check("embed output", lambda: _check_entries(ref.read_svw1(self.out), [_canonical(w) for w in self.wavs]))

    def check_once(self, s):
        def trunk():
            rows = ref.read_svw1(self.out)[_canonical(self.wavs[1])]
            _check_trunk(self.weights, self.wavs[1], rows, N_CROPS - 1)

        s.check("h-asp embedding vs reference trunk", trunk)

    def digest(self):
        return _digest(self.out)


# ------------------------------------------------------------ score-cold-q

COLD_LENGTHS = (2.0, 2.5, 3.0, 4.0, 8.0, 12.0, 16.0, 20.0)


def _pair_trials(rng, names, speaker_of, ordered: bool) -> list[tuple[int, str, str]]:
    pairs = itertools.permutations(range(len(names)), 2) if ordered else itertools.combinations(range(len(names)), 2)
    trials = []
    for i, j in pairs:
        if not ordered and rng.random() < 0.5:
            i, j = j, i
        trials.append((int(speaker_of[i] == speaker_of[j]), names[i], names[j]))
    return [trials[k] for k in rng.permutation(len(trials))]


class ScoreColdQ(Job):
    """`svkit score --cache` with q-sap weights and no cache file at the
    start of each pass, on eight 2-20 s utterances. Half are 4 s or
    shorter, so all ten of their crops are the same tiled window."""

    def __init__(self, root: Path, seed: int, s: Session):
        rng = np.random.default_rng([seed, 2])
        speakers = [voice(rng) for _ in range(4)]
        speaker_of = rng.permutation(np.arange(len(COLD_LENGTHS)) % len(speakers))
        self.wav_dir = root / "wav"
        self.wavs = _write_utterances(self.wav_dir, rng, [speakers[k] for k in speaker_of], COLD_LENGTHS)
        self.trial_list = _pair_trials(rng, [w.name for w in self.wavs], speaker_of, ordered=False)
        self.trials_path = root / "trials.txt"
        _write_trials(self.trials_path, self.trial_list)
        self.weights = root / "q-sap.svw"
        self.cache = root / "cache.svw"
        self.scores = root / "scores.txt"
        s.call(["init", "--variant", "q-sap", "--seed", str(seed), "--out", str(self.weights)])
        self.audio_seconds = float(sum(COLD_LENGTHS))
        self.trials = len(self.trial_list)

    def run_pass(self, s):
        self.cache.unlink(missing_ok=True)
        return [s.call([
            "score", "--trials", str(self.trials_path), "--weights", str(self.weights),
            "--out", str(self.scores), "--cache", str(self.cache), "--wav-root", str(self.wav_dir),
        ])]

    def check_pass(self, s, calls):
        def outputs():
            cache = ref.read_svw1(self.cache)
            _check_entries(cache, [_canonical(w) for w in self.wavs])
            _check_scores(self.scores, self.trial_list, cache, self.wav_dir)

        s.check("score file and cache", outputs)

    def check_once(self, s):
        def trunk():
            cache = ref.read_svw1(self.cache)
            short, long_ = self.wavs[0], self.wavs[-1]
            _check_trunk(self.weights, short, cache[_canonical(short)], 0)
            _check_trunk(self.weights, long_, cache[_canonical(long_)], N_CROPS // 2)

        s.check("q-sap embeddings vs reference trunk", trunk)

    def digest(self):
        return _digest(self.scores, self.cache)


# -------------------------------------------------------------- score-warm

WARM_UTTERANCES = 32
WARM_SECONDS = 0.6
WARM_CROP = "0.1"  # seconds; per-trial cost does not depend on it, set-up does


class ScoreWarm(Job):
    """`svkit score` on every distinct ordered pair of 32 utterances
    (992 trials) from a cache the program builds at set-up, then
    `svkit evaluate`. The cache file must not change."""

    def __init__(self, root: Path, seed: int, s: Session):
        rng = np.random.default_rng([seed, 3])
        speakers = [voice(rng) for _ in range(8)]
        speaker_of = rng.permutation(np.arange(WARM_UTTERANCES) % len(speakers))
        self.wav_dir = root / "wav"
        self.wavs = _write_utterances(
            self.wav_dir, rng, [speakers[k] for k in speaker_of], [WARM_SECONDS] * WARM_UTTERANCES
        )
        self.trial_list = _pair_trials(rng, [w.name for w in self.wavs], speaker_of, ordered=True)
        self.trials_path = root / "trials.txt"
        _write_trials(self.trials_path, self.trial_list)
        self.weights = root / "q-sap.svw"
        self.cache = root / "cache.svw"
        self.scores = root / "scores.txt"
        self.report = root / "report.txt"
        s.call(["init", "--variant", "q-sap", "--seed", str(seed), "--out", str(self.weights)])
        s.call(self._score_argv(root / "warmup_scores.txt"))
        self.cache_digest = _digest(self.cache)
        self.audio_seconds = WARM_UTTERANCES * WARM_SECONDS
        self.trials = len(self.trial_list)

    def _score_argv(self, out: Path) -> list[str]:
        return [
            "score", "--trials", str(self.trials_path), "--weights", str(self.weights),
            "--out", str(out), "--cache", str(self.cache), "--wav-root", str(self.wav_dir),
            "--crop-seconds", WARM_CROP,
        ]

    def run_pass(self, s):
        return [
            s.call(self._score_argv(self.scores)),
            s.call(["evaluate", "--scores", str(self.scores), "--trials", str(self.trials_path),
                    "--out", str(self.report)]),
        ]

    def check_pass(self, s, calls):
        def report():
            cache = ref.read_svw1(self.cache)
            values = np.array(_check_scores(self.scores, self.trial_list, cache, self.wav_dir))
            labels = np.array([label for label, _, _ in self.trial_list])
            text = self.report.read_text()
            expect(calls[1].stdout == text, "evaluate stdout differs from its --out file")
            got = dict(line.split("=", 1) for line in text.splitlines())
            targets, nontargets = values[labels == 1], values[labels == 0]
            eer = ref.eer(targets, nontargets)
            dcf, dcf_raw = ref.min_dcf(targets, nontargets)
            want = {"eer": eer, "eer_pct": round(eer * 100.0, 4), "min_dcf": dcf, "min_dcf_raw": dcf_raw}
            for key, value in want.items():
                expect(abs(float(got[key]) - value) <= REPORT_TOL, f"report {key}={got[key]}, reference {value!r}")
            expect(int(got["n_target"]) == targets.size, f"n_target={got['n_target']}")
            expect(int(got["n_nontarget"]) == nontargets.size, f"n_nontarget={got['n_nontarget']}")

        s.check("score file and report", report)
        s.check("cache file unchanged", lambda: expect(_digest(self.cache) == self.cache_digest, "cache changed"))

    def digest(self):
        return _digest(self.scores, self.report)


# -------------------------------------------------------------- train-prep

CLEAN_SECONDS = 4.0
RIR_SECONDS = 0.3
AUGMENT_SEED = "1"  # fixed, so the number of mixed recordings is the same for every workload seed
# SNR range each additive kind is documented to draw from, in dB
SNR_RANGES = {"music": (5.0, 15.0), "noise": (0.0, 15.0)}
DEMO = {"--speakers": 12, "--utts": 6, "--dim": 128, "--trials": 120, "--epochs": 25}
DEMO_LOSSES = ("aamsoftmax", "ap+softmax")


class TrainPrep(Job):
    """`svkit augment` for all four kinds over a generated catalog, then
    `svkit train-demo` for one margin loss and ap+softmax. Its trials are
    the held-out trials train-demo scores after every epoch and at the end."""

    def __init__(self, root: Path, seed: int, s: Session):
        rng = np.random.default_rng([seed, 4])
        root.mkdir(parents=True)
        self.clean = root / "clean.wav"
        write_wav(self.clean, utterance(rng, voice(rng), CLEAN_SECONDS))
        self.catalog = root / "catalog"
        makers = {
            "speech": (5, lambda: utterance(rng, voice(rng), 3.0)),
            "music": (3, lambda: music(rng, 5.0)),
            "noise": (3, lambda: noise(rng, 5.0)),
            "rir": (3, lambda: impulse_response(rng, RIR_SECONDS)),
        }
        for kind, (count, make) in makers.items():
            (self.catalog / kind).mkdir(parents=True)
            for i in range(count):
                write_wav(self.catalog / kind / f"{kind}{i}.wav", make())
        self.kinds = tuple(makers)
        self.outputs = {kind: root / f"augmented_{kind}.wav" for kind in self.kinds}
        self.histories = {loss: root / f"history_{loss.replace('+', '_')}.csv" for loss in DEMO_LOSSES}
        self.seed = str(seed)
        self.audio_seconds = CLEAN_SECONDS * len(self.kinds)
        self.trials = len(DEMO_LOSSES) * (DEMO["--epochs"] + 1) * DEMO["--trials"]
        self.stdouts: list[str] = []

    def run_pass(self, s):
        calls = [
            s.call(["augment", "--in", str(self.clean), "--out", str(self.outputs[kind]), "--kind", kind,
                    "--catalog", str(self.catalog), "--seed", AUGMENT_SEED])
            for kind in self.kinds
        ]
        demo_flags = [str(x) for kv in DEMO.items() for x in kv]
        for loss in DEMO_LOSSES:
            calls.append(s.call(["train-demo", "--loss", loss, *demo_flags, "--seed", self.seed,
                                 "--history", str(self.histories[loss])]))
        self.stdouts = [c.stdout for c in calls]
        return calls

    def check_pass(self, s, calls):
        clean = ref.read_wav(self.clean)
        for kind in self.kinds:
            def augmented(kind=kind):
                out = ref.read_wav(self.outputs[kind])
                expect(out.size == clean.size, f"{kind}: {out.size} samples for {clean.size}")
                expect(not np.array_equal(out, clean), f"{kind}: output equals input")
                if kind in SNR_RANGES:
                    snr = 10 * math.log10(np.mean(clean**2) / np.mean((out - clean) ** 2))
                    low, high = SNR_RANGES[kind]
                    expect(low - 0.5 <= snr <= high + 0.5, f"{kind}: SNR {snr:.2f} dB outside [{low}, {high}]")

            s.check(f"augment {kind}", augmented)
        for loss, call in zip(DEMO_LOSSES, calls[len(self.kinds):]):
            def demo(loss=loss, call=call):
                printed = dict(line.split("=", 1) for line in call.stdout.splitlines())
                for key in ("final_loss", "heldout_eer", "heldout_min_dcf"):
                    expect(math.isfinite(float(printed[key])), f"{loss}: {key}={printed[key]}")
                expect(0.0 <= float(printed["heldout_eer"]) <= 1.0, f"{loss}: heldout_eer={printed['heldout_eer']}")
                rows = self.histories[loss].read_text().splitlines()
                expect(len(rows) == DEMO["--epochs"] + 1, f"{loss}: {len(rows)} history lines")

            s.check(f"train-demo {loss}", demo)

    def digest(self):
        return _digest(*self.outputs.values(), *self.histories.values(), *self.stdouts)


WORKLOADS = {
    "embed-h-long": EmbedHLong,
    "score-cold-q": ScoreColdQ,
    "score-warm": ScoreWarm,
    "train-prep": TrainPrep,
}
