"""Command-line interface for the speaker-verification toolkit.

Subcommands cover the batch pipeline end to end: featurize, augment,
init, embed, score, evaluate, train-demo, info. Exit codes: 0 success,
1 usage error (bad flags/arguments), 2 data error (unreadable files,
malformed content, invalid values). All randomness is controlled by
--seed, so every subcommand is idempotent: identical inputs and seed
give bit-identical outputs. Trial files reference utterances by path;
the embedding cache is keyed by canonicalized path, an entry is reused
only while the WAV's content is unchanged, and the whole cache is
discarded when it was built with other weights or crop settings.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from .audio import SAMPLE_RATE, crop_segment, read_wav, write_wav
from .containers import load_features, load_tensors, save_features, save_tensors
from .features import FeatureParams, extract_features, log_mel_spectrogram, preemphasize
from .losses import LOSS_NAMES, APParams, MarginParams
from .metrics import (
    DCFParams,
    ScoreSet,
    evaluate,
    read_scores,
    read_trials,
    write_scores,
)
from .network import EMBED_DIM, VARIANTS, FoldedWeights, init_weights, parameter_count
from .optim import WEIGHT_DECAY, DivergenceError, Schedule, make_corpus, train_demo
from .scoring import (
    CROP_SECONDS,
    N_CROPS,
    Embedder,
    embed_utterances,
    network_embedder,
    score_trials,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _atomic_save(path: str | Path, save) -> None:
    # Single atomic publish: save() writes a uniquely named temp file beside
    # the target, with the mode a plain open() gives, then it is renamed over
    # the target. A failed save leaves neither a partial target nor a temp file.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    try:
        save(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _build_parser() -> _Parser:
    features, dcf, schedule, margin = FeatureParams(), DCFParams(), Schedule(), MarginParams()
    parser = _Parser(prog="svkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="convert a WAV file to a feature file")
    p.add_argument("--in", dest="input", required=True, help="input WAV (16-bit PCM mono 16 kHz)")
    p.add_argument("--out", required=True, help="output feature file (SVF1)")
    p.add_argument("--crop-seconds", type=float, help="crop to this many seconds before analysis")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--offset", type=int, help="fixed crop start in samples")
    group.add_argument("--seed", type=int, help="seed for a random crop start")
    p.add_argument("--preemphasis", type=float, default=features.preemphasis)
    p.add_argument("--win-ms", type=float, default=features.win_ms)
    p.add_argument("--hop-ms", type=float, default=features.hop_ms)
    p.add_argument("--fft-size", type=int, default=features.fft_size)
    p.add_argument("--n-mels", type=int, default=features.n_mels)
    p.add_argument("--no-normalize", action="store_true", help="skip instance normalization")

    p = sub.add_parser("augment", help="add noise or reverberation to a WAV file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=aug.AUGMENT_KINDS)
    p.add_argument("--catalog", required=True, help="directory with speech/ music/ noise/ rir/ subdirs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count-min", type=int, help="min recordings to mix (additive kinds)")
    p.add_argument("--count-max", type=int, help="max recordings to mix (additive kinds)")
    p.add_argument("--snr-min", type=float, help="min SNR in dB (additive kinds)")
    p.add_argument("--snr-max", type=float, help="max SNR in dB (additive kinds)")
    p.add_argument("--gain-min", type=float, default=aug.DEFAULT_RIR_GAIN_DB[0], help="min RIR gain in dB")
    p.add_argument("--gain-max", type=float, default=aug.DEFAULT_RIR_GAIN_DB[1], help="max RIR gain in dB")

    p = sub.add_parser("init", help="write randomly initialized trunk weights")
    p.add_argument("--variant", required=True, choices=tuple(VARIANTS))
    p.add_argument("--out", required=True, help="output weights file (SVW1)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("embed", help="embed utterance crops and store them")
    p.add_argument("wavs", nargs="+", help="input WAV files")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="output embedding file (SVW1)")
    p.add_argument("--crop-seconds", type=float, default=CROP_SECONDS)
    p.add_argument("--n-crops", type=int, default=N_CROPS)

    p = sub.add_parser("score", help="score every trial in a trial file")
    p.add_argument("--trials", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="output score file")
    p.add_argument("--cache", help="embedding cache file (SVW1), read and updated")
    p.add_argument("--wav-root", default=".", help="base directory for relative trial paths")
    p.add_argument("--crop-seconds", type=float, default=CROP_SECONDS)
    p.add_argument("--n-crops", type=int, default=N_CROPS)

    p = sub.add_parser("evaluate", help="compute EER and MinDCF from scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--c-miss", type=float, default=dcf.c_miss)
    p.add_argument("--c-fa", type=float, default=dcf.c_fa)
    p.add_argument("--p-target", type=float, default=dcf.p_target)
    p.add_argument("--no-normalize", action="store_true", help="report raw MinDCF as min_dcf")
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("train-demo", help="free-embedding training demo on a synthetic corpus")
    p.add_argument("--loss", default="ap+softmax", choices=LOSS_NAMES)
    p.add_argument("--speakers", type=int, default=20)
    p.add_argument("--utts", type=int, default=10)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr0", type=float, default=0.1)
    p.add_argument("--decay-factor", type=float, default=schedule.decay_factor)
    p.add_argument("--decay-every", type=int, default=schedule.decay_every)
    p.add_argument("--weight-decay", type=float, default=WEIGHT_DECAY)
    p.add_argument("--margin", type=float, default=margin.margin)
    p.add_argument("--scale", type=float, default=margin.scale)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", help="write per-epoch CSV (epoch,lr,loss,heldout_eer)")

    p = sub.add_parser("info", help="describe a weights or feature file")
    p.add_argument("--weights")
    p.add_argument("--features")

    return parser


def _flags(params, *values):
    """params(*values), built from flag values alone, such as a dataclass
    of them: a value it rejects is a usage error. Commands build these
    before they read any file."""
    try:
        return params(*values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_at_least(args, **minimums) -> None:
    """Each named flag that has a value is at least its minimum."""
    for name, minimum in minimums.items():
        value = getattr(args, name)
        if value is not None and value < minimum:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {minimum}, got {value}")


def _check_finite(args, *names) -> None:
    """Each named flag that has a value is finite."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _check_crop_flags(args) -> None:
    """--crop-seconds, which featurize may leave out, is finite and rounds
    to at least one sample."""
    if args.crop_seconds is not None and not (
        math.isfinite(args.crop_seconds) and round(args.crop_seconds * SAMPLE_RATE) >= 1
    ):
        raise UsageError("--crop-seconds must be finite and round to at least one sample")


def _cmd_featurize(args) -> int:
    params = _flags(FeatureParams, args.preemphasis, args.win_ms, args.hop_ms, args.fft_size, args.n_mels)
    _check_crop_flags(args)
    if args.crop_seconds is None and (args.offset is not None or args.seed is not None):
        raise UsageError("--offset/--seed require --crop-seconds")
    _check_at_least(args, offset=0)
    wave = read_wav(args.input)
    if args.crop_seconds is not None:
        offset = 0 if args.offset is None and args.seed is None else args.offset
        wave = crop_segment(wave, args.crop_seconds, offset=offset, seed=args.seed)
    try:  # the audio may be too short for its frames
        if args.no_normalize:
            fmap = log_mel_spectrogram(preemphasize(wave, params.preemphasis), params)
        else:
            fmap = extract_features(wave, params)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    _atomic_save(args.out, lambda p: save_features(p, fmap.values))
    return 0


def _check_augment_flags(args) -> None:
    """Counts from 1 and finite SNR and gain bounds; then, in each range
    the kind draws from, with the kind's defaults for bounds not given, a
    min at most its max."""
    _check_at_least(args, count_min=1, count_max=1)
    _check_finite(args, "snr_min", "snr_max", "gain_min", "gain_max")
    if args.kind == "rir":
        ranges = {"gain": (args.gain_min, args.gain_max)}
    else:
        given = {"count": (args.count_min, args.count_max), "snr": (args.snr_min, args.snr_max)}
        ranges = {
            name: tuple(d if g is None else g for g, d in zip(given[name], defaults))
            for name, defaults in zip(given, aug.ADDITIVE_DEFAULTS[args.kind])
        }
    for name, (low, high) in ranges.items():
        if low > high:
            raise UsageError(f"--{name}-min ({low}) must not exceed --{name}-max ({high})")


def _cmd_augment(args) -> int:
    _check_augment_flags(args)
    wave = read_wav(args.input)
    catalogs = aug.scan_catalogs(args.catalog)
    out = aug.apply_augmentation(
        wave, args.kind, catalogs, args.seed, rir_gain_db_range=(args.gain_min, args.gain_max),
        count_range=(args.count_min, args.count_max), snr_range_db=(args.snr_min, args.snr_max),
    )
    _atomic_save(args.out, lambda p: write_wav(p, out))
    return 0


def _cmd_init(args) -> int:
    tensors = init_weights(VARIANTS[args.variant], seed=args.seed)
    _atomic_save(args.out, lambda p: save_tensors(p, tensors))
    print(f"variant={args.variant}")
    print(f"parameters={parameter_count(tensors)}")
    return 0


def _canonical(path: str, root: str = ".") -> str:
    p = Path(path)
    if not p.is_absolute():
        p = Path(root) / p
    return p.resolve().as_posix()


def _load_embedder(weights_path: str) -> Embedder:
    # Each kernel is folded in the array it was read into, so the weight
    # set is held once.
    return network_embedder(FoldedWeights.load(weights_path))


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _cache_record(weights_path: str, crop_seconds: float, n_crops: int) -> str:
    """Name of the cache's metadata record: what its entries were built with."""
    digest = _sha256(weights_path)
    return f"#svkit-cache weights-sha256={digest} crop-seconds={crop_seconds!r} n-crops={n_crops}"


def _wav_record(key: str) -> str:
    """Name of an entry's metadata record: the content of the WAV it was
    embedded from. The path comes last, since it may contain spaces."""
    return f"#svkit-wav sha256={_sha256(key)} {key}"


def _load_cache(
    path: str | None, record: str | None, n_crops: int
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Cached entries and their WAV records, by key. There are none when
    the file is missing or its first metadata record differs from `record`
    (other weights, crop settings, or a cache written without a record);
    an entry without a WAV record is left out. An entry that is not a
    finite (n_crops, EMBED_DIM) matrix with non-zero rows is an error."""
    if not (path and Path(path).exists()):
        return {}, {}
    records: list[str] = []
    entries = load_tensors(path, records)
    if records[:1] != [record]:
        return {}, {}
    wavs = {r.split(" ", 2)[-1]: r for r in records[1:]}
    cache = {key: emb for key, emb in entries.items() if key in wavs}
    for key, emb in cache.items():
        if emb.shape != (n_crops, EMBED_DIM):
            problem = f"shape {emb.shape}, not {(n_crops, EMBED_DIM)}"
        elif not np.isfinite(emb).all():
            problem = "non-finite values"
        elif not emb.any(axis=1).all():
            problem = "zero-norm embedding"
        else:
            continue
        raise ValueError(f"{path}: cache entry {key}: {problem}")
    return cache, wavs


def _cmd_embed(args) -> int:
    _check_crop_flags(args)
    _check_at_least(args, n_crops=1)
    embedder = _load_embedder(args.weights)
    paths: dict[str, str] = {}  # each file once, read under its first spelling
    for wav in args.wavs:
        paths.setdefault(_canonical(wav), wav)
    loads = [functools.partial(read_wav, wav) for wav in paths.values()]
    embedded = embed_utterances(loads, embedder, args.crop_seconds, args.n_crops)
    out = {key: emb.astype(np.float32) for key, emb in zip(paths, embedded)}
    _atomic_save(args.out, lambda p: save_tensors(p, out))
    return 0


def _cmd_score(args) -> int:
    _check_crop_flags(args)
    _check_at_least(args, n_crops=1)
    trials = read_trials(args.trials)
    # The record hashes the whole weights file, so it is built only for a cache.
    record = _cache_record(args.weights, args.crop_seconds, args.n_crops) if args.cache else None
    cache, wavs = _load_cache(args.cache, record, args.n_crops)
    keys = [_canonical(utt_id, args.wav_root) for utt_id in trials.ids]
    # Each WAV record is taken before the WAV is read, so a rewrite during
    # the read makes the entry stale at the next run rather than wrongly current.
    current = {key: _wav_record(key) if args.cache else None for key in keys}
    missing = [key for key, wav in current.items() if not (key in cache and wavs.get(key) == wav)]
    if missing:
        embedder = _load_embedder(args.weights)
        loads = [functools.partial(read_wav, key) for key in missing]
        for key, emb in zip(missing, embed_utterances(loads, embedder, args.crop_seconds, args.n_crops)):
            cache[key] = emb.astype(np.float32)
            wavs[key] = current[key]
    scores = score_trials([cache[key] for key in keys], trials.enroll, trials.test)
    scored = [(a, b, s) for (a, b), s in zip(trials.pairs(), scores.tolist())]
    _atomic_save(args.out, lambda p: write_scores(p, scored))
    if args.cache and missing:
        records = (record, *(wavs[key] for key in cache))
        _atomic_save(args.cache, lambda p: save_tensors(p, cache, records))
    return 0


def _cmd_evaluate(args) -> int:
    params = _flags(DCFParams, args.c_miss, args.c_fa, args.p_target, not args.no_normalize)
    trials = read_trials(args.trials)
    scores = read_scores(args.scores, trials)
    try:  # a list with no target or no nontarget trials
        report = evaluate(ScoreSet(trials.labels, scores), params)
    except ValueError as exc:
        raise ValueError(f"{args.trials}: {exc}") from None
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        _atomic_save(args.out, lambda p: p.write_text(text))
    return 0


def _cmd_train_demo(args) -> int:
    schedule = _flags(Schedule, args.decay_factor, args.decay_every)
    margin = _flags(MarginParams, args.margin, args.scale)
    _check_at_least(args, speakers=2, utts=2, dim=1, trials=2, epochs=0)
    _check_finite(args, "lr0", "weight_decay")
    corpus = _flags(make_corpus, args.speakers, args.utts, args.dim, args.trials, args.seed)
    result = train_demo(
        corpus,
        loss_name=args.loss,
        epochs=args.epochs,
        lr0=args.lr0,
        schedule=schedule,
        weight_decay=args.weight_decay,
        margin=margin,
        ap=APParams(),
        seed=args.seed,
    )
    if args.history:
        _atomic_save(args.history, lambda p: p.write_text(result.history_csv()))
    if result.history:
        print(f"final_loss={result.history[-1].loss!r}")
    print(f"heldout_eer={result.heldout_eer!r}")
    print(f"heldout_min_dcf={result.heldout_min_dcf!r}")
    return 0


def _cmd_info(args) -> int:
    if (args.weights is None) == (args.features is None):
        raise UsageError("provide exactly one of --weights or --features")
    if args.weights:
        tensors = load_tensors(args.weights)
        # The check embed makes: a weight set that does not fold is an error.
        variant = FoldedWeights.fold_in_place(tensors, args.weights).config.variant
        print(f"variant={variant}")
        print(f"tensors={len(tensors)}")
        print(f"parameters={parameter_count(tensors)}")
        print(f"parameters_millions={parameter_count(tensors) / 1e6:.3f}")
    else:
        values = load_features(args.features)
        print(f"frames={values.shape[0]}")
        print(f"mels={values.shape[1]}")
    return 0


_COMMANDS = {
    "featurize": _cmd_featurize,
    "augment": _cmd_augment,
    "init": _cmd_init,
    "embed": _cmd_embed,
    "score": _cmd_score,
    "evaluate": _cmd_evaluate,
    "train-demo": _cmd_train_demo,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
