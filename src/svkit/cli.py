"""Command-line interface for the speaker-verification toolkit.

Subcommands cover the batch pipeline end to end: featurize, augment,
init, embed, score, evaluate, train-demo, info. Exit codes: 0 success,
1 usage error (bad flags/arguments), 2 data error (unreadable files,
malformed content, invalid values). All randomness is controlled by
--seed, so every subcommand is idempotent: identical inputs and seed
give bit-identical outputs. Trial files reference utterances by path;
the embedding cache is keyed by canonicalized path, an entry is reused
only while the WAV's content is unchanged, and the whole cache is
discarded when it was built with other weights, crop settings, crops per
trunk call or OpenBLAS build. `svkit embed` and `svkit score` embed
through one path, which loads the weights, then checks every WAV header,
then runs crops.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import augment as aug
from .audio import SAMPLE_RATE, crop_segment, open_wav, read_wav, sample_count, write_wav
from .containers import load_features, load_tensors, save_features, save_tensors
from .features import FeatureParams, extract_features, log_mel_spectrogram, preemphasize
from .losses import LOSS_NAMES, MARGIN_LIMITS, MarginParams
from .metrics import (
    DCFParams,
    ScoreSet,
    evaluate,
    read_scores,
    read_trials,
    write_scores,
)
from .network import EMBED_DIM, VARIANTS, FoldedWeights, init_weights, parameter_count
from .optim import WEIGHT_DECAY, DivergenceError, Schedule, make_corpus, pair_pools, train_demo
from .scoring import (
    CROP_SECONDS,
    N_CROPS,
    Embedder,
    crops_per_call,
    embed_utterances,
    network_embedder,
    openblas_build,
    score_trials,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _checked(kind, rule: str, test):
    """A type= converter: the flag's text as a `kind` for which test(value)
    holds. argparse reports a rejection as a usage error naming the flag."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:  # the message argparse gives for a plain int or float
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return convert


def _at_least(minimum: int):
    return _checked(int, f"at least {minimum}", lambda value: value >= minimum)


def _crop_seconds(samples: int):
    """A --crop-seconds converter: a duration of at least `samples` samples (sample_count)."""

    def long_enough(seconds: float) -> bool:
        try:
            return sample_count(seconds) >= samples
        except ValueError:
            return False

    rule = f"a duration of at least {samples} sample{'s' * (samples > 1)} at {SAMPLE_RATE} Hz, in a count an intp holds"
    return _checked(float, rule, long_enough)


_finite = _checked(float, "finite", math.isfinite)
_positive = _checked(float, "finite and positive", lambda value: math.isfinite(value) and value > 0)
_non_negative = _checked(float, "finite and non-negative", lambda value: math.isfinite(value) and value >= 0)
# augment draws a count in [min, max] with Generator.integers, which holds int64 bounds.
_count = _checked(int, f"from 1 to {np.iinfo(np.int64).max}", lambda value: 1 <= value <= np.iinfo(np.int64).max)


def _atomic_save(path: str | Path, save) -> None:
    # Single atomic publish: save() writes a uniquely named temp file beside
    # the target, with the mode a plain open() gives, then it is renamed over
    # the target. A failed save leaves neither a partial target nor a temp file.
    # The temp name's length does not grow with the target's, so any name a
    # plain open() can write can be published.
    path = Path(path)
    tmp = path.with_name(f".svkit.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    try:
        save(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process: parse_args keeps no
    state between calls, and every default is immutable."""
    features, dcf, schedule, margin = FeatureParams(), DCFParams(), Schedule(), MarginParams()
    parser = _Parser(prog="svkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="convert a WAV file to a feature file")
    p.set_defaults(run=_cmd_featurize)
    p.add_argument("--in", dest="input", required=True, help="input WAV (16-bit PCM mono 16 kHz)")
    p.add_argument("--out", required=True, help="output feature file (SVF1)")
    p.add_argument("--crop-seconds", type=float, help="crop to this many seconds before analysis")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--offset", type=_at_least(0), help="fixed crop start in samples")
    group.add_argument("--seed", type=_at_least(0), help="seed for a random crop start")
    p.add_argument("--preemphasis", type=float, default=features.preemphasis)
    p.add_argument("--win-ms", type=float, default=features.win_ms)
    p.add_argument("--hop-ms", type=float, default=features.hop_ms)
    p.add_argument("--fft-size", type=int, default=features.fft_size)
    p.add_argument("--n-mels", type=int, default=features.n_mels)
    p.add_argument("--no-normalize", action="store_true", help="skip instance normalization")

    p = sub.add_parser("augment", help="add noise or reverberation to a WAV file")
    p.set_defaults(run=_cmd_augment)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=aug.AUGMENT_KINDS)
    p.add_argument("--catalog", required=True, help="directory with speech/ music/ noise/ rir/ subdirs")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--count-min", type=_count, help="min recordings to mix (additive kinds)")
    p.add_argument("--count-max", type=_count, help="max recordings to mix (additive kinds)")
    p.add_argument("--snr-min", type=_finite, help="min SNR in dB (additive kinds)")
    p.add_argument("--snr-max", type=_finite, help="max SNR in dB (additive kinds)")
    p.add_argument("--gain-min", type=_finite, default=aug.DEFAULT_RIR_GAIN_DB[0], help="min RIR gain in dB")
    p.add_argument("--gain-max", type=_finite, default=aug.DEFAULT_RIR_GAIN_DB[1], help="max RIR gain in dB")

    p = sub.add_parser("init", help="write randomly initialized trunk weights")
    p.set_defaults(run=_cmd_init)
    p.add_argument("--variant", required=True, choices=tuple(VARIANTS))
    p.add_argument("--out", required=True, help="output weights file (SVW1)")
    p.add_argument("--seed", type=_at_least(0), default=0)

    p = sub.add_parser("embed", help="embed utterance crops and store them")
    p.set_defaults(run=_cmd_embed)
    p.add_argument("wavs", nargs="+", help="input WAV files")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="output embedding file (SVW1)")
    p.add_argument("--crop-seconds", type=_crop_seconds(features.hop_length), default=CROP_SECONDS)
    p.add_argument("--n-crops", type=_at_least(1), default=N_CROPS)

    p = sub.add_parser("score", help="score every trial in a trial file")
    p.set_defaults(run=_cmd_score)
    p.add_argument("--trials", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="output score file")
    p.add_argument("--cache", help="embedding cache file (SVW1), read and updated")
    p.add_argument("--wav-root", default=".", help="base directory for relative trial paths")
    p.add_argument("--crop-seconds", type=_crop_seconds(features.hop_length), default=CROP_SECONDS)
    p.add_argument("--n-crops", type=_at_least(1), default=N_CROPS)

    p = sub.add_parser("evaluate", help="compute EER and MinDCF from scores")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--c-miss", type=float, default=dcf.c_miss)
    p.add_argument("--c-fa", type=float, default=dcf.c_fa)
    p.add_argument("--p-target", type=float, default=dcf.p_target)
    p.add_argument("--no-normalize", action="store_true", help="report raw MinDCF as min_dcf")
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("train-demo", help="free-embedding training demo on a synthetic corpus")
    p.set_defaults(run=_cmd_train_demo)
    p.add_argument("--loss", default="ap+softmax", choices=LOSS_NAMES)
    p.add_argument("--speakers", type=_at_least(2), default=20)
    p.add_argument("--utts", type=_at_least(2), default=10)
    p.add_argument("--dim", type=_at_least(1), default=512)
    p.add_argument("--trials", type=_at_least(2), default=400)
    p.add_argument("--epochs", type=_at_least(0), default=200)
    p.add_argument("--lr0", type=_positive, default=0.1)
    p.add_argument("--decay-factor", type=float, default=schedule.decay_factor)
    p.add_argument("--decay-every", type=int, default=schedule.decay_every)
    p.add_argument("--weight-decay", type=_non_negative, default=WEIGHT_DECAY)
    p.add_argument("--margin", type=_non_negative, default=margin.margin)
    p.add_argument("--scale", type=_positive, default=margin.scale)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--history", help="write per-epoch CSV (epoch,lr,loss,heldout_eer)")

    p = sub.add_parser("info", help="describe a weights or feature file")
    p.set_defaults(run=_cmd_info)
    p.add_argument("--weights")
    p.add_argument("--features")

    return parser


def _flags(params, args, *names, **values):
    """params, a dataclass of flag values, built from the flags `names`
    (argparse dests, each a field of params) and the fields in values:
    a value it rejects is a usage error naming the flag. That is the first
    flag params rejects with every other field at its default, else every
    flag off its default, which it rejects only together. Commands build
    these before they read any file."""
    flags = {name: getattr(args, name) for name in names}
    try:
        return params(**flags, **values)
    except ValueError as exc:
        error = exc
    for name, value in flags.items():
        try:
            params(**{name: value})
        except ValueError as exc:
            culprits, error = [name], exc
            break
    else:
        default = params()
        culprits = [name for name, value in flags.items() if value != getattr(default, name)]
    named = ", ".join(f"--{name.replace('_', '-')}" for name in culprits)
    raise UsageError(f"argument{'s' * (len(culprits) > 1)} {named}: {error}") from None


def _cmd_featurize(args) -> int:
    params = _flags(FeatureParams, args, "preemphasis", "win_ms", "hop_ms", "fft_size", "n_mels")
    if args.crop_seconds is None and (args.offset is not None or args.seed is not None):
        raise UsageError("--offset/--seed require --crop-seconds")
    if args.crop_seconds is None:
        wave = read_wav(args.input)
    else:  # only the crop's window is read
        try:  # a crop holds at least one hop, which --hop-ms sets; the converter takes the parsed float too
            _crop_seconds(params.hop_length)(args.crop_seconds)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"argument --crop-seconds: {exc}") from None
        offset = 0 if args.offset is None and args.seed is None else args.offset
        wave = crop_segment(open_wav(args.input), args.crop_seconds, offset=offset, seed=args.seed)
    try:  # the audio may be too short for its frames
        if args.no_normalize:
            fmap = log_mel_spectrogram(preemphasize(wave, params.preemphasis), params)
        else:
            fmap = extract_features(wave, params)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    _atomic_save(args.out, lambda p: save_features(p, fmap.values))
    return 0


def _check_augment_flags(args) -> dict:
    """The ranges the kind draws from, by flag stem, with the kind's
    defaults for bounds not given; in each a min at most its max, and a
    dB range whose ends give finite positive ratios, as augment converts
    them (the ratio is monotonic in dB, so the ends decide)."""
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
    for name, ratio in {"snr": aug.snr_ratio, "gain": aug.gain_ratio}.items():
        for end, db in zip(("min", "max"), ranges.get(name, ())):
            try:
                ratio(db)
            except ValueError as exc:
                raise UsageError(f"argument --{name}-{end}: {exc}") from None
    return ranges


def _cmd_augment(args) -> int:
    ranges = _check_augment_flags(args)
    wave = read_wav(args.input)
    catalog = aug.scan_catalogs(args.catalog).get(args.kind)
    if catalog is None:
        raise ValueError(f"no catalog available for kind {args.kind!r}")
    if args.kind == "rir":
        out = aug.augment_rir(wave, catalog, args.seed, ranges["gain"])
    else:
        spec = aug.AugmentSpec(args.kind, args.seed, ranges["count"], ranges["snr"])
        try:
            out = aug.augment_additive(wave, catalog, spec)
        except aug.SilentSignalError as exc:
            raise ValueError(f"{args.input}: {exc}") from None
    _atomic_save(args.out, lambda p: write_wav(p, out))
    return 0


def _cmd_init(args) -> int:
    tensors = init_weights(VARIANTS[args.variant], seed=args.seed)
    _atomic_save(args.out, lambda p: save_tensors(p, tensors))
    print(f"variant={args.variant}")
    print(f"parameters={parameter_count(tensors)}")
    return 0


def _canonical(paths: Iterable[str], root: str = ".") -> list[str]:
    """Path(root, path).resolve().as_posix() of each path, with each distinct
    directory resolved once: only a final component that is a symlink, `.`,
    `..` or empty needs a path's own resolve()."""
    dirs: dict[str, str] = {}
    keys = []
    for path in paths:
        head, name = os.path.split(os.path.join(root, path))
        if head not in dirs:
            dirs[head] = Path(head).resolve().as_posix()
        key = os.path.join(dirs[head], name)
        if name in ("", ".", "..") or os.path.islink(key):
            key = Path(root, path).resolve().as_posix()
        keys.append(key)
    return keys


def _load_embedder(weights_path: str) -> Embedder:
    # Each kernel is folded in the array it was read into, so the weight
    # set is held once.
    return network_embedder(FoldedWeights.load(weights_path))


def _sha256(path: str | Path) -> str:
    # One small buffer, read into: reading fresh 1 MB blocks took ~16% longer
    # on a 5.7 MB weights file.
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buffer):
            digest.update(view[:n])
    return digest.hexdigest()


def _cache_record(weights_path: str, crop_seconds: float, n_crops: int) -> str:
    """Name of the cache's metadata record: what its entries were built
    with, the crops per trunk call and the OpenBLAS kernel that ran their
    GEMMs included. One crop per call, which gives the rows of caches
    written before crops shared a call, is left unnamed, so those stay
    current and the rest are discarded."""
    digest, blas = _sha256(weights_path), openblas_build()
    crops = f"crop-seconds={crop_seconds!r} n-crops={n_crops}"
    if (per_call := crops_per_call(crop_seconds)) > 1:
        crops += f" crops-per-call={per_call}"
    return f"#svkit-cache weights-sha256={digest} {crops} openblas={blas}"


def _wav_record(key: str) -> str:
    """Name of an entry's metadata record: the content of the WAV it was
    embedded from. The path comes last, since it may contain spaces."""
    return f"#svkit-wav sha256={_sha256(key)} {key}"


def _load_cache(
    path: str | None, record: str | None, n_crops: int
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Cached entries and their WAV records, by key. There are none when
    the file is missing or its first metadata record differs from `record`
    (other weights, crop settings or OpenBLAS build, or no record); an
    entry without a WAV record is left out. An entry that is not a
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


def _embedded(paths: dict[str, str], args) -> Iterator[tuple[str, np.ndarray]]:
    """(key, float32 rows) of each key, in order, embedded from the path it maps to. The weights
    are loaded first, then every header is checked (open_wav) before the first crop runs. An
    error of a WAV's crops starts with its path (WavFile.where), as its read errors do."""
    embedder = _load_embedder(args.weights)
    embedded = embed_utterances([open_wav(p) for p in paths.values()], embedder, args.crop_seconds, args.n_crops)
    for key, rows in zip(paths, embedded):
        yield key, rows.astype(np.float32)


def _cmd_embed(args) -> int:
    paths: dict[str, str] = {}  # each file once, read under its first spelling
    for key, wav in zip(_canonical(args.wavs), args.wavs):
        paths.setdefault(key, wav)
    out = dict(_embedded(paths, args))
    _atomic_save(args.out, lambda p: save_tensors(p, out))
    return 0


def _cmd_score(args) -> int:
    trials = read_trials(args.trials)
    # The record hashes the whole weights file, so it is built only for a cache.
    record = _cache_record(args.weights, args.crop_seconds, args.n_crops) if args.cache else None
    cache, wavs = _load_cache(args.cache, record, args.n_crops)
    keys = _canonical(trials.ids, args.wav_root)
    # Each WAV record is taken before the WAV is read, so a rewrite during
    # the read makes the entry stale at the next run rather than wrongly current.
    current = {key: _wav_record(key) if args.cache else None for key in dict.fromkeys(keys)}
    missing = [key for key, wav in current.items() if not (key in cache and wavs.get(key) == wav)]
    if missing:
        cache.update(_embedded(dict(zip(missing, missing)), args))
    scores = score_trials([cache[key] for key in keys], trials.enroll, trials.test)
    _atomic_save(args.out, lambda p: write_scores(p, trials, scores))
    if args.cache and missing:
        wavs |= current
        records = (record, *(wavs[key] for key in cache))
        _atomic_save(args.cache, lambda p: save_tensors(p, cache, records))
    return 0


def _cmd_evaluate(args) -> int:
    params = _flags(DCFParams, args, "c_miss", "c_fa", "p_target", normalize=not args.no_normalize)
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
    schedule = _flags(Schedule, args, "decay_factor", "decay_every")
    margin = _flags(MarginParams, args, "margin", "scale")
    limit = MARGIN_LIMITS.get(args.loss, math.inf)
    if args.margin >= limit:
        raise UsageError(f"argument --margin: must be below {limit} for --loss {args.loss}, got {args.margin}")
    # The train and held-out lists each take trials // 2 distinct pairs of each label.
    need = 2 * (args.trials // 2)
    targets, nontargets = pair_pools(args.speakers, args.utts)
    if need > min(targets, nontargets):
        raise UsageError(
            f"--trials {args.trials} needs {need} distinct pairs of each label; --speakers {args.speakers} "
            f"--utts {args.utts} give {targets} target and {nontargets} nontarget pairs"
        )
    corpus = make_corpus(args.speakers, args.utts, args.dim, args.trials, args.seed)
    result = train_demo(
        corpus,
        loss_name=args.loss,
        epochs=args.epochs,
        lr0=args.lr0,
        schedule=schedule,
        weight_decay=args.weight_decay,
        margin=margin,
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
    if args.weights is not None:
        # The check embed makes: a weight set that does not fold is an error.
        # The folded set is released before the counts read the file again.
        variant = FoldedWeights.load(args.weights).config.variant
        tensors = load_tensors(args.weights)
        count = parameter_count(tensors)
        print(f"variant={variant}")
        print(f"tensors={len(tensors)}")
        print(f"parameters={count}")
        print(f"parameters_millions={count / 1e6:.3f}")
    else:
        values = load_features(args.features)
        print(f"frames={values.shape[0]}")
        print(f"mels={values.shape[1]}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, DivergenceError) as exc:
        # numpy's MemoryError names the allocation; Python's own may be bare.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
