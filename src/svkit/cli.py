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
import os
import sys
from pathlib import Path

import numpy as np

from . import augment as aug
from .audio import crop_segment, read_wav, write_wav
from .containers import load_features, load_tensors, save_features, save_tensors
from .features import FeatureParams, extract_features
from .losses import LOSS_NAMES, APParams, MarginParams
from .metrics import (
    DCFParams,
    ScoreSet,
    evaluate,
    read_scores,
    read_trials,
    write_scores,
)
from .network import FoldedWeights, NetworkWeights, TrunkConfig, infer_config, init_weights
from .optim import WEIGHT_DECAY, Schedule, make_corpus, train_demo
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
    p.add_argument("--variant", required=True, choices=("q-sap", "h-asp"))
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


def _feature_params(args) -> FeatureParams:
    return FeatureParams(
        preemphasis=args.preemphasis,
        win_ms=args.win_ms,
        hop_ms=args.hop_ms,
        fft_size=args.fft_size,
        n_mels=args.n_mels,
    )


def _cmd_featurize(args) -> int:
    wave = read_wav(args.input)
    if args.crop_seconds is not None:
        offset = 0 if args.offset is None and args.seed is None else args.offset
        wave = crop_segment(wave, args.crop_seconds, offset=offset, seed=args.seed)
    elif args.offset is not None or args.seed is not None:
        raise UsageError("--offset/--seed require --crop-seconds")
    params = _feature_params(args)
    if args.no_normalize:
        from .features import log_mel_spectrogram, preemphasize

        fmap = log_mel_spectrogram(preemphasize(wave, params.preemphasis), params)
    else:
        fmap = extract_features(wave, params)
    _atomic_save(args.out, lambda p: save_features(p, fmap.values))
    return 0


def _cmd_augment(args) -> int:
    wave = read_wav(args.input)
    catalogs = aug.scan_catalogs(args.catalog)
    if args.kind == "rir":
        out = aug.apply_augmentation(
            wave, "rir", catalogs, args.seed, rir_gain_db_range=(args.gain_min, args.gain_max)
        )
    else:
        counts, snrs = aug.ADDITIVE_DEFAULTS[args.kind]
        counts = (
            counts[0] if args.count_min is None else args.count_min,
            counts[1] if args.count_max is None else args.count_max,
        )
        snrs = (
            snrs[0] if args.snr_min is None else args.snr_min,
            snrs[1] if args.snr_max is None else args.snr_max,
        )
        if args.kind not in catalogs:
            raise ValueError(f"no catalog available for kind {args.kind!r}")
        spec = aug.AugmentSpec(args.kind, args.seed, counts, snrs)
        out = aug.augment_additive(wave, catalogs[args.kind], spec)
    _atomic_save(args.out, lambda p: write_wav(p, out))
    return 0


def _cmd_init(args) -> int:
    cfg = TrunkConfig.from_variant(args.variant)
    weights = init_weights(cfg, seed=args.seed)
    _atomic_save(args.out, weights.save)
    print(f"variant={args.variant}")
    print(f"parameters={weights.parameter_count()}")
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


def _load_cache(path: str | None, record: str | None) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Cached entries and their WAV records, by key. There are none when
    the file is missing or its first metadata record differs from `record`
    (other weights, crop settings, or a cache written without a record);
    an entry without a WAV record is left out."""
    if not (path and Path(path).exists()):
        return {}, {}
    records: list[str] = []
    entries = load_tensors(path, records)
    if records[:1] != [record]:
        return {}, {}
    wavs = {r.split(" ", 2)[-1]: r for r in records[1:]}
    return {key: emb for key, emb in entries.items() if key in wavs}, wavs


def _cmd_embed(args) -> int:
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
    trials = read_trials(args.trials)
    # The record hashes the whole weights file, so it is built only for a cache.
    record = _cache_record(args.weights, args.crop_seconds, args.n_crops) if args.cache else None
    cache, wavs = _load_cache(args.cache, record)
    ids = list(dict.fromkeys([t.enroll for t in trials] + [t.test for t in trials]))
    keys = {utt_id: _canonical(utt_id, args.wav_root) for utt_id in ids}
    # Each WAV record is taken before the WAV is read, so a rewrite during
    # the read makes the entry stale at the next run rather than wrongly current.
    current = {key: _wav_record(key) if args.cache else None for key in keys.values()}
    missing = [key for key, wav in current.items() if not (key in cache and wavs.get(key) == wav)]
    if missing:
        embedder = _load_embedder(args.weights)
        loads = [functools.partial(read_wav, key) for key in missing]
        for key, emb in zip(missing, embed_utterances(loads, embedder, args.crop_seconds, args.n_crops)):
            cache[key] = emb.astype(np.float32)
            wavs[key] = current[key]
    by_id = {utt_id: cache[key] for utt_id, key in keys.items()}
    pairs = [(t.enroll, t.test) for t in trials]
    scored = [(a, b, s) for (a, b), s in zip(pairs, score_trials(by_id, pairs).tolist())]
    _atomic_save(args.out, lambda p: write_scores(p, scored))
    if args.cache and missing:
        records = (record, *(wavs[key] for key in cache))
        _atomic_save(args.cache, lambda p: save_tensors(p, cache, records))
    return 0


def _cmd_evaluate(args) -> int:
    trials = read_trials(args.trials)
    by_pair = read_scores(args.scores)
    params = DCFParams(args.c_miss, args.c_fa, args.p_target, not args.no_normalize)
    report = evaluate(ScoreSet.from_map(trials, by_pair), params)
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        _atomic_save(args.out, lambda p: p.write_text(text))
    return 0


def _cmd_train_demo(args) -> int:
    corpus = make_corpus(args.speakers, args.utts, args.dim, args.trials, seed=args.seed)
    result = train_demo(
        corpus,
        loss_name=args.loss,
        epochs=args.epochs,
        lr0=args.lr0,
        schedule=Schedule(args.decay_factor, args.decay_every),
        weight_decay=args.weight_decay,
        margin=MarginParams(args.margin, args.scale),
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
        weights = NetworkWeights.load(args.weights)
        try:
            variant = infer_config(weights).variant
        except (KeyError, ValueError):
            variant = "unknown"
        print(f"variant={variant}")
        print(f"tensors={len(weights)}")
        print(f"parameters={weights.parameter_count()}")
        print(f"parameters_millions={weights.parameter_count() / 1e6:.3f}")
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
