"""Trial scoring: several fixed-length crops per utterance, mean unit vectors.

Each utterance is sampled at ten 4-second crops spaced evenly from start
to end (utterances shorter than a crop are tiled first), every crop is
embedded, and a pair of utterances scores as the mean cosine similarity
over all crop pairs. That mean is the dot product of the two utterances'
mean unit crop vectors, which is how it is computed. Each mean sums its
rows in one canonical order (sorted by their bytes), so the score is
bit-for-bit independent of crop order; the elementwise product commutes,
so it is bit-exact under swapping the two utterances. A trial list
(score_trials) computes each utterance's mean once and takes the dot
products TRIAL_CHUNK trials at a time; every score has the bits
score_from_embeddings gives that one pair.

The distinct crops of every utterance a call embeds form one queue of
trunk calls. Crops of at least MIN_PARALLEL_CROP_SECONDS run one per call,
in one ordered map on one thread per usable CPU (crop_workers) with at
most two calls per thread in flight. Shorter crops run on the calling
thread, one utterance's distinct crops per call (crops_per_call at most),
so the crops of one call are read before it runs. Each crop is read as the
queue reaches its call: from a WAV, only its window. A call never holds
crops of two utterances and its size depends only on the crop length, so
an utterance's rows do not depend on the utterances around it. numpy's
OpenBLAS is held to one thread per call while the queue runs, on the pool
or on the calling thread, and restored after. numpy's GEMM, FFT and ufunc
loops release the interpreter lock, and each call is independent, so the
embeddings are bit-identical to embedding the calls one by one, whatever
the CPU count. When numpy's BLAS is not an OpenBLAS whose thread count can
be set, calls run one by one.

The embedder is injected as a callable, which maps a list of crops of one
length to their rows, so the scoring layer can run against the real
network or any substitute. The one network_embedder makes runs the front
end once over a call's crops, and forward, with one pooling, once on the
batch.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import itertools
import os
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .audio import WavFile, Waveform, sample_count
from .features import FeatureParams, batch_features
from .losses import _normalize_rows
from .network import FoldedWeights, forward

# Maps a list of B crops of one length to their (B, D) rows.
Embedder = Callable[[list[Waveform]], np.ndarray]

CROP_SECONDS = 4.0
N_CROPS = 10
# Crops shorter than this run on the calling thread, one utterance's crops
# per trunk call (crops_per_call). When they ran one per call, each took a
# few milliseconds, so handing them to another thread cost more than it
# saved (on 2 CPUs, embedding 32 utterances in 0.1 s crops took 16-56% longer
# on two threads than on one). Those are per-crop figures, measured on q-sap
# only: h-asp crops of 0.1-0.5 s ran 1.6-1.7x faster on the 2-thread pool
# than one by one, so a rule on a crop's cost (variant and frames) rather
# than its seconds would serve both.
MIN_PARALLEL_CROP_SECONDS = 1.0
# Trials whose dot products are taken at once, gathered into two reused
# (64, 512) float64 buffers of 256 KB each. The dot products of 992 trials
# over 32 ids took 1.0 ms in 32- or 64-row chunks, 1.1 ms in 128 and 1.8 ms
# in 256; of 589k trials over 4,000 ids, 0.62 s in 64, 0.70-0.76 s in 32 or
# 128, against 0.95 s for the fresh 16-row gathers this replaced (medians,
# 2-vCPU Xeon, numpy 2.4).
TRIAL_CHUNK = 64


def plan_crops(n_samples: int, crop_samples: int, n_crops: int) -> np.ndarray:
    """Start offsets of n_crops windows of crop_samples, spaced evenly
    over [0, n_samples - crop_samples]. n_samples below crop_samples is
    treated as exactly crop_samples (the caller tiles)."""
    if crop_samples < 1 or n_crops < 1:
        raise ValueError("crop_samples and n_crops must be positive")
    slack = max(n_samples - crop_samples, 0)
    k = np.arange(n_crops)
    return np.rint(k * slack / max(n_crops - 1, 1)).astype(np.intp)


def crops_per_call(crop_seconds: float) -> int:
    """Crops of crop_seconds an embedder call takes at most: one when they
    are at least MIN_PARALLEL_CROP_SECONDS, else as many as fit in the
    frames (features.FeatureParams' hop) of one CROP_SECONDS crop, which
    bounds a call's activations by those of one such crop."""
    if crop_seconds >= MIN_PARALLEL_CROP_SECONDS:
        return 1
    frames = lambda seconds: 1 + sample_count(seconds) // FeatureParams().hop_length
    return frames(CROP_SECONDS) // frames(crop_seconds)


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None], str] | None:
    """(get, set) of the thread count numpy's bundled OpenBLAS gives one
    call, and its build as `<version>/<core>`, the core being the kernel
    it runs (which OPENBLAS_CORETYPE may choose); None when numpy links
    no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            names = ("get_num_threads", "set_num_threads", "get_config", "get_corename")
            get, set_, config, core = (getattr(handle, f"{prefix}_{name}{suffix}", None) for name in names)
            if None not in (get, set_, config, core):
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                core.argtypes, core.restype = [], ctypes.c_char_p
                version = config().decode().split()[1]  # "OpenBLAS 0.3.31.188.0 USE64BITINT ..."
                return get, set_, f"{version}/{core().decode()}"
    return None


def openblas_build() -> str:
    """numpy's OpenBLAS as `<version>/<core>`, such as `0.3.31.188.0/SkylakeX`,
    or `none`: GEMMs on another kernel may sum in another order."""
    blas = _openblas()
    return "none" if blas is None else blas[2]


@functools.cache
def crop_workers() -> int:
    """Crops embedded at once: the usable CPUs, each crop's BLAS calls on
    one thread. 1 when numpy's BLAS thread count cannot be set: crops then
    run one by one, each BLAS call on as many threads as BLAS uses."""
    if _openblas() is None:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Held while a crop queue runs, concurrently or one by one, so one queue at
# a time lowers and restores the BLAS thread count. Reentrant, so a thread
# may start a queue while an iterator of its own is suspended between
# utterances.
_parallel = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread per call: crops
    running concurrently would otherwise each start threads on every CPU,
    and a GEMM split over threads may sum in another order."""
    with _parallel:
        blas = _openblas()
        if blas is None:
            yield
            return
        get, set_, _ = blas
        threads = get()
        set_(1)
        try:
            yield
        finally:
            set_(threads)


@functools.cache
def _crop_pool(threads: int):
    # Kept for the life of the process: a pool made per call costs thread
    # start-up and, through new malloc arenas, resident memory. Imported
    # here because importing concurrent.futures adds ~0.8 MB of resident
    # memory to every command, also those that embed nothing.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="svkit-crop")


def _in_order(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """fn over items, results in order: builtin map on the calling thread
    for one worker, else on the crop pool with at most 2 * workers calls in
    flight. An error drawing an item is raised after the result, or the
    first error, of every item drawn before it. Closing this cancels the
    calls not yet started and waits for those running."""
    if workers == 1:
        yield from map(fn, items)
        return
    submit = _crop_pool(workers).submit
    futures: collections.deque = collections.deque()
    items = iter(items)
    try:
        while True:
            try:
                item = next(items)
            except StopIteration:
                break
            except Exception:  # the items drawn before come first
                while futures:
                    yield futures.popleft().result()
                raise
            futures.append(submit(fn, item))
            if len(futures) == 2 * workers:
                yield futures.popleft().result()
        while futures:
            yield futures.popleft().result()
    finally:  # cancel every queued call, then wait out (not raise) the running ones
        for future in [future for future in futures if not future.cancel()]:
            future.exception()


def embed_utterances(
    utterances: Iterable[Waveform | WavFile],
    embedder: Embedder,
    crop_seconds: float,
    n_crops: int,
) -> Iterator[np.ndarray]:
    """Embed the planned crops of each utterance; yields one (n_crops, D)
    matrix per utterance, in order, as soon as its crops are done.

    Crops that start at the same offset are embedded once and the row is
    repeated, so an utterance no longer than one crop costs one crop. The
    distinct crops of all the utterances form one queue of embedder calls
    in utterance order. Crops of at least MIN_PARALLEL_CROP_SECONDS run one
    per call on up to crop_workers() threads with two calls per thread in
    flight; shorter ones run on the calling thread, up to crops_per_call()
    of one utterance per call. A call's rows depend on no other utterance.
    Each utterance, a Waveform or a WavFile, is drawn from utterances when
    the queue reaches it, and each crop is read when the queue reaches its
    call, so a WavFile is never held whole. The first failure in utterance
    order is raised, whether drawing an utterance, a read, a crop or a
    non-finite row. `svkit embed` and `svkit score` check every WAV header
    (open_wav) before calling this, so a bad header anywhere in the command
    wins over any failure here. numpy's BLAS runs one thread per call until
    the iterator is exhausted or closed, so a GEMM sums in the same order
    whether calls run concurrently or one by one. Closing it early cancels
    the queued calls and waits for the running ones.
    """
    per_call = crops_per_call(crop_seconds)
    workers = crop_workers() if per_call == 1 else 1
    crop_samples = sample_count(crop_seconds)
    drawn: collections.deque = collections.deque()  # (offsets, distinct offsets) per utterance, oldest first

    def embed(crops: list[Waveform]) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite row is an error
            rows = np.asarray(embedder(crops), dtype=np.float64)
        if rows.ndim != 2 or len(rows) != len(crops):
            raise ValueError(f"embedder gave rows of shape {rows.shape} for {len(crops)} crops")
        return rows

    def calls() -> Iterator[list[Waveform]]:
        for audio in utterances:
            offsets = plan_crops(len(audio), crop_samples, n_crops).tolist()
            unique = list(dict.fromkeys(offsets))
            drawn.append((offsets, unique))
            with contextlib.closing(audio.windows(unique, crop_samples)) as windows:
                while crops := list(itertools.islice(windows, per_call)):
                    yield crops

    queue = calls()
    with _one_blas_thread(), contextlib.closing(queue), contextlib.closing(_in_order(embed, queue, workers)) as rows:
        for first in rows:
            offsets, unique = drawn.popleft()
            rest = itertools.islice(rows, -(-len(unique) // per_call) - 1)  # the utterance's other calls
            by_offset = dict(zip(unique, np.concatenate([first, *rest])))
            emb = np.stack([by_offset[o] for o in offsets])
            if not np.all(np.isfinite(emb)):
                raise ValueError("embedder produced non-finite values")
            yield emb


def crop_embeddings(
    waveform: Waveform | WavFile,
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> np.ndarray:
    """Embed each planned crop of one utterance; returns (n_crops, D), as
    embed_utterances gives it."""
    [rows] = embed_utterances([waveform], embedder, crop_seconds, n_crops)
    return rows


def mean_unit_vector(embeddings: np.ndarray) -> np.ndarray:
    """Mean of the unit-length rows of an (n_crops, D) matrix.

    Rows are summed in the order of their bytes, so the result does not
    depend on crop order.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError(f"expected an (n_crops, D) matrix, got shape {e.shape}")
    unit, _ = _normalize_rows(e, "embedding")
    order = sorted(range(len(unit)), key=lambda i: unit[i].tobytes())
    return unit[order].sum(axis=0) / len(unit)


def _dot_scores(means_a: np.ndarray, means_b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dot products of paired mean unit vectors (rows), clipped to [-1, 1].
    The elementwise products overwrite means_a."""
    return np.clip(np.sum(np.multiply(means_a, means_b, out=means_a), axis=-1), -1.0, 1.0, out=out)


def score_from_embeddings(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine over all crop pairs: the dot product of the two mean
    unit vectors. The elementwise product commutes, so swapping a and b
    gives the same bits."""
    return float(_dot_scores(mean_unit_vector(a), mean_unit_vector(b)))


def score_trials(embeddings: Sequence[np.ndarray], enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Score of each trial enroll[i], test[i] (rows of embeddings, one
    (n_crops, D) matrix per utterance id), bit for bit as score_from_embeddings
    gives it. Each utterance's mean is computed once, however many trials it
    is in. A row outside embeddings raises IndexError."""
    means = np.stack([mean_unit_vector(e) for e in embeddings]) if len(embeddings) else np.empty((0, 0))
    out = np.empty(len(enroll))
    for rows in (enroll, test):
        if rows.size and not (0 <= rows.min() and rows.max() < len(means)):
            raise IndexError(f"trial rows must lie in [0, {len(means)})")
    # Each chunk is gathered into the same two buffers; the rows are checked,
    # so take needs neither its bounds check nor the copy of `out` it makes
    # for one.
    a = np.empty((min(TRIAL_CHUNK, len(out)), means.shape[1]))
    b = np.empty_like(a)
    for start in range(0, len(out), TRIAL_CHUNK):
        n = min(TRIAL_CHUNK, len(out) - start)
        chunk = slice(start, start + n)
        np.take(means, enroll[chunk], axis=0, out=a[:n], mode="clip")
        np.take(means, test[chunk], axis=0, out=b[:n], mode="clip")
        _dot_scores(a[:n], b[:n], out=out[chunk])
    return out


def score_pair(
    wav_a: Waveform,
    wav_b: Waveform,
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> float:
    ea, eb = embed_utterances([wav_a, wav_b], embedder, crop_seconds, n_crops)
    return score_from_embeddings(ea, eb)


def network_embedder(weights: FoldedWeights) -> Embedder:
    """Embedder that runs the default feature front end once over a call's
    crops (batch_features) and forward once on the batch, on folded
    weights, which decide the variant. A raw tensor dict raises TypeError
    at the first call."""

    def embed(crops: list[Waveform]) -> np.ndarray:
        return forward(batch_features(crops), weights)

    return embed
