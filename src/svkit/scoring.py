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

The distinct crops of every utterance a call embeds form one queue, run
in order on one thread per usable CPU (crop_workers) with a bounded number
in flight, and the utterances are read as the queue reaches them. numpy's
OpenBLAS is held to one thread per call while the queue runs and restored
after. numpy's GEMM, FFT and ufunc loops release the interpreter lock, and
each crop is independent, so the embeddings are bit-identical to embedding
the crops one by one. When numpy's BLAS is not an OpenBLAS whose thread
count can be set, crops run one by one.

The embedder is injected as a callable so the scoring layer can run
against the real network or any substitute.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .audio import SAMPLE_RATE, Waveform, crop_segment
from .features import extract_features
from .network import FoldedWeights, forward

Embedder = Callable[[Waveform], np.ndarray]

CROP_SECONDS = 4.0
N_CROPS = 10
# Crops shorter than this are embedded one by one: each takes a few
# milliseconds, so handing them to another thread costs more than it saves
# (on 2 CPUs, embedding 32 utterances in 0.1 s crops took 16-56% longer on
# two threads than on one).
MIN_PARALLEL_CROP_SECONDS = 1.0
# Trials whose dot products are taken at once. A chunk gathers two
# (16, 512) float64 blocks, 64 KB each: under glibc's default 128 KB mmap
# threshold, so they reuse heap memory rather than map fresh pages. Scoring
# a 992-trial list from a cache peaked at 50.2 MB resident in 16-trial
# chunks, 51.6-51.9 MB in 256-trial chunks and 60.1 MB (and 15% slower)
# gathering every trial at once.
TRIAL_CHUNK = 16


def plan_crops(n_samples: int, crop_samples: int, n_crops: int = N_CROPS) -> np.ndarray:
    """Start offsets of n_crops windows of crop_samples, spaced evenly
    over [0, n_samples - crop_samples]. n_samples below crop_samples is
    treated as exactly crop_samples (the caller tiles)."""
    if crop_samples < 1 or n_crops < 1:
        raise ValueError("crop_samples and n_crops must be positive")
    slack = max(n_samples - crop_samples, 0)
    if n_crops == 1:
        return np.zeros(1, dtype=np.intp)
    k = np.arange(n_crops)
    return np.rint(k * slack / (n_crops - 1)).astype(np.intp)


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count numpy's bundled OpenBLAS gives one
    call, or None when numpy links no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def crop_workers() -> int:
    """Crops embedded at once: the usable CPUs, each crop's BLAS calls on
    one thread. 1 when numpy's BLAS thread count cannot be set: crops then
    run one by one, each BLAS call on as many threads as BLAS uses."""
    if _openblas() is None:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# Held while crops run concurrently, so one queue at a time lowers and
# restores the BLAS thread count. Reentrant, so a thread may start a queue
# while an iterator of its own is suspended between utterances.
_parallel = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread per call: crops
    running concurrently would otherwise each start threads on every CPU."""
    with _parallel:
        blas = _openblas()
        if blas is None:
            yield
            return
        get, set_ = blas
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


class _Deferred:
    """A crop that runs on the calling thread when its result is read: the
    queue's stand-in for a future when crops run one by one."""

    def __init__(self, fn: Callable, *args):
        self._call = functools.partial(fn, *args)

    def result(self):
        return self._call()

    def cancel(self) -> bool:
        return True


def embed_utterances(
    loads: Iterable[Callable[[], Waveform]],
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> Iterator[np.ndarray]:
    """Embed the planned crops of each utterance; yields one (n_crops, D)
    matrix per load, in order, as soon as its crops are done.

    Crops that start at the same offset are embedded once and the row is
    repeated, so an utterance no longer than one crop costs one call. The
    distinct crops of all the utterances form one queue in utterance
    order, run on up to crop_workers() threads with two crops per thread
    in flight, or one by one when they are shorter than
    MIN_PARALLEL_CROP_SECONDS; rows are the same either way. Each load()
    reads one utterance and is called when the queue reaches it. The
    first failure in utterance order is raised, whether a load, a crop or
    a non-finite row. When crops run concurrently, numpy's BLAS runs one
    thread per call until the iterator is exhausted or closed.
    """
    workers = crop_workers() if crop_seconds >= MIN_PARALLEL_CROP_SECONDS else 1
    submit = _crop_pool(workers).submit if workers > 1 else _Deferred
    # (future, offsets, rows, offset, last crop of its utterance), oldest first
    queue: collections.deque = collections.deque()

    def embed(crop: Waveform) -> np.ndarray:
        return np.asarray(embedder(crop), dtype=np.float64).ravel()

    def finish(in_flight: int) -> Iterator[np.ndarray]:
        """Wait for the oldest crops until in_flight are left, yielding
        each utterance they complete."""
        while len(queue) > in_flight:
            future, offsets, rows, offset, last = queue.popleft()
            rows[offset] = future.result()
            if last:
                emb = np.stack([rows[o] for o in offsets])
                if not np.all(np.isfinite(emb)):
                    raise ValueError("embedder produced non-finite values")
                yield emb

    with _one_blas_thread() if workers > 1 else contextlib.nullcontext():
        try:
            for load in loads:
                try:
                    waveform = load()
                except Exception:
                    yield from finish(0)  # an earlier utterance's failure comes first
                    raise
                crop_samples = int(round(crop_seconds * SAMPLE_RATE))
                offsets = plan_crops(len(waveform), crop_samples, n_crops).tolist()
                unique = list(dict.fromkeys(offsets))
                rows: dict[int, np.ndarray] = {}
                for offset in unique:
                    yield from finish(2 * workers - 1)
                    crop = crop_segment(waveform, crop_seconds, offset=offset)
                    queue.append((submit(embed, crop), offsets, rows, offset, offset == unique[-1]))
            yield from finish(0)
        finally:
            for future, *_ in queue:
                future.cancel()


def crop_embeddings(
    waveform: Waveform,
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> np.ndarray:
    """Embed each planned crop of one utterance; returns (n_crops, D), as
    embed_utterances gives it."""
    [rows] = embed_utterances([lambda: waveform], embedder, crop_seconds, n_crops)
    return rows


def mean_unit_vector(embeddings: np.ndarray) -> np.ndarray:
    """Mean of the unit-length rows of an (n_crops, D) matrix.

    Rows are summed in the order of their bytes, so the result does not
    depend on crop order.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    norms = np.sqrt(np.sum(e * e, axis=1))
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding")
    unit = e / norms[:, None]
    order = sorted(range(len(unit)), key=lambda i: unit[i].tobytes())
    return unit[order].sum(axis=0) / len(unit)


def _dot_scores(means_a: np.ndarray, means_b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dot products of paired mean unit vectors (rows), clipped to [-1, 1]."""
    return np.clip(np.sum(means_a * means_b, axis=-1), -1.0, 1.0, out=out)


def score_from_embeddings(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine over all crop pairs: the dot product of the two mean
    unit vectors. The elementwise product commutes, so swapping a and b
    gives the same bits."""
    return float(_dot_scores(mean_unit_vector(a), mean_unit_vector(b)))


def score_trials(
    embeddings_by_id: Mapping[str, np.ndarray],
    pairs: Sequence[tuple[str, str]],
) -> np.ndarray:
    """Score of each (enroll, test) pair of ids, as score_from_embeddings
    gives it, bit for bit. Each utterance's mean unit vector is computed
    once, however many trials it is in."""
    ids = list(dict.fromkeys(utt for pair in pairs for utt in pair))
    row = {utt: i for i, utt in enumerate(ids)}
    means = np.stack([mean_unit_vector(embeddings_by_id[utt]) for utt in ids]) if ids else None
    enroll = np.array([row[a] for a, _ in pairs], dtype=np.intp)
    test = np.array([row[b] for _, b in pairs], dtype=np.intp)
    out = np.empty(len(pairs))
    for start in range(0, len(pairs), TRIAL_CHUNK):
        chunk = slice(start, start + TRIAL_CHUNK)
        _dot_scores(means[enroll[chunk]], means[test[chunk]], out=out[chunk])
    return out


def score_pair(
    wav_a: Waveform,
    wav_b: Waveform,
    embedder: Embedder,
    crop_seconds: float = CROP_SECONDS,
    n_crops: int = N_CROPS,
) -> float:
    ea = crop_embeddings(wav_a, embedder, crop_seconds, n_crops)
    eb = crop_embeddings(wav_b, embedder, crop_seconds, n_crops)
    return score_from_embeddings(ea, eb)


def network_embedder(weights: FoldedWeights) -> Embedder:
    """Embedder that runs the default feature front end and the trunk on
    folded weights, which decide the variant. Raw NetworkWeights raise
    TypeError at the first call."""

    def embed(waveform: Waveform) -> np.ndarray:
        return forward(extract_features(waveform).values, weights)

    return embed
