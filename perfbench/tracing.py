"""In-memory span tracer for the benchmark's traced passes.

The tracer replaces each hooked svkit function at the name its caller
looks the function up under (svkit modules import names directly, so
`svkit.cli.read_wav` and `svkit.augment.read_wav` are separate hooks of
the same function). Each call records a span: name, parent span, start,
end and a small shape record taken from the arguments or the result.
Spans stay in memory until the run ends. Nothing is hooked while the
tracer is not installed, so untraced passes run svkit's own functions.

A span name is `<layer>.<operation>`; its layer is the part before the
first dot. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans under the top-level
`cli.main` spans add up to the duration of those spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli", "audio", "features", "network", "scoring", "metrics",
    "containers", "augment", "losses", "optim",
)
STAGES = ("layer1", "layer2", "layer3", "layer4")
LOSSES = ("softmax_ce", "am_softmax", "aam_softmax", "angular_prototypical", "ap_plus_softmax")


def _argv(args, kwargs, result):
    return list(args[0])


def _n_samples(args, kwargs, result):
    return len(result)


def _frames(args, kwargs, result):
    return result.values.shape[0]


def _conv_shapes(args, kwargs, result):
    x, kernel = args[0], args[1]
    return tuple(result.shape), tuple(kernel.shape), x.dtype.itemsize


def _block_prefix(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["prefix"]


def _crop_request(args, kwargs, result):
    # crop_embeddings(waveform, embedder, crop_seconds, n_crops)
    names = ("waveform", "embedder", "crop_seconds", "n_crops")
    bound = dict(zip(names, args)) | kwargs
    return len(bound["waveform"]), bound.get("crop_seconds", 4.0), bound.get("n_crops", 10), len(result)


def _loaded_mb(args, kwargs, result):
    return sum(t.size for t in result.values()) * 4 / 1e6


def _saved_mb(args, kwargs, result):
    tensors = args[1] if len(args) > 1 else kwargs["tensors"]
    return sum(getattr(t, "size", 1) for t in tensors.values()) * 4 / 1e6


def _clean_samples(args, kwargs, result):
    return len(args[0])


# (owner, attribute, span name, shape record). The owner is a module, or
# a module and class joined by ":" for a classmethod.
HOOKS = [
    ("svkit.cli", "main", "cli.main", _argv),
    ("svkit.cli", "read_wav", "audio.read_wav", _n_samples),
    ("svkit.augment", "read_wav", "audio.read_wav", _n_samples),
    ("svkit.cli", "write_wav", "audio.write_wav", None),
    ("svkit.cli", "extract_features", "features.extract", _frames),
    ("svkit.scoring", "extract_features", "features.extract", _frames),
    ("svkit.scoring", "forward", "network.forward", None),
    ("svkit.network", "residual_block", "network.residual_block", _block_prefix),
    ("svkit.network", "conv2d", "network.conv2d", _conv_shapes),
    ("svkit.network", "batchnorm_infer", "network.batchnorm", None),
    ("svkit.network", "sap_pool", "network.pool", None),
    ("svkit.network", "asp_pool", "network.pool", None),
    ("svkit.cli", "crop_embeddings", "scoring.crop_embeddings", _crop_request),
    ("svkit.cli", "score_from_embeddings", "scoring.score", None),
    ("svkit.cli", "read_trials", "metrics.read_trials", None),
    ("svkit.cli", "read_scores", "metrics.read_scores", None),
    ("svkit.metrics:ScoreSet", "from_map", "metrics.from_map", None),
    ("svkit.cli", "evaluate", "metrics.evaluate", None),
    ("svkit.cli", "write_scores", "metrics.write_scores", None),
    ("svkit.metrics", "eer", "metrics.eer", None),
    ("svkit.optim", "eer", "metrics.eer", None),
    ("svkit.metrics", "min_dcf", "metrics.min_dcf", None),
    ("svkit.optim", "min_dcf", "metrics.min_dcf", None),
    ("svkit.cli", "load_tensors", "containers.load_tensors", _loaded_mb),
    ("svkit.containers", "load_tensors", "containers.load_tensors", _loaded_mb),
    ("svkit.cli", "save_tensors", "containers.save_tensors", _saved_mb),
    ("svkit.containers", "save_tensors", "containers.save_tensors", _saved_mb),
    ("svkit.augment", "augment_additive", "augment.additive", None),
    ("svkit.augment", "augment_rir", "augment.rir", _clean_samples),
    *[("svkit.losses", name, "losses.loss", None) for name in LOSSES],
    ("svkit.cli", "make_corpus", "optim.make_corpus", None),
    ("svkit.cli", "train_demo", "optim.train_demo", None),
    ("svkit.optim", "adam_step", "optim.adam_step", None),
    ("svkit.optim", "trial_scores", "optim.trial_scores", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans are lists [name, parent index, start, end, shape record]."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, record):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if record is not None:
                span[4] = record(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Hook every listed name. A name svkit no longer defines is
        skipped and listed in `missing`, so its metrics read zero."""
        self.missing = []
        for owner_path, attr, name, record in self.hooks:
            owner = _owner(owner_path)
            raw = owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, classmethod):
                hooked = classmethod(self._wrap(name, raw.__func__, record))
            else:
                hooked = self._wrap(name, raw, record)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, hooked)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, parent, start, end, record in self.spans:
                f.write(json.dumps([name, parent, start, end, repr(record)]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def conv2d_gflop(out_shape, kernel_shape) -> float:
    """Multiply-adds of one im2col conv, counted as 2 FLOP each (computed)."""
    t_out, f_out, c_out = out_shape
    kh, kw, c_in, _ = kernel_shape
    return 2.0 * t_out * f_out * kh * kw * c_in * c_out / 1e9


def conv2d_im2col_mb(out_shape, kernel_shape, itemsize: int) -> float:
    """Bytes of the (t_out * f_out, kh * kw * c_in) im2col matrix (computed)."""
    t_out, f_out, _ = out_shape
    kh, kw, c_in, _ = kernel_shape
    return t_out * f_out * kh * kw * c_in * itemsize / 1e6


def unique_crops(n_samples: int, crop_seconds: float, n_crops: int, plan_crops) -> int:
    """Distinct crop offsets svkit's plan_crops gives for one utterance.
    Audio shorter than a crop is tiled to one crop first, so every crop
    of such an utterance starts at 0."""
    crop_samples = int(round(crop_seconds * 16000))
    return len(set(plan_crops(max(n_samples, crop_samples), crop_samples, n_crops).tolist()))


def rir_mmac(clean_samples: int, rir_samples: int) -> float:
    """Multiply-adds of a full direct-form convolution, in millions (computed)."""
    return clean_samples * rir_samples / 1e6


def _unique_utterances(trials_path: str) -> int:
    ids = set()
    for line in Path(trials_path).read_text().splitlines():
        parts = line.split()
        if len(parts) == 3:
            ids.update(parts[1:])
    return len(ids)


# Ratios are reported as computed; every other value is a total divided
# by the number of traced passes.
RATIOS = {
    "network.forward.ms_per_call", "scoring.forward_per_unique_crop",
    "scoring.score.us_per_call", "cache.hit_ratio",
}


def summarize(spans: list[list], n_passes: int, plan_crops) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the spans of n_passes passes."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, parent, *_rest) in enumerate(spans):
        by_name[name].append(i)
        children[parent].append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def calls(name):
        return float(len(by_name[name]))

    def seconds(name):
        return sum(dur(i) for i in by_name[name])

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        layer = span[0].partition(".")[0]
        m[f"{layer}.self_s"] += selfs[i]
    m["audio.read_wav.calls"] = calls("audio.read_wav")
    m["audio.read_wav.s"] = seconds("audio.read_wav")
    m["features.extract.calls"] = calls("features.extract")
    m["features.extract.s"] = seconds("features.extract")
    m["features.frames"] = float(sum(spans[i][4] for i in by_name["features.extract"]))
    m["network.forward.calls"] = calls("network.forward")
    m["network.forward.s"] = seconds("network.forward")
    for stage in STAGES:
        m[f"network.{stage}.s"] = 0.0
    for i in by_name["network.residual_block"]:
        stage = spans[i][4].partition(".")[0]
        m[f"network.{stage}.s"] += dur(i)
    m["network.pool.s"] = seconds("network.pool")
    m["network.conv2d.calls"] = calls("network.conv2d")
    m["network.conv2d.s"] = seconds("network.conv2d")
    m["network.conv2d.gflop"] = sum(conv2d_gflop(*spans[i][4][:2]) for i in by_name["network.conv2d"])
    m["network.conv2d.im2col_mb"] = sum(conv2d_im2col_mb(*spans[i][4]) for i in by_name["network.conv2d"])
    m["network.batchnorm.calls"] = calls("network.batchnorm")
    m["network.batchnorm.s"] = seconds("network.batchnorm")
    m["scoring.crop_embeddings.calls"] = calls("scoring.crop_embeddings")
    m["scoring.crop_embeddings.s"] = seconds("scoring.crop_embeddings")
    requests = [spans[i][4] for i in by_name["scoring.crop_embeddings"]]
    m["scoring.crops_planned"] = float(sum(r[3] for r in requests))
    m["scoring.crops_unique"] = float(sum(unique_crops(*r[:3], plan_crops) for r in requests))
    m["scoring.score.calls"] = calls("scoring.score")
    for op in ("read_trials", "read_scores", "from_map", "evaluate", "write_scores", "eer"):
        m[f"metrics.{op}.s"] = seconds(f"metrics.{op}")
    for op in ("load_tensors", "save_tensors"):
        m[f"containers.{op}.calls"] = calls(f"containers.{op}")
        m[f"containers.{op}.s"] = seconds(f"containers.{op}")
        m[f"containers.{op}.mb"] = sum(spans[i][4] for i in by_name[f"containers.{op}"])
    hits = misses = 0
    for i in by_name["cli.main"]:
        argv = spans[i][4]
        if argv and argv[0] == "score" and "--cache" in argv:
            lookups = _unique_utterances(argv[argv.index("--trials") + 1])
            missed = sum(spans[c][0] == "scoring.crop_embeddings" for c in children[i])
            misses += missed
            hits += lookups - missed
    m["cache.hits"] = float(hits)
    m["cache.misses"] = float(misses)
    m["augment.additive.calls"] = calls("augment.additive")
    m["augment.additive.s"] = seconds("augment.additive")
    m["augment.rir.calls"] = calls("augment.rir")
    m["augment.rir.s"] = seconds("augment.rir")
    # The impulse response is read inside augment_rir; its length comes
    # from that child read.
    m["augment.rir.mmac"] = sum(
        rir_mmac(spans[i][4], spans[c][4])
        for i in by_name["augment.rir"]
        for c in children[i]
        if spans[c][0] == "audio.read_wav"
    )
    outer_losses = [
        i for i in by_name["losses.loss"] if spans[i][1] < 0 or spans[spans[i][1]][0] != "losses.loss"
    ]
    m["losses.calls"] = float(len(outer_losses))
    m["losses.s"] = sum(dur(i) for i in outer_losses)
    for op in ("adam_step", "trial_scores"):
        m[f"optim.{op}.calls"] = calls(f"optim.{op}")
        m[f"optim.{op}.s"] = seconds(f"optim.{op}")

    forwards, uniques = m["network.forward.calls"], m["scoring.crops_unique"]
    m["network.forward.ms_per_call"] = 1e3 * m["network.forward.s"] / forwards if forwards else 0.0
    m["scoring.forward_per_unique_crop"] = forwards / uniques if uniques else 0.0
    scores = m["scoring.score.calls"]
    m["scoring.score.us_per_call"] = 1e6 * seconds("scoring.score") / scores if scores else 0.0
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return {k: v if k in RATIOS else v / n_passes for k, v in m.items()}
