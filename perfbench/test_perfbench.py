"""Tests of the benchmark's own derivations.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from svkit import cli, network  # noqa: E402
from svkit.audio import Waveform  # noqa: E402
from svkit.features import extract_features  # noqa: E402
from svkit.metrics import ScoreSet, Trial, evaluate  # noqa: E402
from svkit.scoring import plan_crops  # noqa: E402


def span(name, parent, start, end, record=None):
    return [name, parent, start, end, record]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("scoring.crop_embeddings", 0, 1.0, 4.0),
        span("network.forward", 1, 2.0, 3.0),
        span("metrics.write_scores", 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_layer_self_times_add_up_to_the_main_span():
    spans = [
        span("cli.main", -1, 0.0, 10.0, ["embed"]),
        span("network.forward", 0, 1.0, 7.0),
        span("network.conv2d", 1, 2.0, 5.0, ((401, 64, 32), (3, 3, 32, 32), 4)),
        span("audio.read_wav", 0, 8.0, 9.5, 64000),
    ]
    m = tracing.summarize(spans, 1, plan_crops)
    assert m["cli.self_s"] == 2.5
    assert m["network.self_s"] == 6.0
    assert m["audio.self_s"] == 1.5
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) == 10.0


def test_per_pass_values_divide_totals_but_not_ratios():
    spans = [span("cli.main", -1, 0.0, 4.0, ["embed"])]
    spans += [span("network.forward", 0, 2.0 * i, 2.0 * i + 1.0) for i in range(2)]
    m = tracing.summarize(spans, 2, plan_crops)
    assert m["network.forward.calls"] == 1.0
    assert m["network.forward.s"] == 1.0
    assert m["network.forward.ms_per_call"] == 1000.0


def test_conv_formulas_match_the_h_asp_layer1_conv():
    # layer1 of h-asp keeps a 4 s crop's 401 x 64 map at 32 channels.
    cfg = network.TrunkConfig.h_asp()
    weights = network.init_weights(cfg, seed=0)
    kernel = weights["layer1.block0.conv1.weight"]
    x = np.zeros((401, 64, cfg.channels[0]), dtype=np.float32)
    tracer = tracing.Tracer([("svkit.network", "conv2d", "network.conv2d", tracing._conv_shapes)])
    tracer.install()
    try:
        out = network.conv2d(x, kernel, (1, 1), (1, 1))
    finally:
        tracer.uninstall()
    (record,) = [s[4] for s in tracer.spans]
    assert record == ((401, 64, 32), (3, 3, 32, 32), 4)
    # one (401*64, 288) @ (288, 32) matmul: 2 FLOP per multiply-add
    assert tracing.conv2d_gflop(*record[:2]) == 2 * (401 * 64) * 288 * 32 / 1e9
    cols = np.lib.stride_tricks.sliding_window_view(np.pad(x, ((1, 1), (1, 1), (0, 0))), (3, 3), axis=(0, 1))
    cols = cols.transpose(0, 1, 3, 4, 2).reshape(401 * 64, 288)
    assert tracing.conv2d_im2col_mb(*record) == cols.nbytes / 1e6
    assert out.shape == record[0]


@pytest.mark.parametrize("seconds", [0.5, 2.0, 4.0])
def test_an_utterance_of_at_most_one_crop_has_one_unique_crop(seconds):
    n = int(seconds * 16000)
    assert tracing.unique_crops(n, 4.0, 10, plan_crops) == 1


def test_a_long_utterance_has_ten_unique_crops():
    assert tracing.unique_crops(8 * 16000, 4.0, 10, plan_crops) == 10


def test_rir_mmac_counts_a_full_direct_convolution():
    assert tracing.rir_mmac(64000, 4800) == 307.2


def test_every_hook_resolves_and_uninstall_restores():
    before = cli.read_wav
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert cli.read_wav is not before
    finally:
        tracer.uninstall()
    assert cli.read_wav is before


def test_traced_score_counts_cache_misses_and_unique_crops(tmp_path):
    rng = np.random.default_rng(0)
    for name, seconds in (("a.wav", 2.0), ("b.wav", 5.0)):
        ref_samples = 0.3 * np.sin(2 * np.pi * rng.uniform(100, 400) * np.arange(int(seconds * 16000)) / 16000)
        cli.write_wav(tmp_path / name, Waveform(ref_samples))
    (tmp_path / "trials.txt").write_text("0 a.wav b.wav\n")
    assert cli.main(["init", "--variant", "q-sap", "--out", str(tmp_path / "q.svw")]) == 0
    argv = ["score", "--trials", str(tmp_path / "trials.txt"), "--weights", str(tmp_path / "q.svw"),
            "--out", str(tmp_path / "s.txt"), "--cache", str(tmp_path / "c.svw"), "--wav-root", str(tmp_path),
            "--crop-seconds", "2.0", "--n-crops", "3"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    m = tracing.summarize(tracer.spans, 1, plan_crops)
    assert (m["cache.hits"], m["cache.misses"], m["cache.hit_ratio"]) == (0.0, 2.0, 0.0)
    assert m["scoring.crops_planned"] == 6.0
    assert m["scoring.crops_unique"] == 4.0  # a.wav is one 2 s crop, b.wav has three
    assert m["network.forward.calls"] == 6.0
    assert m["scoring.forward_per_unique_crop"] == 1.5


def test_reference_trunk_matches_svkit_forward():
    cfg = network.TrunkConfig.q_sap()
    weights = network.init_weights(cfg, seed=1)
    samples = 0.3 * np.random.default_rng(2).standard_normal(16000)
    features = extract_features(Waveform(samples)).values
    want = ref.trunk_embedding(features, weights.tensors)
    assert ref.relative_error(network.forward(features, weights, cfg), want) < 1e-5


def test_reference_eer_and_min_dcf_match_svkit_evaluate():
    rng = np.random.default_rng(4)
    scores = np.round(rng.uniform(-1, 1, 300), 6)
    labels = rng.integers(0, 2, 300)
    report = evaluate(ScoreSet(tuple(Trial(int(l), f"e{i}", f"t{i}") for i, l in enumerate(labels)), scores))
    targets, nontargets = scores[labels == 1], scores[labels == 0]
    assert report.eer == pytest.approx(ref.eer(targets, nontargets), abs=1e-12)
    assert (report.min_dcf, report.min_dcf_raw) == pytest.approx(ref.min_dcf(targets, nontargets), abs=1e-12)


def test_crop_offsets_match_svkit_plan():
    for n in (16000, 64000, 64009, 200000):
        assert ref.crop_offsets(max(n, 64000), 64000, 10) == plan_crops(max(n, 64000), 64000, 10).tolist()
