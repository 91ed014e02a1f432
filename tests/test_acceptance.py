"""Acceptance gate: ten end-to-end checks, one printed pass/fail line each.

Each criterion exercises the released behavior at its stated tolerance:

  1  trunk parameter budgets (1.4M / 8.0M within 5%)
  2  deep-trunk intermediate shapes on a 201x64 input
  3  analytic loss gradients vs central finite differences
  4  EER/MinDCF vs an exhaustive threshold-sweep oracle
  5  measured SNR of seeded noise augmentations
  6  unit-impulse reverb at 0 dB is a bit-exact identity
  7  instance-norm output statistics
  8  crop-scoring protocol (stub network and real network symmetry)
  9  training demo reaches low EER; margins enlarge the angular gap
  10 feature/weight container round-trips, including > 8M parameters
"""

import itertools
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import forward_stages, make_wave, per_crop
from oracles import (
    assert_grad_matches,
    brute_force_eer,
    brute_force_min_dcf,
    central_difference,
    mean_angular_gap,
    measure_snr_db,
)
from svkit.audio import Waveform
from svkit.augment import (
    ADDITIVE_DEFAULTS,
    AugmentSpec,
    NoiseCatalog,
    augment_additive,
    augment_rir,
    plan_additive,
)
from svkit.containers import load_features, load_tensors, save_features, save_tensors
from svkit.features import FeatureMap, instance_normalize
from svkit.losses import (
    APParams,
    MarginParams,
    aam_softmax,
    am_softmax,
    angular_prototypical,
    ap_plus_softmax,
    softmax_ce,
)
from svkit.metrics import DCFParams, ScoreSet, eer, evaluate, min_dcf
from svkit.network import FoldedWeights, parameter_count
from svkit.optim import WEIGHT_DECAY, Schedule, make_corpus, train_demo
from svkit.scoring import (
    crop_embeddings,
    network_embedder,
    score_from_embeddings,
    score_pair,
)


@pytest.fixture
def reported(pytestconfig):
    """Context manager printing one pass/fail line per criterion.

    Writes through pytest's capture manager so the line reaches the real
    terminal even under the default fd-level capture.
    """
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(number: int, title: str, status: str) -> None:
        line = f"criterion {number:2d} [{title}]: {status}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    @contextmanager
    def report(number: int, title: str):
        try:
            yield
        except BaseException:
            emit(number, title, "FAIL")
            raise
        emit(number, title, "PASS")

    return report


def test_criterion_01_parameter_counts(q_weights, h_weights, reported):
    with reported(1, "parameter counts"):
        q_count = parameter_count(q_weights)
        h_count = parameter_count(h_weights)
        assert abs(q_count - 1.4e6) <= 0.05 * 1.4e6, q_count
        assert abs(h_count - 8.0e6) <= 0.05 * 8.0e6, h_count


def test_criterion_02_deep_trunk_shapes(h_weights, reported, monkeypatch):
    with reported(2, "deep trunk shapes"):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(201, 64))
        stages = forward_stages(monkeypatch, features, FoldedWeights(h_weights))
        assert stages["conv1"] == (201, 64, 32)
        assert stages["layer1"] == (201, 64, 32)
        assert stages["layer2"] == (101, 32, 64)
        assert stages["layer3"] == (51, 16, 128)
        assert stages["layer4"] == (26, 8, 256)
        assert stages["frames"] == (26, 2048)
        assert stages["pooled"] == (4096,)
        assert stages["embedding"] == (512,)


def test_criterion_03_gradient_oracle(reported):
    with reported(3, "gradient oracle"):
        rng = np.random.default_rng(42)
        n, d, c = 12, 8, 5
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        w = rng.normal(size=(c, d))
        bias = rng.normal(size=c)
        e3 = rng.normal(size=(4, 3, d))

        checks = [
            (x, lambda: softmax_ce(x, labels, w, bias)),
            (w, lambda: softmax_ce(x, labels, w, bias)),
            (bias, lambda: softmax_ce(x, labels, w, bias)),
            (x, lambda: am_softmax(x, labels, w, MarginParams())),
            (w, lambda: am_softmax(x, labels, w, MarginParams())),
            (x, lambda: aam_softmax(x, labels, w, MarginParams())),
            (w, lambda: aam_softmax(x, labels, w, MarginParams())),
            (e3, lambda: angular_prototypical(e3, APParams())),
            (e3, lambda: ap_plus_softmax(e3, w, APParams(), bias=bias)),
            (w, lambda: ap_plus_softmax(e3, w, APParams(), bias=bias)),
        ]
        grad_keys = {id(x): "embeddings", id(w): "weights", id(bias): "bias", id(e3): "embeddings"}
        for variable, evaluate_loss in checks:
            _, grads = evaluate_loss()
            assert_grad_matches(
                lambda: evaluate_loss()[0],
                variable,
                grads[grad_keys[id(variable)]],
                rng,
                n_points=10,
                rtol=1e-4,
            )

        # Prototypical scale and bias are scalars; differentiate through
        # a re-parameterized evaluation.
        for key, value in (("w", 10.0), ("b", -5.0)):
            box = np.array(value)

            def ap_loss():
                params = APParams(
                    w=float(box) if key == "w" else 10.0,
                    b=float(box) if key == "b" else -5.0,
                )
                return angular_prototypical(e3, params)[0]

            _, grads = angular_prototypical(e3, APParams(w=10.0, b=-5.0))
            numeric = central_difference(ap_loss, box, ())
            # The bias gradient is structurally ~0 (softmax shift
            # invariance), so floor the denominator above noise level.
            assert abs(numeric - grads[key]) / max(abs(numeric), abs(grads[key]), 1e-8) < 1e-4


def test_criterion_04_metric_oracle(reported):
    with reported(4, "metric oracle"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_target = int(rng.integers(1, 51))
            n_nontarget = int(rng.integers(1, 51))
            targets = rng.normal(loc=1.0, size=n_target)
            nontargets = rng.normal(loc=0.0, size=n_nontarget)
            if rng.random() < 0.5:
                targets = np.round(targets, 1)
                nontargets = np.round(nontargets, 1)
            labels = np.repeat([1, 0], [n_target, n_nontarget])
            ss = ScoreSet(labels, np.concatenate([targets, nontargets]))

            assert abs(eer(ss)[0] - brute_force_eer(targets, nontargets)) <= 1e-12
            assert min_dcf(ss)[0] == brute_force_min_dcf(targets, nontargets)

        toy = ScoreSet(
            np.array([1, 1, 1, 0, 0, 0]),
            np.array([0.9, 0.8, 0.7, 0.75, 0.2, 0.1]),
        )
        report = evaluate(toy, DCFParams())
        assert report.eer_pct == 33.3333
        assert round(report.min_dcf, 4) == 0.3333


def test_criterion_05_snr_fidelity(reported):
    with reported(5, "snr fidelity"):
        catalog = NoiseCatalog([make_wave(seed=500 + i, seconds=0.7) for i in range(5)])
        for seed in range(100):
            clean = make_wave(seed=seed, seconds=0.5)
            spec = AugmentSpec("noise", seed, *ADDITIVE_DEFAULTS["noise"])
            (draw,) = plan_additive(len(clean), catalog, spec)
            noisy = augment_additive(clean, catalog, spec)
            measured = measure_snr_db(clean.samples, noisy.samples - clean.samples)
            assert abs(measured - draw.snr_db) < 0.1, (seed, measured, draw.snr_db)


def test_criterion_06_rir_identity(reported):
    with reported(6, "rir identity"):
        impulse = np.zeros(64)
        impulse[0] = 1.0
        clean = make_wave(seed=7, seconds=0.5)
        wet = augment_rir(
            clean, NoiseCatalog([Waveform(impulse)]), seed=0, gain_db_range=(0.0, 0.0)
        )
        np.testing.assert_array_equal(wet.samples, clean.samples)


def test_criterion_07_instance_norm_contract(reported):
    with reported(7, "instance norm contract"):
        rng = np.random.default_rng(11)
        for _ in range(5):
            loc = rng.uniform(-5.0, 5.0)
            scale = rng.uniform(0.5, 4.0)
            values = rng.normal(loc=loc, scale=scale, size=(201, 64))
            out = instance_normalize(FeatureMap(values)).values
            assert np.max(np.abs(out.mean(axis=0))) < 1e-6
            assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-3


def test_criterion_08_scoring_protocol(q_weights, reported):
    with reported(8, "scoring protocol"):
        stub = lambda wave: np.array([0.25, -0.5, 1.0])
        a = make_wave(seed=1, seconds=4.5)
        b = make_wave(seed=2, seconds=5.0)
        assert score_pair(a, b, per_crop(stub)) == pytest.approx(1.0, abs=1e-6)

        embed = network_embedder(FoldedWeights(q_weights))
        waves = [make_wave(seed=100 + i, seconds=4.2 + 0.2 * i) for i in range(8)]
        crops = [crop_embeddings(wave, embed) for wave in waves]
        pairs = list(itertools.combinations(range(8), 2))[:20]
        assert len(pairs) == 20
        for i, j in pairs:
            assert score_from_embeddings(crops[i], crops[j]) == score_from_embeddings(
                crops[j], crops[i]
            )
        assert score_pair(waves[0], waves[1], embed) == score_pair(
            waves[1], waves[0], embed
        )


def test_criterion_09_training_demo_and_margin_gap(reported):
    with reported(9, "training demo and margin gap"):
        corpus = make_corpus(n_speakers=20, n_utts=10, dim=512, n_trials=400, seed=0)
        result = train_demo(
            corpus, loss_name="ap+softmax", epochs=200, lr0=0.1, schedule=Schedule(),
            weight_decay=WEIGHT_DECAY, margin=MarginParams(), seed=0,
        )
        assert result.heldout_eer < 0.05, result.heldout_eer

        # Identical corpus, init seed, and budget for all three losses; the
        # gentler rate keeps vanilla softmax from collapsing its classes
        # onto the classifier rows before the margins can act.
        gaps = {}
        for loss_name in ("softmax", "amsoftmax", "aamsoftmax"):
            trained = train_demo(
                corpus, loss_name=loss_name, epochs=100, lr0=0.01, schedule=Schedule(),
                weight_decay=WEIGHT_DECAY, margin=MarginParams(), seed=0,
            )
            gaps[loss_name] = mean_angular_gap(trained.embeddings)
        assert gaps["amsoftmax"] > gaps["softmax"], gaps
        assert gaps["aamsoftmax"] > gaps["softmax"], gaps


def test_criterion_10_serialization_round_trip(tmp_path, h_weights, reported):
    with reported(10, "serialization round trip"):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(201, 64)).astype(np.float32)
        feature_path = tmp_path / "roundtrip.svf1"
        save_features(feature_path, features)
        loaded = load_features(feature_path)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, features)

        tensors = dict(h_weights)
        tensors["projection.weight"] = rng.normal(size=(512, 1024)).astype(np.float32)
        trainable = sum(t.size for n, t in tensors.items() if "running_" not in n)
        assert trainable > 8_000_000
        weight_path = tmp_path / "roundtrip.svw1"
        save_tensors(weight_path, tensors)
        reloaded = load_tensors(weight_path)
        assert set(reloaded) == set(tensors)
        for name, tensor in tensors.items():
            assert reloaded[name].dtype == np.float32
            np.testing.assert_array_equal(reloaded[name], tensor)
