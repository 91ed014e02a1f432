"""Tests for additive-noise and reverberation augmentation."""

import numpy as np
import pytest

from conftest import make_wave
from svkit import augment
from svkit.audio import Waveform, tile_to_length, write_wav
from svkit.augment import (
    ADDITIVE_DEFAULTS,
    AugmentSpec,
    NoiseCatalog,
    apply_augmentation,
    augment_additive,
    augment_rir,
    measure_snr_db,
    mix_at_snr,
    plan_additive,
    scan_catalogs,
    snr_gain,
)


def constant_power_wave(power: float, n: int = 1600) -> Waveform:
    return Waveform(np.full(n, np.sqrt(power)))


class TestMeasureSnr:
    def test_equal_power_is_zero_db(self):
        clean = constant_power_wave(0.25)
        noise = Waveform(-clean.samples)
        assert measure_snr_db(clean, noise) == pytest.approx(0.0, abs=1e-12)

    def test_hundred_to_one_power_ratio_is_twenty_db(self):
        clean = constant_power_wave(1.0)
        noise = constant_power_wave(0.01)
        assert measure_snr_db(clean, noise) == pytest.approx(20.0, abs=1e-9)

    def test_matches_direct_formula_on_random_signals(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            clean = Waveform(rng.normal(size=800))
            noise = Waveform(rng.normal(scale=0.3, size=800))
            expected = 10.0 * np.log10(
                np.mean(clean.samples**2) / np.mean(noise.samples**2)
            )
            assert measure_snr_db(clean, noise) == pytest.approx(expected, rel=1e-12)

    def test_zero_power_clean_rejected(self):
        with pytest.raises(ValueError, match="clean"):
            measure_snr_db(Waveform(np.zeros(100)), constant_power_wave(1.0, 100))

    def test_zero_power_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            measure_snr_db(constant_power_wave(1.0, 100), Waveform(np.zeros(100)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            measure_snr_db(constant_power_wave(1.0, 100), constant_power_wave(1.0, 99))


class TestMixAtSnr:
    def test_equal_power_zero_db_gain_is_one(self):
        clean = make_wave(seed=1, seconds=0.1)
        noise = Waveform(clean.samples[::-1].copy())
        mixed = mix_at_snr(clean, noise, 0.0)
        np.testing.assert_allclose(
            mixed.samples, clean.samples + noise.samples, rtol=1e-12
        )

    def test_twenty_db_gain_is_one_tenth(self):
        clean = constant_power_wave(1.0)
        noise = Waveform(np.where(np.arange(1600) % 2 == 0, 1.0, -1.0))  # power exactly 1
        mixed = mix_at_snr(clean, noise, 20.0)
        np.testing.assert_allclose(
            mixed.samples - clean.samples, 0.1 * noise.samples, rtol=1e-12
        )

    def test_measured_snr_hits_target(self):
        rng = np.random.default_rng(7)
        clean = Waveform(rng.normal(size=4000))
        noise = Waveform(rng.normal(size=4000))
        for target in (-5.0, 0.0, 7.3, 20.0):
            mixed = mix_at_snr(clean, noise, target)
            residual = Waveform(mixed.samples - clean.samples)
            assert measure_snr_db(clean, residual) == pytest.approx(target, abs=1e-6)

    def test_huge_target_leaves_signal_untouched(self):
        clean = make_wave(seed=2, seconds=0.1)
        noise = make_wave(seed=3, seconds=0.1)
        mixed = mix_at_snr(clean, noise, 300.0)
        np.testing.assert_allclose(mixed.samples, clean.samples, atol=1e-12)

    def test_snr_gain_formula(self):
        assert snr_gain(4.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
        assert snr_gain(1.0, 1.0, 10.0) == pytest.approx(10.0**-0.5, rel=1e-12)

    def test_zero_power_inputs_rejected(self):
        live = constant_power_wave(1.0, 100)
        dead = Waveform(np.zeros(100))
        with pytest.raises(ValueError):
            mix_at_snr(dead, live, 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(live, dead, 0.0)


class TestAugmentSpec:
    def test_per_kind_defaults(self):
        speech = AugmentSpec.for_kind("speech", seed=0)
        assert speech.count_range == (3, 7)
        assert speech.snr_range_db == (13.0, 20.0)
        music = AugmentSpec.for_kind("music", seed=0)
        assert music.count_range == (1, 1)
        assert music.snr_range_db == (5.0, 15.0)
        noise = AugmentSpec.for_kind("noise", seed=0)
        assert noise.count_range == (1, 1)
        assert noise.snr_range_db == (0.0, 15.0)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AugmentSpec(kind="rir", seed=0)

    def test_bad_count_range_rejected(self):
        with pytest.raises(ValueError, match="count"):
            AugmentSpec(kind="music", seed=0, count_range=(0, 1))
        with pytest.raises(ValueError, match="count"):
            AugmentSpec(kind="music", seed=0, count_range=(3, 2))

    def test_bad_snr_range_rejected(self):
        with pytest.raises(ValueError, match="SNR"):
            AugmentSpec(kind="music", seed=0, snr_range_db=(5.0, 4.0))


def small_catalog(n_entries: int = 4, seconds: float = 0.2) -> NoiseCatalog:
    entries = [make_wave(seed=100 + i, seconds=seconds) for i in range(n_entries)]
    return NoiseCatalog(entries)


class TestPlanAdditive:
    def test_same_seed_gives_identical_draws(self):
        cat = small_catalog()
        spec = AugmentSpec.for_kind("music", seed=42)
        assert list(plan_additive(1600, cat, spec)) == list(plan_additive(1600, cat, spec))

    def test_speech_count_within_bounds(self):
        cat = small_catalog()
        counts = set()
        for seed in range(30):
            draws = list(plan_additive(1600, cat, AugmentSpec.for_kind("speech", seed=seed)))
            counts.add(len(draws))
            for draw in draws:
                assert 13.0 <= draw.snr_db <= 20.0
        assert counts <= {3, 4, 5, 6, 7}
        assert len(counts) > 1  # the count is actually drawn, not fixed

    def test_music_always_single_draw(self):
        cat = small_catalog()
        for seed in range(10):
            draws = list(plan_additive(1600, cat, AugmentSpec.for_kind("music", seed=seed)))
            assert len(draws) == 1
            assert 5.0 <= draws[0].snr_db <= 15.0

    def test_offsets_stay_within_tiled_slack(self):
        cat = small_catalog(seconds=0.3)  # 4800 samples per entry
        clean_length = 4000
        for seed in range(20):
            spec = AugmentSpec.for_kind("noise", seed=seed)
            for draw in plan_additive(clean_length, cat, spec):
                noise_len = len(cat.get(draw.catalog_index))
                assert 0 <= draw.catalog_index < len(cat)
                assert 0 <= draw.crop_offset <= noise_len - clean_length

    def test_long_clean_tiles_noise(self):
        cat = small_catalog(seconds=0.1)  # 1600-sample entries
        clean_length = 4000  # needs ceil(4000/1600) = 3 tiles -> 4800
        for seed in range(10):
            spec = AugmentSpec.for_kind("noise", seed=seed)
            for draw in plan_additive(clean_length, cat, spec):
                assert 0 <= draw.crop_offset <= 4800 - clean_length

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            list(plan_additive(1600, NoiseCatalog([]), AugmentSpec.for_kind("music", 0)))


class TestAugmentAdditive:
    def test_same_seed_is_bit_identical(self):
        clean = make_wave(seed=5, seconds=0.2)
        cat = small_catalog()
        spec = AugmentSpec.for_kind("speech", seed=9)
        first = augment_additive(clean, cat, spec)
        second = augment_additive(clean, cat, spec)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_output_length_matches_input(self):
        clean = make_wave(seed=6, seconds=0.37)
        cat = small_catalog(seconds=0.11)
        out = augment_additive(clean, cat, AugmentSpec.for_kind("speech", seed=1))
        assert len(out) == len(clean)

    def test_single_noise_residual_hits_drawn_snr(self):
        clean = make_wave(seed=7, seconds=0.25)
        cat = small_catalog()
        for seed in range(10):
            spec = AugmentSpec.for_kind("noise", seed=seed)
            (draw,) = plan_additive(len(clean), cat, spec)
            out = augment_additive(clean, cat, spec)
            residual = Waveform(out.samples - clean.samples)
            assert measure_snr_db(clean, residual) == pytest.approx(
                draw.snr_db, abs=1e-6
            )

    def test_multi_noise_matches_reconstruction_from_plan(self):
        clean = make_wave(seed=8, seconds=0.2)
        cat = small_catalog(seconds=0.15)
        spec = AugmentSpec.for_kind("speech", seed=11)
        expected = clean.samples.copy()
        p_clean = np.mean(clean.samples**2)
        for draw in plan_additive(len(clean), cat, spec):
            tiled = tile_to_length(cat.get(draw.catalog_index), len(clean) + draw.crop_offset)
            chunk = tiled.samples[draw.crop_offset : draw.crop_offset + len(clean)]
            g = snr_gain(p_clean, np.mean(chunk**2), draw.snr_db)
            expected = expected + g * chunk
        out = augment_additive(clean, cat, spec)
        np.testing.assert_array_equal(out.samples, expected)

    def test_each_drawn_recording_is_read_once(self, tmp_path, monkeypatch):
        waves = [make_wave(seed=100 + i, seconds=0.2) for i in range(4)]
        paths = [tmp_path / f"s{i}.wav" for i in range(4)]
        for path, wave in zip(paths, waves):
            write_wav(path, wave)
        reads = []
        read_wav = augment.read_wav
        monkeypatch.setattr(augment, "read_wav", lambda path: reads.append(path) or read_wav(path))
        clean = make_wave(seed=8, seconds=0.2)
        for seed in range(5):
            spec = AugmentSpec.for_kind("speech", seed=seed)
            draws = list(plan_additive(len(clean), NoiseCatalog(waves), spec))
            reads.clear()
            augment_additive(clean, NoiseCatalog(paths), spec)
            assert reads == [paths[draw.catalog_index] for draw in draws]

    def test_zero_power_clean_rejected(self):
        cat = small_catalog()
        with pytest.raises(ValueError, match="zero power"):
            augment_additive(
                Waveform(np.zeros(1600)), cat, AugmentSpec.for_kind("noise", 0)
            )

    def test_zero_power_catalog_entry_rejected(self):
        clean = make_wave(seed=9, seconds=0.1)
        cat = NoiseCatalog([Waveform(np.zeros(1600))])
        with pytest.raises(ValueError, match="zero power"):
            augment_additive(clean, cat, AugmentSpec.for_kind("noise", 0))


def unit_impulse(position: int = 0, length: int = 16) -> Waveform:
    samples = np.zeros(length)
    samples[position] = 1.0
    return Waveform(samples)


class TestAugmentRir:
    def test_unit_impulse_at_zero_db_is_bit_exact_identity(self):
        clean = make_wave(seed=10, seconds=0.2)
        cat = NoiseCatalog([unit_impulse()])
        out = augment_rir(clean, cat, seed=3, gain_db_range=(0.0, 0.0))
        np.testing.assert_array_equal(out.samples, clean.samples)

    def test_delayed_impulse_shifts_signal(self):
        signal = Waveform(np.arange(1.0, 11.0))  # 10 samples, values 1..10
        delay = 3
        cat = NoiseCatalog([unit_impulse(position=delay, length=delay + 1)])
        out = augment_rir(signal, cat, seed=0, gain_db_range=(0.0, 0.0))
        expected = np.zeros(10)
        expected[delay:] = signal.samples[: 10 - delay]
        np.testing.assert_allclose(out.samples, expected, atol=1e-15)
        assert len(out) == len(signal)

    def test_same_seed_is_identical(self):
        clean = make_wave(seed=11, seconds=0.15)
        rng = np.random.default_rng(99)
        cat = NoiseCatalog([Waveform(rng.normal(size=64) * np.exp(-np.arange(64) / 8.0))])
        first = augment_rir(clean, cat, seed=5)
        second = augment_rir(clean, cat, seed=5)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_energy_normalization_removes_rir_scale(self):
        # The impulse response is normalized to unit energy before the gain
        # applies, so a globally rescaled response gives identical output.
        clean = make_wave(seed=12, seconds=0.1)
        rng = np.random.default_rng(4)
        rir = rng.normal(size=32)
        out_base = augment_rir(clean, NoiseCatalog([Waveform(rir)]), seed=2)
        out_scaled = augment_rir(clean, NoiseCatalog([Waveform(rir * 7.5)]), seed=2)
        np.testing.assert_allclose(out_base.samples, out_scaled.samples, rtol=1e-12)

    def test_gain_scales_output_linearly(self):
        clean = make_wave(seed=13, seconds=0.1)
        cat = NoiseCatalog([unit_impulse()])
        attenuated = augment_rir(clean, cat, seed=0, gain_db_range=(-6.0, -6.0))
        np.testing.assert_allclose(
            attenuated.samples, clean.samples * 10.0 ** (-6.0 / 20.0), rtol=1e-12
        )

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            augment_rir(make_wave(seed=1, seconds=0.1), NoiseCatalog([]), seed=0)

    def test_zero_energy_rir_rejected(self):
        cat = NoiseCatalog([Waveform(np.zeros(16))])
        with pytest.raises(ValueError, match="zero energy"):
            augment_rir(make_wave(seed=1, seconds=0.1), cat, seed=0)


class TestScanCatalogs:
    def test_scans_present_categories(self, tmp_path):
        for category, count in (("music", 2), ("rir", 1)):
            sub = tmp_path / category
            sub.mkdir()
            for i in range(count):
                write_wav(sub / f"{category}_{i}.wav", make_wave(seed=i, seconds=0.05))
        catalogs = scan_catalogs(tmp_path)
        assert set(catalogs) == {"music", "rir"}
        assert len(catalogs["music"]) == 2
        assert len(catalogs["rir"]) == 1
        assert isinstance(catalogs["music"], NoiseCatalog)
        assert isinstance(catalogs["rir"], NoiseCatalog)

    def test_entries_sorted_by_name(self, tmp_path):
        sub = tmp_path / "noise"
        sub.mkdir()
        for name in ("b.wav", "a.wav", "c.wav"):
            write_wav(sub / name, make_wave(seed=1, seconds=0.05))
        catalogs = scan_catalogs(tmp_path)
        names = [entry.name for entry in catalogs["noise"].entries]
        assert names == ["a.wav", "b.wav", "c.wav"]

    def test_empty_tree_yields_no_catalogs(self, tmp_path):
        assert scan_catalogs(tmp_path) == {}

    def test_catalog_get_reads_files(self, tmp_path):
        sub = tmp_path / "music"
        sub.mkdir()
        wave = make_wave(seed=3, seconds=0.05)
        write_wav(sub / "m.wav", wave)
        catalogs = scan_catalogs(tmp_path)
        loaded = catalogs["music"].get(0)
        np.testing.assert_allclose(loaded.samples, wave.samples, atol=1.0 / 32768.0)


class TestApplyAugmentation:
    def test_dispatches_additive_kinds(self):
        clean = make_wave(seed=20, seconds=0.2)
        catalogs = {kind: small_catalog() for kind in ("speech", "music", "noise")}
        for kind in ("speech", "music", "noise"):
            direct = augment_additive(
                clean, catalogs[kind], AugmentSpec.for_kind(kind, seed=8)
            )
            routed = apply_augmentation(clean, kind, catalogs, seed=8)
            np.testing.assert_array_equal(routed.samples, direct.samples)

    def test_dispatches_rir(self):
        clean = make_wave(seed=21, seconds=0.2)
        catalogs = {"rir": NoiseCatalog([unit_impulse()])}
        direct = augment_rir(clean, catalogs["rir"], seed=8)
        routed = apply_augmentation(clean, "rir", catalogs, seed=8)
        np.testing.assert_array_equal(routed.samples, direct.samples)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            apply_augmentation(make_wave(seed=1, seconds=0.1), "codec", {}, seed=0)

    def test_missing_catalog_rejected(self):
        with pytest.raises(ValueError, match="catalog"):
            apply_augmentation(make_wave(seed=1, seconds=0.1), "music", {}, seed=0)

    def test_output_length_preserved_for_every_kind(self):
        clean = make_wave(seed=22, seconds=0.3)
        catalogs = {kind: small_catalog(seconds=0.1) for kind in ("speech", "music", "noise")}
        catalogs["rir"] = NoiseCatalog([unit_impulse(position=5, length=64)])
        for kind in ("speech", "music", "noise", "rir"):
            out = apply_augmentation(clean, kind, catalogs, seed=2)
            assert len(out) == len(clean)
