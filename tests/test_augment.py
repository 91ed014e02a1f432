"""Tests for additive-noise and reverberation augmentation."""

import numpy as np
import pytest

from conftest import make_wave
from oracles import direct_convolution, measure_snr_db, mix_at_snr
from svkit import augment
from svkit.audio import Waveform, write_wav
from svkit.augment import (
    ADDITIVE_DEFAULTS,
    DEFAULT_RIR_GAIN_DB,
    DIRECT_TAPS,
    AugmentSpec,
    NoiseCatalog,
    augment_additive,
    augment_rir,
    plan_additive,
    scan_catalogs,
    snr_gain,
)


def constant_power_wave(power: float, n: int = 1600) -> np.ndarray:
    return np.full(n, np.sqrt(power))


class TestMeasureSnr:
    def test_equal_power_is_zero_db(self):
        clean = constant_power_wave(0.25)
        noise = -clean
        assert measure_snr_db(clean, noise) == pytest.approx(0.0, abs=1e-12)

    def test_hundred_to_one_power_ratio_is_twenty_db(self):
        clean = constant_power_wave(1.0)
        noise = constant_power_wave(0.01)
        assert measure_snr_db(clean, noise) == pytest.approx(20.0, abs=1e-9)

    def test_matches_direct_formula_on_random_signals(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            clean = rng.normal(size=800)
            noise = rng.normal(scale=0.3, size=800)
            expected = 10.0 * np.log10(np.mean(clean**2) / np.mean(noise**2))
            assert measure_snr_db(clean, noise) == pytest.approx(expected, rel=1e-12)

    def test_zero_power_clean_rejected(self):
        with pytest.raises(ValueError, match="clean"):
            measure_snr_db(np.zeros(100), constant_power_wave(1.0, 100))

    def test_zero_power_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            measure_snr_db(constant_power_wave(1.0, 100), np.zeros(100))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            measure_snr_db(constant_power_wave(1.0, 100), constant_power_wave(1.0, 99))


class TestMixAtSnr:
    def test_equal_power_zero_db_gain_is_one(self):
        clean = make_wave(seed=1, seconds=0.1).samples
        noise = clean[::-1].copy()
        mixed = mix_at_snr(clean, noise, 0.0)
        np.testing.assert_allclose(mixed, clean + noise, rtol=1e-12)

    def test_twenty_db_gain_is_one_tenth(self):
        clean = constant_power_wave(1.0)
        noise = np.where(np.arange(1600) % 2 == 0, 1.0, -1.0)  # power exactly 1
        mixed = mix_at_snr(clean, noise, 20.0)
        np.testing.assert_allclose(mixed - clean, 0.1 * noise, rtol=1e-12)

    def test_measured_snr_hits_target(self):
        rng = np.random.default_rng(7)
        clean = rng.normal(size=4000)
        noise = rng.normal(size=4000)
        for target in (-5.0, 0.0, 7.3, 20.0):
            mixed = mix_at_snr(clean, noise, target)
            assert measure_snr_db(clean, mixed - clean) == pytest.approx(target, abs=1e-6)

    def test_huge_target_leaves_signal_untouched(self):
        clean = make_wave(seed=2, seconds=0.1).samples
        noise = make_wave(seed=3, seconds=0.1).samples
        mixed = mix_at_snr(clean, noise, 300.0)
        np.testing.assert_allclose(mixed, clean, atol=1e-12)

    def test_snr_gain_formula(self):
        assert snr_gain(4.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
        assert snr_gain(1.0, 1.0, 10.0) == pytest.approx(10.0**-0.5, rel=1e-12)

    @pytest.mark.parametrize("snr_db,message", [
        (4000.0, "is not a finite positive float"),  # ratio inf
        (-4000.0, "is not a finite positive float"),  # ratio 0
        (-3100.0, "no finite gain"),  # clean power over the scaled noise power is inf
        (-3230.0, "no finite gain"),  # the scaled noise power underflows to 0
    ])
    def test_snr_with_no_finite_gain_raises_value_error(self, snr_db, message):
        with pytest.raises(ValueError, match=message):
            snr_gain(0.5, 0.03, snr_db)

    def test_zero_power_inputs_rejected(self):
        live = constant_power_wave(1.0, 100)
        dead = np.zeros(100)
        with pytest.raises(ValueError):
            mix_at_snr(dead, live, 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(live, dead, 0.0)


class TestAugmentSpec:
    def test_per_kind_defaults(self):
        assert ADDITIVE_DEFAULTS == {
            "speech": ((3, 7), (13.0, 20.0)),
            "music": ((1, 1), (5.0, 15.0)),
            "noise": ((1, 1), (0.0, 15.0)),
        }

    def test_ranges_have_no_defaults(self):
        # A kind's ranges come from ADDITIVE_DEFAULTS or the caller, never
        # from another kind's.
        with pytest.raises(TypeError):
            AugmentSpec("music", 0)
        with pytest.raises(TypeError):
            AugmentSpec("music", 0, (1, 1))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AugmentSpec("rir", 0, (1, 1), (0.0, 15.0))

    def test_bad_count_range_rejected(self):
        snrs = ADDITIVE_DEFAULTS["music"][1]
        with pytest.raises(ValueError, match="count"):
            AugmentSpec("music", 0, (0, 1), snrs)
        with pytest.raises(ValueError, match="count"):
            AugmentSpec("music", 0, (3, 2), snrs)

    def test_bad_snr_range_rejected(self):
        with pytest.raises(ValueError, match="SNR"):
            AugmentSpec("music", 0, (1, 1), (5.0, 4.0))


def small_catalog(n_entries: int = 4, seconds: float = 0.2) -> NoiseCatalog:
    entries = [make_wave(seed=100 + i, seconds=seconds) for i in range(n_entries)]
    return NoiseCatalog(entries)


class TestPlanAdditive:
    def test_same_seed_gives_identical_draws(self):
        cat = small_catalog()
        spec = AugmentSpec("music", 42, *ADDITIVE_DEFAULTS["music"])
        assert list(plan_additive(1600, cat, spec)) == list(plan_additive(1600, cat, spec))

    def test_speech_count_within_bounds(self):
        cat = small_catalog()
        counts = set()
        for seed in range(30):
            draws = list(plan_additive(1600, cat, AugmentSpec("speech", seed, *ADDITIVE_DEFAULTS["speech"])))
            counts.add(len(draws))
            for draw in draws:
                assert 13.0 <= draw.snr_db <= 20.0
        assert counts <= {3, 4, 5, 6, 7}
        assert len(counts) > 1  # the count is actually drawn, not fixed

    def test_music_always_single_draw(self):
        cat = small_catalog()
        for seed in range(10):
            draws = list(plan_additive(1600, cat, AugmentSpec("music", seed, *ADDITIVE_DEFAULTS["music"])))
            assert len(draws) == 1
            assert 5.0 <= draws[0].snr_db <= 15.0

    def test_offsets_stay_within_tiled_slack(self):
        cat = small_catalog(seconds=0.3)  # 4800 samples per entry
        clean_length = 4000
        for seed in range(20):
            spec = AugmentSpec("noise", seed, *ADDITIVE_DEFAULTS["noise"])
            for draw in plan_additive(clean_length, cat, spec):
                noise_len = len(cat.get(draw.catalog_index))
                assert 0 <= draw.catalog_index < len(cat)
                assert 0 <= draw.crop_offset <= noise_len - clean_length

    def test_long_clean_tiles_noise(self):
        cat = small_catalog(seconds=0.1)  # 1600-sample entries
        clean_length = 4000  # needs ceil(4000/1600) = 3 tiles -> 4800
        for seed in range(10):
            spec = AugmentSpec("noise", seed, *ADDITIVE_DEFAULTS["noise"])
            for draw in plan_additive(clean_length, cat, spec):
                assert 0 <= draw.crop_offset <= 4800 - clean_length

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            list(plan_additive(1600, NoiseCatalog([]), AugmentSpec("music", 0, *ADDITIVE_DEFAULTS["music"])))

    def test_range_from_zero_to_negative_zero_draws_zero(self):  # numpy's uniform rejects that order
        [draw] = plan_additive(1600, small_catalog(), AugmentSpec("noise", 0, (1, 1), (0.0, -0.0)))
        assert draw.snr_db == 0.0


class TestAugmentAdditive:
    def test_same_seed_is_bit_identical(self):
        clean = make_wave(seed=5, seconds=0.2)
        cat = small_catalog()
        spec = AugmentSpec("speech", 9, *ADDITIVE_DEFAULTS["speech"])
        first = augment_additive(clean, cat, spec)
        second = augment_additive(clean, cat, spec)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_output_length_matches_input(self):
        clean = make_wave(seed=6, seconds=0.37)
        cat = small_catalog(seconds=0.11)
        out = augment_additive(clean, cat, AugmentSpec("speech", 1, *ADDITIVE_DEFAULTS["speech"]))
        assert len(out) == len(clean)

    @pytest.mark.parametrize("kind", ADDITIVE_DEFAULTS)
    def test_output_length_preserved_for_every_additive_kind(self, kind):
        clean = make_wave(seed=22, seconds=0.3)
        out = augment_additive(clean, small_catalog(seconds=0.1), AugmentSpec(kind, 2, *ADDITIVE_DEFAULTS[kind]))
        assert len(out) == len(clean)

    def test_single_noise_residual_hits_drawn_snr(self):
        clean = make_wave(seed=7, seconds=0.25)
        cat = small_catalog()
        for seed in range(10):
            spec = AugmentSpec("noise", seed, *ADDITIVE_DEFAULTS["noise"])
            (draw,) = plan_additive(len(clean), cat, spec)
            out = augment_additive(clean, cat, spec)
            residual = out.samples - clean.samples
            assert measure_snr_db(clean.samples, residual) == pytest.approx(draw.snr_db, abs=1e-6)

    def test_multi_noise_matches_reconstruction_from_plan(self):
        clean = make_wave(seed=8, seconds=0.2)
        cat = small_catalog(seconds=0.15)
        spec = AugmentSpec("speech", 11, *ADDITIVE_DEFAULTS["speech"])
        expected = clean.samples.copy()
        p_clean = np.mean(clean.samples**2)
        for draw in plan_additive(len(clean), cat, spec):
            samples = cat.get(draw.catalog_index).samples
            chunk = np.resize(samples, len(clean) + draw.crop_offset)[draw.crop_offset :]
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
        open_wav = augment.open_wav
        monkeypatch.setattr(augment, "open_wav", lambda path: reads.append(path) or open_wav(path))
        clean = make_wave(seed=8, seconds=0.2)
        for seed in range(5):
            spec = AugmentSpec("speech", seed, *ADDITIVE_DEFAULTS["speech"])
            draws = list(plan_additive(len(clean), NoiseCatalog(waves), spec))
            reads.clear()
            augment_additive(clean, NoiseCatalog(paths), spec)
            assert reads == [paths[draw.catalog_index] for draw in draws]

    def test_zero_power_clean_rejected(self):
        cat = small_catalog()
        with pytest.raises(ValueError, match="zero power"):
            augment_additive(
                Waveform(np.zeros(1600)), cat, AugmentSpec("noise", 0, *ADDITIVE_DEFAULTS["noise"])
            )

    def test_zero_power_catalog_entry_rejected(self):
        clean = make_wave(seed=9, seconds=0.1)
        cat = NoiseCatalog([Waveform(np.zeros(1600))])
        with pytest.raises(ValueError, match="zero power"):
            augment_additive(clean, cat, AugmentSpec("noise", 0, *ADDITIVE_DEFAULTS["noise"]))

    def test_zero_power_entry_is_named_by_its_path_or_index(self, tmp_path):
        clean = make_wave(seed=9, seconds=0.1)
        write_wav(tmp_path / "silent.wav", Waveform(np.zeros(1600)))
        spec = AugmentSpec("noise", 0, *ADDITIVE_DEFAULTS["noise"])
        with pytest.raises(ValueError, match="^catalog entry 0 has zero power$"):
            augment_additive(clean, NoiseCatalog([Waveform(np.zeros(1600))]), spec)
        with pytest.raises(ValueError) as exc:
            augment_additive(clean, NoiseCatalog([tmp_path / "silent.wav"]), spec)
        assert str(exc.value) == f"{tmp_path / 'silent.wav'}: catalog entry 0 has zero power"

    def test_entry_with_no_finite_gain_is_named_by_its_path(self, tmp_path):
        write_wav(tmp_path / "noise.wav", make_wave(seed=3, seconds=0.1))
        spec = AugmentSpec("noise", 0, (1, 1), (-3230.0, -3230.0))  # its power times 1e-323 underflows to 0
        with pytest.raises(ValueError) as exc:
            augment_additive(make_wave(seed=9, seconds=0.1), NoiseCatalog([tmp_path / "noise.wav"]), spec)
        assert str(exc.value).startswith(f"{tmp_path / 'noise.wav'}: catalog entry 0: noise of power ")
        assert str(exc.value).endswith(" has no finite gain to -3230.0 dB SNR")


def unit_impulse(position: int = 0, length: int = 16) -> Waveform:
    samples = np.zeros(length)
    samples[position] = 1.0
    return Waveform(samples)


# (response taps, clean samples): responses inside, at and past the direct
# head, and clean audio shorter than, as long as and longer than both.
RIR_CASES = [
    (taps, n)
    for taps in (1, DIRECT_TAPS, DIRECT_TAPS + 1, 4800, 16000)
    for n in sorted({DIRECT_TAPS - 1, DIRECT_TAPS, DIRECT_TAPS + 1, max(taps - 1, 1), taps, taps + 1, taps + 8003})
]


class TestAugmentRir:
    def test_unit_impulse_at_zero_db_is_bit_exact_identity(self):
        clean = make_wave(seed=10, seconds=0.2)
        cat = NoiseCatalog([unit_impulse()])
        out = augment_rir(clean, cat, seed=3, gain_db_range=(0.0, 0.0))
        np.testing.assert_array_equal(out.samples, clean.samples)

    def test_gain_range_from_zero_to_negative_zero_is_identity(self):  # numpy's uniform rejects that order
        clean = make_wave(seed=10, seconds=0.2)
        out = augment_rir(clean, NoiseCatalog([unit_impulse()]), seed=3, gain_db_range=(0.0, -0.0))
        np.testing.assert_array_equal(out.samples, clean.samples)

    @pytest.mark.parametrize("gain_db,message", [
        (7000.0, "is not a finite positive float"),  # ratio inf
        (6160.0, "RIR entry 0 at 6160.0 dB gain gives non-finite samples"),  # a finite ratio, an output past it
    ])
    def test_gain_with_no_finite_output_raises_value_error(self, gain_db, message):
        cat = NoiseCatalog([Waveform(make_wave(seed=11, seconds=0.05).samples)])
        with pytest.raises(ValueError, match=message):
            augment_rir(make_wave(seed=10, seconds=0.2), cat, seed=3, gain_db_range=(gain_db, gain_db))

    def test_long_unit_impulse_at_zero_db_is_bit_exact_identity(self):
        clean = make_wave(seed=14, seconds=0.5)
        cat = NoiseCatalog([unit_impulse(length=4800)])
        out = augment_rir(clean, cat, seed=3, gain_db_range=(0.0, 0.0))
        np.testing.assert_array_equal(out.samples, clean.samples)

    @pytest.mark.parametrize(("taps", "n"), RIR_CASES)
    def test_matches_direct_convolution(self, taps, n):
        # Exact up to DIRECT_TAPS taps, where no FFT runs; within 1e-12 past it.
        rng = np.random.default_rng([taps, n])
        clean = rng.uniform(-1.0, 1.0, n)
        rir = rng.standard_normal(taps) * np.exp(-np.arange(taps) / 800.0)
        out = augment_rir(Waveform(clean), NoiseCatalog([Waveform(rir)]), seed=0, gain_db_range=(-3.0, -3.0))
        want = direct_convolution(clean, rir * (10.0 ** (-3.0 / 20.0) / np.sqrt(np.sum(rir * rir))), n)
        assert out.samples.shape == (n,)
        if taps <= DIRECT_TAPS:
            np.testing.assert_array_equal(out.samples, want)
        else:
            assert np.max(np.abs(out.samples - want)) <= 1e-12

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
        first = augment_rir(clean, cat, seed=5, gain_db_range=DEFAULT_RIR_GAIN_DB)
        second = augment_rir(clean, cat, seed=5, gain_db_range=DEFAULT_RIR_GAIN_DB)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_energy_normalization_removes_rir_scale(self):
        # The impulse response is normalized to unit energy before the gain
        # applies, so a globally rescaled response gives identical output.
        clean = make_wave(seed=12, seconds=0.1)
        rng = np.random.default_rng(4)
        rir = rng.normal(size=32)
        out_base = augment_rir(clean, NoiseCatalog([Waveform(rir)]), seed=2, gain_db_range=DEFAULT_RIR_GAIN_DB)
        out_scaled = augment_rir(clean, NoiseCatalog([Waveform(rir * 7.5)]), seed=2, gain_db_range=DEFAULT_RIR_GAIN_DB)
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
            augment_rir(make_wave(seed=1, seconds=0.1), NoiseCatalog([]), seed=0, gain_db_range=DEFAULT_RIR_GAIN_DB)

    def test_zero_energy_rir_rejected(self):
        cat = NoiseCatalog([Waveform(np.zeros(16))])
        with pytest.raises(ValueError, match="zero energy"):
            augment_rir(make_wave(seed=1, seconds=0.1), cat, seed=0, gain_db_range=DEFAULT_RIR_GAIN_DB)

    def test_zero_energy_entry_is_named_by_its_path_or_index(self, tmp_path):
        clean = make_wave(seed=1, seconds=0.1)
        write_wav(tmp_path / "silent.wav", Waveform(np.zeros(16)))
        with pytest.raises(ValueError, match="^RIR entry 0 has zero energy$"):
            augment_rir(clean, NoiseCatalog([Waveform(np.zeros(16))]), seed=0, gain_db_range=DEFAULT_RIR_GAIN_DB)
        with pytest.raises(ValueError) as exc:
            augment_rir(clean, NoiseCatalog([tmp_path / "silent.wav"]), seed=0, gain_db_range=DEFAULT_RIR_GAIN_DB)
        assert str(exc.value) == f"{tmp_path / 'silent.wav'}: RIR entry 0 has zero energy"

    def test_output_length_preserved(self):
        clean = make_wave(seed=22, seconds=0.3)
        cat = NoiseCatalog([unit_impulse(position=5, length=64)])
        out = augment_rir(clean, cat, seed=2, gain_db_range=DEFAULT_RIR_GAIN_DB)
        assert len(out) == len(clean)


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
        opened = catalogs["music"].get(0)  # the header only; windows are read on demand
        assert len(opened) == len(wave)
        [whole] = opened.windows([0], len(opened))
        np.testing.assert_allclose(whole.samples, wave.samples, atol=1.0 / 32768.0)
