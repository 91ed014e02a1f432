import io
import tracemalloc
import wave as wave_mod

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_wave, per_crop
from svkit.audio import SAMPLE_RATE, Waveform, crop_segment, open_wav, read_wav, sample_count, write_wav
from svkit.cli import main
from svkit.features import FeatureParams
from svkit.scoring import N_CROPS, embed_utterances, plan_crops


def wav_bytes(frames: bytes) -> bytes:
    """A 16 kHz mono 16-bit WAV file holding `frames`."""
    buf = io.BytesIO()
    with wave_mod.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(frames)
    return buf.getvalue()


class TestWaveform:
    def test_holds_float64_samples(self):
        w = Waveform(np.array([0.0, 0.5, -0.5], dtype=np.float32))
        assert w.samples.dtype == np.float64
        assert len(w) == 3

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Waveform(np.array([]))
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]))


class TestWavIO:
    def test_round_trip_quantizes_to_int16_grid(self, tmp_path):
        w = make_wave(3, 0.25)
        path = tmp_path / "x.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert len(back) == len(w)
        assert_allclose(back.samples, w.samples, atol=0.5 / 32768)

    def test_second_cycle_is_bit_exact(self, tmp_path):
        w = make_wave(4, 0.25)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(p1, w)
        once = read_wav(p1)
        write_wav(p2, once)
        assert_array_equal(read_wav(p2).samples, once.samples)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave_mod.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(b"\x00" * 64)
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)

        path = tmp_path / "slow.wav"
        with wave_mod.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00" * 64)
        with pytest.raises(ValueError, match="8000"):
            read_wav(path)

    @pytest.mark.parametrize(
        "content",
        [
            b"RIFFxxxxWAVEjunk",
            b"RIFF",
            b"not a wav file",
            pytest.param(wav_bytes(b"\x01\x00\x02\x00")[:-1], id="data-ends-mid-sample"),
            pytest.param(wav_bytes(b""), id="no-frames"),
            pytest.param(wav_bytes(bytes(200))[:-100], id="data-chunk-shorter-than-header"),
            # fmt chunk size 16 -> 10**6, past the end of the file
            pytest.param(
                wav_bytes(bytes(200)).replace(b"fmt \x10\x00\x00\x00", b"fmt \x40\x42\x0f\x00"),
                id="chunk-size-past-end-of-file",
            ),
        ],
    )
    def test_malformed_file_raises_value_error_naming_path(self, tmp_path, capsys, content):
        path = tmp_path / "broken.wav"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="broken.wav"):
            read_wav(path)
        with pytest.raises(ValueError, match="broken.wav"):
            open_wav(path)
        assert main(["featurize", "--in", str(path), "--out", str(tmp_path / "o.svf1")]) == 2
        assert str(path) in capsys.readouterr().err


class TestTile:
    def test_repeats_end_to_end(self):
        w = Waveform(np.array([1.0, 2.0, 3.0]))
        [out] = w.windows([0], 8)
        assert_array_equal(out.samples, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0])
        assert len(out) >= 8

    def test_no_op_when_long_enough(self):
        # a window the waveform holds is a view of its samples
        w = Waveform(np.arange(5, dtype=float))
        for n in (5, 3):
            [out] = w.windows([0], n)
            assert_array_equal(out.samples, w.samples[:n])
            assert np.shares_memory(out.samples, w.samples)


class TestCropSegment:
    def test_offset_zero_is_prefix(self):
        w = make_wave(0, 10.0)
        out = crop_segment(w, 2.0, offset=0)
        assert_array_equal(out.samples, w.samples[:32000])

    def test_short_input_tiles(self):
        w = make_wave(1, 1.0)
        out = crop_segment(w, 2.0, offset=0)
        assert len(out) == 32000
        idx = np.arange(32000)
        assert_array_equal(out.samples, w.samples[idx % 16000])

    def test_exact_length_identity_for_any_seed(self):
        w = make_wave(2, 2.0)
        for seed in (0, 1, 99):
            assert_array_equal(crop_segment(w, 2.0, seed=seed).samples, w.samples)

    def test_seed_is_deterministic(self):
        w = make_wave(5, 6.0)
        a = crop_segment(w, 2.0, seed=123)
        b = crop_segment(w, 2.0, seed=123)
        assert_array_equal(a.samples, b.samples)
        starts = {crop_segment(w, 2.0, seed=s).samples[0] for s in range(8)}
        assert len(starts) > 1

    def test_offset_beyond_end_tiles(self):
        w = make_wave(6, 1.0)
        out = crop_segment(w, 1.0, offset=20000)
        idx = np.arange(20000, 36000)
        assert_array_equal(out.samples, w.samples[idx % 16000])

    def test_offset_far_past_the_end_costs_no_more_memory(self):
        w = make_wave(8, 1.0)
        tracemalloc.start()
        try:
            far = crop_segment(w, 1.0, offset=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        # 10**7 is a multiple of the waveform's 16,000 samples
        assert far.samples.tobytes() == crop_segment(w, 1.0, offset=0).samples.tobytes()

    def test_argument_validation(self):
        w = make_wave(7, 1.0)
        with pytest.raises(ValueError, match="exactly one"):
            crop_segment(w, 1.0)
        with pytest.raises(ValueError, match="exactly one"):
            crop_segment(w, 1.0, offset=0, seed=0)
        with pytest.raises(ValueError):
            crop_segment(w, 0.0, offset=0)
        with pytest.raises(ValueError):
            crop_segment(w, 1.0, offset=-1)


class TestSampleCount:
    def test_keeps_each_former_callers_float_expression(self):
        values = np.random.default_rng(0).uniform(0.0, 30.0, 10_000).tolist() + [0.025, 0.01, 4.0, 1 / 3]
        for value in values:
            assert sample_count(value) == int(round(value * SAMPLE_RATE))
            assert sample_count(value, 1000.0) == int(round(SAMPLE_RATE * value / 1000.0))

    def test_a_count_that_fits_an_intp_is_returned(self):
        assert sample_count(5e14) == 8 * 10**18

    @pytest.mark.parametrize("seconds", [1e15, 1e300, 1e305, np.inf, -1e300, np.nan])
    def test_a_count_past_an_intp_raises_value_error(self, seconds):
        with pytest.raises(ValueError, match="not an intp"):
            sample_count(seconds)

    @pytest.mark.parametrize("seconds", [1e300, 1e305])
    def test_its_callers_raise_value_error_not_overflow_error(self, seconds):
        w = make_wave(7, 0.1)
        with pytest.raises(ValueError, match="not an intp"):
            crop_segment(w, seconds, offset=0)
        with pytest.raises(ValueError, match="not an intp"):
            next(embed_utterances([w], per_crop(lambda crop: np.ones(4)), seconds, 1))
        for field in ("win_ms", "hop_ms"):
            with pytest.raises(ValueError, match="win_ms and hop_ms"):
                FeatureParams(**{field: seconds * 1000.0})


def with_chunk_after_data(content: bytes, chunk: bytes) -> bytes:
    """A WAV file's bytes with `chunk` appended and the RIFF size grown to match."""
    riff_size = int.from_bytes(content[4:8], "little") + len(chunk)
    return content[:4] + riff_size.to_bytes(4, "little") + content[8:] + chunk


class TestWavWindows:
    CROP = 4 * SAMPLE_RATE

    # below, at and above one crop, and an odd length
    @pytest.mark.parametrize("n_samples", [CROP // 3, CROP, CROP + 8, 5 * CROP // 2, CROP + 1001])
    def test_windows_match_crops_of_the_whole_file(self, tmp_path, n_samples):
        path = tmp_path / "x.wav"
        write_wav(path, make_wave(seed=n_samples, seconds=n_samples / SAMPLE_RATE))
        wav, whole = open_wav(path), read_wav(path)
        assert len(wav) == len(whole) == n_samples
        offsets = [*plan_crops(n_samples, self.CROP, N_CROPS).tolist(), n_samples - 1, n_samples + 5]
        for offset, window in zip(offsets, wav.windows(offsets, self.CROP), strict=True):
            want = crop_segment(whole, 4.0, offset=offset).samples
            assert window.samples.tobytes() == want.tobytes()
        for seed in range(5):
            got, want = crop_segment(wav, 4.0, seed=seed), crop_segment(whole, 4.0, seed=seed)
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_a_chunk_after_the_data_is_not_read_as_samples(self, tmp_path):
        path = tmp_path / "list.wav"
        frames = (np.arange(6 * SAMPLE_RATE) % 2000 - 1000).astype("<i2").tobytes()
        path.write_bytes(with_chunk_after_data(wav_bytes(frames), b"LIST\x0c\x00\x00\x00INFOISFT\x00\x00\x00\x00"))
        wav, whole = open_wav(path), read_wav(path)
        assert len(wav) == len(whole) == 6 * SAMPLE_RATE
        assert whole.samples.tobytes() == (np.frombuffer(frames, "<i2") / 32768.0).tobytes()
        offsets = plan_crops(len(wav), self.CROP, N_CROPS).tolist()
        for offset, window in zip(offsets, wav.windows(offsets, self.CROP), strict=True):
            assert window.samples.tobytes() == crop_segment(whole, 4.0, offset=offset).samples.tobytes()

    def test_header_check_reads_no_samples(self, tmp_path, monkeypatch):
        path = tmp_path / "x.wav"
        write_wav(path, make_wave(seed=1, seconds=2.0))
        reads = []
        readframes = wave_mod.Wave_read.readframes
        monkeypatch.setattr(wave_mod.Wave_read, "readframes", lambda f, n: reads.append(n) or readframes(f, n))
        assert len(open_wav(path)) == 2 * SAMPLE_RATE
        assert reads == [1]  # the last declared frame, to check the file holds it

    def test_read_wav_opens_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "x.wav"
        write_wav(path, make_wave(seed=1, seconds=2.0))
        reads = []
        readframes = wave_mod.Wave_read.readframes
        monkeypatch.setattr(wave_mod.Wave_read, "readframes", lambda f, n: reads.append(n) or readframes(f, n))
        assert len(read_wav(path)) == 2 * SAMPLE_RATE
        assert reads == [1, 2 * SAMPLE_RATE]  # the header check's last frame, then every frame

    def test_a_file_cut_short_after_its_header_was_read_names_it(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, make_wave(seed=2, seconds=2.0))
        wav = open_wav(path)
        path.write_bytes(path.read_bytes()[: -SAMPLE_RATE])
        windows = wav.windows([0, SAMPLE_RATE], SAMPLE_RATE // 2)
        with pytest.raises(ValueError, match="cut.wav"):
            list(windows)


class TestWindowRule:
    """A window of a signal in memory or in a WAV is cut from the signal
    repeated end to end, as np.resize repeats it."""

    FIVE_MINUTES = 300 * SAMPLE_RATE

    @pytest.mark.parametrize("length", [1, 7, 1600, 16000, 16001, 40000])
    def test_every_window_is_the_signal_repeated_end_to_end(self, tmp_path, length):
        # on the int16 grid, so the WAV holds the same samples
        samples = np.random.default_rng(length).integers(-32768, 32768, length) / 32768.0
        write_wav(tmp_path / "x.wav", Waveform(samples))
        sources = {"memory": Waveform(samples), "wav": open_wav(tmp_path / "x.wav")}
        for n in (1, 100, 16000, 64000):
            starts = (0, 3, length - 1, length, length + 3, 5 * length + 2, 40000, length - n, length - n + 1)
            offsets = [offset for offset in starts if offset >= 0]
            want = [np.resize(samples, offset + n)[offset:].tobytes() for offset in offsets]
            for name, source in sources.items():
                assert [w.samples.tobytes() for w in source.windows(offsets, n)] == want, (name, n)

    @pytest.mark.parametrize("kind", ["memory", "wav"])
    def test_a_window_wrapping_a_long_signal_holds_only_the_window(self, tmp_path, kind):
        # +0.0 where zero: a WAV decodes -0.0 as +0.0
        samples = (np.arange(self.FIVE_MINUTES) % 2001 - 1000) / 32768.0
        source = Waveform(samples)
        if kind == "wav":
            write_wav(tmp_path / "long.wav", source)
            source = open_wav(tmp_path / "long.wav")
        for offset in (self.FIVE_MINUTES - 100, 2 * self.FIVE_MINUTES - 100):
            want = np.resize(samples, offset + SAMPLE_RATE)[offset:].tobytes()
            tracemalloc.start()
            try:
                [window] = source.windows([offset], SAMPLE_RATE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert window.samples.tobytes() == want
            assert peak < 1 << 20
