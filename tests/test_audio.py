import io
import wave as wave_mod

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_wave
from svkit.audio import SAMPLE_RATE, Waveform, crop_segment, read_wav, tile_to_length, write_wav
from svkit.cli import main


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
        assert main(["featurize", "--in", str(path), "--out", str(tmp_path / "o.svf1")]) == 2
        assert str(path) in capsys.readouterr().err


class TestTile:
    def test_repeats_end_to_end(self):
        w = Waveform(np.array([1.0, 2.0, 3.0]))
        out = tile_to_length(w, 8)
        assert_array_equal(out.samples, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0])
        assert len(out) >= 8

    def test_no_op_when_long_enough(self):
        w = Waveform(np.arange(5, dtype=float))
        assert tile_to_length(w, 5) is w
        assert tile_to_length(w, 3) is w


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
