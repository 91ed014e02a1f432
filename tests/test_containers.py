import numpy as np
import pytest
from numpy.testing import assert_array_equal

from svkit.containers import (
    FormatError,
    load_features,
    load_tensors,
    save_features,
    save_tensors,
)


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((201, 64)).astype(np.float32)
        path = tmp_path / "f.svf1"
        save_features(path, values)
        back = load_features(path)
        assert back.dtype == np.float32
        assert_array_equal(back, values)

    def test_header_layout(self, tmp_path):
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "f.svf1"
        save_features(path, values)
        raw = path.read_bytes()
        assert raw[:4] == b"SVF1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 3
        assert len(raw) == 12 + 6 * 4
        # row-major: second row starts at element 3
        assert np.frombuffer(raw, dtype="<f4", offset=12)[3] == 3.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.svf1"
        save_features(path, np.zeros((2, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_features(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "f.svf1"
        save_features(path, np.zeros((4, 4), dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.svf1"
        save_features(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_features(path)

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)])
    def test_only_2d_arrays_are_saved(self, tmp_path, shape):
        path = tmp_path / "f.svf1"
        with pytest.raises(ValueError, match="stores 2-D arrays"):
            save_features(path, np.zeros(shape, dtype=np.float32))
        assert not path.exists()


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "conv1.weight": rng.standard_normal((3, 3, 1, 16)).astype(np.float32),
            "embed.bias": rng.standard_normal(512).astype(np.float32),
            "scalarish": np.float32(2.5).reshape(()),  # rank-0
        }
        path = tmp_path / "w.svw1"
        save_tensors(path, tensors)
        back = load_tensors(path)
        assert set(back) == set(tensors)
        for name, t in tensors.items():
            assert back[name].dtype == np.float32
            assert back[name].shape == t.shape
            assert_array_equal(back[name], t)

    def test_strided_tensors_are_written_in_c_order(self, tmp_path):
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        tensors = {"transposed": base.T, "stepped": base[:, ::2], "fortran": np.asfortranarray(base)}
        path = tmp_path / "w.svw1"
        save_tensors(path, tensors)
        for name, arr in load_tensors(path).items():
            assert_array_equal(arr, tensors[name])

    def test_unicode_names_survive(self, tmp_path):
        tensors = {"weights/étage.0": np.ones(3, dtype=np.float32)}
        path = tmp_path / "w.svw1"
        save_tensors(path, tensors)
        assert_array_equal(load_tensors(path)["weights/étage.0"], tensors["weights/étage.0"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.svw1"
        save_tensors(path, {"a": np.zeros(2, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_tensors(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "w.svw1"
        save_tensors(path, {"a": np.zeros(8, dtype=np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        with pytest.raises(FormatError):
            load_tensors(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "w.svw1"
        save_tensors(path, {"a": np.zeros(8, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"!!")
        with pytest.raises(FormatError):
            load_tensors(path)

    def test_empty_mapping_round_trips(self, tmp_path):
        path = tmp_path / "w.svw1"
        save_tensors(path, {})
        assert load_tensors(path) == {}

    def test_metadata_records_are_kept_apart_from_tensors(self, tmp_path):
        path = tmp_path / "c.svw1"
        tensors = {"/data/a.wav": np.ones((2, 3), dtype=np.float32)}
        save_tensors(path, tensors, ("#built-with x=1",))
        assert set(load_tensors(path)) == {"/data/a.wav"}
        records: list[str] = []
        back = load_tensors(path, records)
        assert records == ["#built-with x=1"]
        assert_array_equal(back["/data/a.wav"], tensors["/data/a.wav"])

    def test_record_of_any_rank_is_kept(self, tmp_path):
        # A record's data is skipped unread, so no array of its rank is made.
        path = tmp_path / "c.svw1"
        path.write_bytes(b"SVW1\x01\x00\x00\x00\x02\x00#r\xff" + b"\x01\x00\x00\x00" * 255 + b"\x00" * 4)
        records: list[str] = []
        assert load_tensors(path, records) == {}
        assert records == ["#r"]

    def test_name_over_65535_bytes_rejected(self, tmp_path):
        longest = "\u00e9" * 0x7FFF + "x"  # 65,535 bytes of UTF-8
        save_tensors(tmp_path / "a.svw1", {longest: np.zeros(1)})
        assert list(load_tensors(tmp_path / "a.svw1")) == [longest]
        with pytest.raises(ValueError, match="tensor name too long"):
            save_tensors(tmp_path / "b.svw1", {longest + "x": np.zeros(1)})

    def test_record_and_tensor_names_must_not_mix(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "a.svw1", {}, ("no-hash",))
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "b.svw1", {"#looks-like-a-record": np.zeros(1)})

    def test_loaded_tensors_are_aligned_contiguous_and_own_their_data(self, tmp_path):
        tensors = {
            "odd": np.arange(3, dtype=np.float32),  # leaves the next tensor 4-byte offset
            "conv": np.ones((3, 3, 2, 5), dtype=np.float32),
            "scalar": np.float32(1.5).reshape(()),
            "empty": np.zeros((0, 4), dtype=np.float32),
        }
        path = tmp_path / "w.svw1"
        save_tensors(path, tensors, ("#record",))
        for name, arr in load_tensors(path).items():
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.owndata, name
            assert arr.flags.writeable, name
            assert_array_equal(arr, tensors[name])

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "w.svw1"
        save_tensors(path, {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes().replace(b"\x01\x00b", b"\x01\x00a"))
        with pytest.raises(FormatError, match="duplicate"):
            load_tensors(path)

    @pytest.mark.parametrize("keep", [6, 9, 12])
    def test_header_cut_short_rejected(self, tmp_path, keep):
        path = tmp_path / "w.svw1"
        save_tensors(path, {"abc": np.zeros(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError):
            load_tensors(path)
