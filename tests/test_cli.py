"""End-to-end tests for the command-line interface.

Each test drives main() in process and checks exit codes: 0 success,
1 usage error, 2 data error.
"""

import hashlib
import itertools
import pathlib
import stat

import numpy as np
import pytest

from conftest import make_wave
from oracles import report_from_text
from svkit import cli, containers, scoring
from svkit.audio import Waveform, read_wav, write_wav
from svkit.cli import main
from svkit.containers import load_tensors, save_features, save_tensors
from svkit.features import FeatureParams, extract_features
from svkit.metrics import DCFParams, EvalReport, ScoreSet, evaluate, read_scores, read_trials, write_scores


@pytest.fixture
def wav_file(tmp_path):
    path = tmp_path / "utt.wav"
    write_wav(path, make_wave(seed=0, seconds=0.3))
    return path


@pytest.fixture(scope="module")
def q_weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "q.svw1"
    assert main(["init", "--variant", "q-sap", "--out", str(path), "--seed", "0"]) == 0
    return path


def count_crops(monkeypatch) -> list:
    """Make the CLI's embedder record each crop it embeds in the returned list."""
    load_embedder = cli._load_embedder
    calls = []

    def counting(path):
        embed = load_embedder(path)
        return lambda crop: calls.append(crop) or embed(crop)

    monkeypatch.setattr(cli, "_load_embedder", counting)
    return calls


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["info", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_subcommand_exits_one(self):
        assert main([]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["featurize", "--out", "x.svf1"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("evaluate", ["--p-target", "2"]),
        ("evaluate", ["--c-miss", "0"]),
        ("train-demo", ["--decay-factor", "0"]),
        ("train-demo", ["--margin", "-1"]),
        ("embed", ["--n-crops", "0"]),
        ("embed", ["--crop-seconds", "0"]),
        ("embed", ["--crop-seconds", "nan"]),
        ("score", ["--crop-seconds", "0.00003"]),
        ("score", ["--n-crops", "-1"]),
    ])
    def test_bad_flag_value_is_a_usage_error_before_any_file_is_read(self, tmp_path, command, flag, capsys):
        missing = str(tmp_path / "missing")  # every input file is missing
        argv = {
            "evaluate": ["--scores", missing, "--trials", missing],
            "train-demo": ["--history", str(tmp_path / "history.csv")],
            "embed": [missing, "--weights", missing, "--out", str(tmp_path / "out")],
            "score": ["--trials", missing, "--weights", missing, "--out", str(tmp_path / "out")],
        }[command]
        assert main([command, *argv, *flag]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag,named", [
        ("augment", ["--kind", "noise", "--snr-min", "nan"], "--snr-min"),
        ("augment", ["--kind", "speech", "--snr-max", "inf"], "--snr-max"),
        ("augment", ["--kind", "rir", "--gain-min", "nan"], "--gain-min"),
        ("augment", ["--kind", "rir", "--gain-max=-inf"], "--gain-max"),
        ("augment", ["--kind", "music", "--count-min", "0"], "--count-min"),
        ("augment", ["--kind", "noise", "--snr-min", "9", "--snr-max", "3"], "--snr-min"),
        ("augment", ["--kind", "music", "--snr-min", "20"], "--snr-max"),  # past music's default max
        ("augment", ["--kind", "speech", "--count-max", "2"], "--count-max"),  # below speech's default min
        ("augment", ["--kind", "rir", "--gain-min", "1"], "--gain-max"),
        ("featurize", ["--crop-seconds", "nan"], "--crop-seconds"),
        ("featurize", ["--crop-seconds", "0"], "--crop-seconds"),
        ("featurize", ["--crop-seconds", "1", "--offset", "-5"], "--offset"),
        ("featurize", ["--seed", "3"], "--crop-seconds"),
        ("train-demo", ["--speakers", "1"], "--speakers"),
        ("train-demo", ["--utts", "1"], "--utts"),
        ("train-demo", ["--dim", "0"], "--dim"),
        ("train-demo", ["--trials", "0"], "--trials"),
        ("train-demo", ["--epochs", "-1"], "--epochs"),
        ("train-demo", ["--lr0", "nan"], "--lr0"),
    ])
    def test_bad_flag_is_a_usage_error_naming_it_before_any_file_is_read(
        self, tmp_path, command, flag, named, capsys
    ):
        missing = str(tmp_path / "missing.wav")  # read after the checks, it would exit 2
        argv = {
            "augment": ["--in", missing, "--out", str(tmp_path / "o.wav"), "--catalog", str(tmp_path)],
            "featurize": ["--in", missing, "--out", str(tmp_path / "o.svf1")],
            "train-demo": ["--history", str(tmp_path / "history.csv")],
        }[command]
        assert main([command, *argv, *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert named in err
        assert list(tmp_path.iterdir()) == []


class TestFeaturize:
    def test_repeat_runs_are_bit_identical(self, tmp_path, wav_file):
        out1, out2 = tmp_path / "a.svf1", tmp_path / "b.svf1"
        args = ["featurize", "--in", str(wav_file)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seeded_crop_is_deterministic(self, tmp_path, wav_file):
        out1, out2 = tmp_path / "a.svf1", tmp_path / "b.svf1"
        args = ["featurize", "--in", str(wav_file), "--crop-seconds", "0.1", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_info_reports_feature_shape(self, tmp_path, wav_file, capsys):
        out = tmp_path / "a.svf1"
        assert main(["featurize", "--in", str(wav_file), "--out", str(out)]) == 0
        assert main(["info", "--features", str(out)]) == 0
        text = capsys.readouterr().out
        assert "frames=31" in text  # 0.3 s at a 10 ms hop
        assert "mels=64" in text

    def test_offset_requires_crop(self, wav_file, tmp_path):
        code = main(
            ["featurize", "--in", str(wav_file), "--out", str(tmp_path / "o.svf1"), "--offset", "0"]
        )
        assert code == 1

    def test_offset_and_seed_are_exclusive(self, wav_file, tmp_path):
        code = main(
            ["featurize", "--in", str(wav_file), "--out", str(tmp_path / "o.svf1"),
             "--crop-seconds", "0.1", "--offset", "0", "--seed", "1"]
        )
        assert code == 1

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["featurize", "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o.svf1")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_wav_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxWAVEjunk")
        assert main(["featurize", "--in", str(bad), "--out", str(tmp_path / "o.svf1")]) == 2
        assert "bad.wav" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--win-ms", "0"], ["--hop-ms", "0"], ["--fft-size", "100"], ["--n-mels", "0"], ["--win-ms", "inf"]]
    )
    def test_bad_feature_flag_is_a_usage_error_before_the_wav_is_read(self, tmp_path, flag, monkeypatch, capsys):
        def no_read(path):
            raise AssertionError("the WAV was read")

        monkeypatch.setattr(cli, "read_wav", no_read)
        out = tmp_path / "o.svf1"
        assert main(["featurize", "--in", str(tmp_path / "a.wav"), "--out", str(out), *flag]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [[], ["--no-normalize"]])
    def test_wav_shorter_than_one_hop_exits_two_naming_it(self, tmp_path, flag, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, make_wave(seed=0, seconds=0.005))
        assert main(["featurize", "--in", str(short), "--out", str(tmp_path / "o.svf1"), *flag]) == 2
        assert capsys.readouterr().err == f"error: {short}: waveform too short: 80 samples < one hop (160)\n"

    def test_no_normalize_changes_output(self, tmp_path, wav_file):
        norm, raw = tmp_path / "n.svf1", tmp_path / "r.svf1"
        assert main(["featurize", "--in", str(wav_file), "--out", str(norm)]) == 0
        assert main(["featurize", "--in", str(wav_file), "--out", str(raw), "--no-normalize"]) == 0
        assert norm.read_bytes() != raw.read_bytes()

    @staticmethod
    def library_bytes(tmp_path, wav_file, params: FeatureParams) -> bytes:
        path = tmp_path / "library.svf1"
        save_features(path, extract_features(read_wav(wav_file), params).values)
        return path.read_bytes()

    def test_defaults_match_library_defaults(self, tmp_path, wav_file):
        out = tmp_path / "cli.svf1"
        assert main(["featurize", "--in", str(wav_file), "--out", str(out)]) == 0
        assert out.read_bytes() == self.library_bytes(tmp_path, wav_file, FeatureParams())

    @pytest.mark.parametrize(
        "flag, field, value",
        [
            ("--preemphasis", "preemphasis", 0.9),
            ("--win-ms", "win_ms", 20.0),
            ("--hop-ms", "hop_ms", 15.0),
            ("--fft-size", "fft_size", 1024),
            ("--n-mels", "n_mels", 40),
        ],
    )
    def test_each_flag_matches_library_field(self, tmp_path, wav_file, flag, field, value):
        assert value != getattr(FeatureParams(), field)
        out = tmp_path / "cli.svf1"
        assert main(["featurize", "--in", str(wav_file), "--out", str(out), flag, str(value)]) == 0
        assert out.read_bytes() == self.library_bytes(tmp_path, wav_file, FeatureParams(**{field: value}))


class TestInit:
    def test_reports_parameter_count(self, q_weights_file, capsys):
        out = capsys.readouterr().out  # flush fixture output
        assert main(["info", "--weights", str(q_weights_file)]) == 0
        text = capsys.readouterr().out
        assert "variant=q-sap" in text
        assert "parameters=1415728" in text
        assert "parameters_millions=1.416" in text

    def test_same_seed_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a.svw1", tmp_path / "b.svw1"
        assert main(["init", "--variant", "q-sap", "--out", str(a), "--seed", "3"]) == 0
        assert main(["init", "--variant", "q-sap", "--out", str(b), "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_variant_exits_one(self, tmp_path):
        assert main(["init", "--variant", "resnet50", "--out", str(tmp_path / "w.svw1")]) == 1


class TestEmbed:
    def test_writes_crop_embeddings_keyed_by_path(self, tmp_path, q_weights_file):
        wavs = []
        for i in range(2):
            path = tmp_path / f"utt{i}.wav"
            write_wav(path, make_wave(seed=i, seconds=0.6))
            wavs.append(str(path))
        out = tmp_path / "emb.svw1"
        code = main(
            ["embed", *wavs, "--weights", str(q_weights_file), "--out", str(out),
             "--crop-seconds", "0.5", "--n-crops", "2"]
        )
        assert code == 0
        tensors = load_tensors(out)
        assert set(tensors) == {str(tmp_path.resolve() / f"utt{i}.wav") for i in range(2)}
        for emb in tensors.values():
            assert emb.shape == (2, 512)
            assert emb.dtype == np.float32
            assert np.all(np.isfinite(emb))

    def test_corrupt_weights_exit_two(self, tmp_path, wav_file):
        bad = tmp_path / "bad.svw1"
        bad.write_bytes(b"not a weights file")
        assert main(["embed", str(wav_file), "--weights", str(bad), "--out", str(tmp_path / "e.svw1")]) == 2

    def test_negative_running_var_exits_two(self, tmp_path, wav_file, q_weights_file, capsys):
        tensors = load_tensors(q_weights_file)
        tensors["layer1.block0.bn1.running_var"][3] = -1.0
        bad = tmp_path / "neg.svw1"
        save_tensors(bad, tensors)
        out = tmp_path / "e.svw1"
        assert main(["embed", str(wav_file), "--weights", str(bad), "--out", str(out)]) == 2
        assert "running variance" in capsys.readouterr().err
        assert not out.exists()

    def test_running_var_error_names_the_weights_file(self, tmp_path, wav_file, q_weights_file, capsys):
        tensors = load_tensors(q_weights_file)
        tensors["conv1.bn.running_var"][0] = -1.0
        bad = tmp_path / "neg.svw1"
        save_tensors(bad, tensors)
        assert main(["embed", str(wav_file), "--weights", str(bad), "--out", str(tmp_path / "e.svw1")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: conv1.bn.running_var: batch norm running variance must be non-negative\n"

    def test_weights_without_a_tensor_exit_two_naming_file(self, tmp_path, wav_file, capsys):
        bad = tmp_path / "stub.svw1"
        save_tensors(bad, {"embed.weight": np.zeros((512, 128), dtype=np.float32)})
        assert main(["embed", str(wav_file), "--weights", str(bad), "--out", str(tmp_path / "e.svw1")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: weights have no tensor named 'conv1.weight'\n"

    def test_repeated_inputs_are_embedded_once(self, tmp_path, q_weights_file, monkeypatch):
        wav = tmp_path / "a.wav"
        write_wav(wav, make_wave(seed=3, seconds=0.6))
        calls = count_crops(monkeypatch)
        flags = ["--weights", str(q_weights_file), "--crop-seconds", "0.5", "--n-crops", "2"]
        once, twice = tmp_path / "once.svw1", tmp_path / "twice.svw1"
        assert main(["embed", str(wav), *flags, "--out", str(once)]) == 0
        assert len(calls) == 2  # two distinct crops
        spellings = [str(wav), str(tmp_path / "." / "a.wav"), str(wav)]
        assert main(["embed", *spellings, *flags, "--out", str(twice)]) == 0
        assert len(calls) == 4
        assert twice.read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_crop_exits_two_and_writes_nothing(self, tmp_path, workers, monkeypatch, capsys):
        wav = tmp_path / "utt.wav"
        write_wav(wav, make_wave(seed=5, seconds=3.0))
        # A truncated file after it: the crop error of the first file, earlier
        # in command order, wins over the read error of the next.
        bad = tmp_path / "bad.wav"
        write_wav(bad, make_wave(seed=6, seconds=1.0))
        bad.write_bytes(bad.read_bytes()[:-100])
        bad_start = read_wav(wav).samples[16000]  # the second of three 1 s crops

        def embedder(crop):
            if crop.samples[0] == bad_start:
                raise ValueError("crop failed")
            return np.ones(512)

        monkeypatch.setattr(cli, "_load_embedder", lambda path: embedder)
        monkeypatch.setattr(scoring, "crop_workers", lambda: workers)
        out = tmp_path / "out" / "e.svw1"
        out.parent.mkdir()
        for wavs in ([wav], [wav, bad]):
            argv = ["embed", *map(str, wavs), "--weights", "unused", "--out", str(out),
                    "--crop-seconds", "1", "--n-crops", "3"]
            assert main(argv) == 2
            assert "crop failed" in capsys.readouterr().err
            assert list(out.parent.iterdir()) == []


@pytest.fixture
def trial_setup(tmp_path):
    for name, seed in (("a.wav", 1), ("b.wav", 2), ("c.wav", 3)):
        write_wav(tmp_path / name, make_wave(seed=seed, seconds=0.6))
    trials = tmp_path / "trials.txt"
    trials.write_text("1 a.wav b.wav\n0 a.wav c.wav\n0 b.wav c.wav\n")
    return tmp_path, trials


class TestScore:
    def score_args(self, root, trials, weights, out, cache=None):
        args = [
            "score", "--trials", str(trials), "--weights", str(weights),
            "--out", str(out), "--wav-root", str(root),
            "--crop-seconds", "0.5", "--n-crops", "2",
        ]
        if cache is not None:
            args += ["--cache", str(cache)]
        return args

    def test_scores_every_trial(self, trial_setup, q_weights_file):
        root, trials = trial_setup
        out = root / "scores.txt"
        assert main(self.score_args(root, trials, q_weights_file, out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            enroll, test, score = line.split()
            assert -1.0 <= float(score) <= 1.0
            assert "." in score and len(score.split(".")[1]) == 6

    @staticmethod
    def forbid_embedding(monkeypatch):
        """Make any cache miss fail: a run that succeeds served every
        utterance from the cache."""

        def no_embedder(path):
            raise AssertionError("cache miss: the embedder was loaded")

        monkeypatch.setattr(cli, "_load_embedder", no_embedder)

    def test_cache_round_trip_reproduces_scores(self, trial_setup, q_weights_file, monkeypatch):
        root, trials = trial_setup
        out1, out2 = root / "s1.txt", root / "s2.txt"
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, out1, cache)) == 0
        assert cache.exists()
        tensors = load_tensors(cache)
        assert len(tensors) == 3
        assert all(key.startswith("/") for key in tensors)

        self.forbid_embedding(monkeypatch)
        assert main(self.score_args(root, trials, q_weights_file, out2, cache)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rewritten_wav_is_recomputed(self, trial_setup, q_weights_file, monkeypatch):
        root, trials = trial_setup
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, root / "s0.txt", cache)) == 0
        write_wav(root / "a.wav", make_wave(seed=99, seconds=0.6))
        assert main(self.score_args(root, trials, q_weights_file, root / "s1.txt", cache)) == 0
        assert main(self.score_args(root, trials, q_weights_file, root / "fresh.txt")) == 0
        assert (root / "s1.txt").read_bytes() == (root / "fresh.txt").read_bytes()
        assert (root / "s0.txt").read_bytes() != (root / "s1.txt").read_bytes()
        # The rewritten cache now serves the new a.wav without embedding.
        self.forbid_embedding(monkeypatch)
        assert main(self.score_args(root, trials, q_weights_file, root / "again.txt", cache)) == 0
        assert (root / "again.txt").read_bytes() == (root / "fresh.txt").read_bytes()

    def test_cached_entry_of_deleted_wav_exits_two(self, trial_setup, q_weights_file):
        root, trials = trial_setup
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, root / "s0.txt", cache)) == 0
        (root / "c.wav").unlink()
        assert main(self.score_args(root, trials, q_weights_file, root / "s1.txt", cache)) == 2

    def test_cached_score_needs_no_python_3_11_hashlib(self, trial_setup, q_weights_file, monkeypatch):
        # hashlib.file_digest is new in Python 3.11; svkit supports 3.10.
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        root, trials = trial_setup
        cache = root / "cache.svw1"
        for out in ("s0.txt", "s1.txt"):
            assert main(self.score_args(root, trials, q_weights_file, root / out, cache)) == 0
        assert (root / "s0.txt").read_bytes() == (root / "s1.txt").read_bytes()

    def test_cache_built_with_other_weights_is_recomputed(self, trial_setup, monkeypatch):
        root, trials = trial_setup
        w0, w1, cache = root / "w0.svw1", root / "w1.svw1", root / "cache.svw1"
        for seed, path in ((0, w0), (1, w1)):
            assert main(["init", "--variant", "q-sap", "--seed", str(seed), "--out", str(path)]) == 0
        assert main(self.score_args(root, trials, w0, root / "s0.txt", cache)) == 0
        assert main(self.score_args(root, trials, w1, root / "s1.txt", cache)) == 0
        assert main(self.score_args(root, trials, w1, root / "fresh.txt")) == 0
        assert (root / "s1.txt").read_bytes() == (root / "fresh.txt").read_bytes()
        assert (root / "s0.txt").read_bytes() != (root / "s1.txt").read_bytes()
        # The rewritten cache now serves w1 without embedding.
        self.forbid_embedding(monkeypatch)
        assert main(self.score_args(root, trials, w1, root / "again.txt", cache)) == 0
        assert (root / "again.txt").read_bytes() == (root / "s1.txt").read_bytes()

    @pytest.mark.parametrize("flag,value", [("--crop-seconds", "0.4"), ("--n-crops", "3")])
    def test_cache_built_with_other_crops_is_recomputed(self, trial_setup, q_weights_file, flag, value):
        root, trials = trial_setup
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, root / "s0.txt", cache)) == 0
        argv = self.score_args(root, trials, q_weights_file, root / "s1.txt", cache)
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 0
        fresh = self.score_args(root, trials, q_weights_file, root / "fresh.txt")
        fresh[fresh.index(flag) + 1] = value
        assert main(fresh) == 0
        assert (root / "s1.txt").read_bytes() == (root / "fresh.txt").read_bytes()

    def test_cache_without_metadata_record_is_recomputed(self, trial_setup, q_weights_file):
        root, trials = trial_setup
        cache = root / "cache.svw1"
        stale = np.ones((2, 512), dtype=np.float32)
        keys = [(root / name).resolve().as_posix() for name in ("a.wav", "b.wav", "c.wav")]
        save_tensors(cache, dict.fromkeys(keys, stale))
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt", cache)) == 0
        assert main(self.score_args(root, trials, q_weights_file, root / "fresh.txt")) == 0
        assert (root / "s.txt").read_bytes() == (root / "fresh.txt").read_bytes()
        records: list[str] = []
        entries = load_tensors(cache, records)
        assert len(records) == 4 and "weights-sha256=" in records[0]
        assert sorted(r.split(" ", 2)[-1] for r in records[1:]) == keys
        assert not any(np.array_equal(e, stale) for e in entries.values())

    def test_no_cache_never_hashes_the_weights(self, trial_setup, q_weights_file, monkeypatch):
        root, trials = trial_setup
        before, after = root / "s1.txt", root / "s2.txt"
        assert main(self.score_args(root, trials, q_weights_file, before)) == 0

        def no_hash(path):
            raise AssertionError(f"hashed {path}")

        monkeypatch.setattr(cli, "_sha256", no_hash)
        assert main(self.score_args(root, trials, q_weights_file, after)) == 0
        assert after.read_bytes() == before.read_bytes()

    def test_missing_wav_exits_two(self, trial_setup, q_weights_file):
        root, trials = trial_setup
        (root / "c.wav").unlink()
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt")) == 2

    def test_repeated_trial_exits_two_before_loading_weights(self, trial_setup, q_weights_file, monkeypatch, capsys):
        root, trials = trial_setup
        trials.write_text("1 a.wav b.wav\n0 a.wav b.wav\n")
        self.forbid_embedding(monkeypatch)
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt")) == 2
        assert "duplicate trial a.wav vs b.wav (first on line 1)" in capsys.readouterr().err
        assert not (root / "s.txt").exists()

    def test_trial_file_not_utf8_exits_two_naming_it(self, trial_setup, q_weights_file, monkeypatch, capsys):
        root, trials = trial_setup
        trials.write_bytes(b"1 a.wav b.wav\n0 a\xff.wav c.wav\n")
        self.forbid_embedding(monkeypatch)
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt")) == 2
        assert capsys.readouterr().err.startswith(f"error: {trials}: 'utf-8' codec can't decode byte 0xff")
        assert not (root / "s.txt").exists()

    @pytest.fixture
    def long_list(self, tmp_path):
        """20 trials over short (one distinct crop) and long utterances,
        each pair in both orders, so scoring crosses chunk boundaries."""
        names = []
        for i, seconds in enumerate((0.3, 1.2, 0.4, 0.9, 0.6)):
            names.append(f"u{i}.wav")
            write_wav(tmp_path / names[-1], make_wave(seed=30 + i, seconds=seconds))
        pairs = list(itertools.permutations(names, 2))
        assert len(pairs) > scoring.TRIAL_CHUNK
        trials = tmp_path / "trials.txt"
        trials.write_text("".join(f"{k % 2} {a} {b}\n" for k, (a, b) in enumerate(pairs)))
        return tmp_path, trials, names, pairs

    def test_long_list_matches_per_trial_scores(self, long_list, q_weights_file):
        root, trials, _, pairs = long_list
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt", cache)) == 0
        crops = load_tensors(cache)
        key = lambda name: (root / name).resolve().as_posix()
        per_trial = [(a, b, scoring.score_from_embeddings(crops[key(a)], crops[key(b)])) for a, b in pairs]
        write_scores(root / "per_trial.txt", per_trial)
        assert (root / "s.txt").read_bytes() == (root / "per_trial.txt").read_bytes()

    def test_each_utterance_mean_is_computed_once(self, long_list, q_weights_file, monkeypatch):
        root, trials, names, _ = long_list
        calls = []
        mean_unit_vector = scoring.mean_unit_vector
        monkeypatch.setattr(scoring, "mean_unit_vector", lambda e: calls.append(e) or mean_unit_vector(e))
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt")) == 0
        assert len(calls) == len(names)

    @pytest.mark.parametrize("cached", [False, True])
    def test_two_spellings_of_one_wav_are_embedded_once(self, trial_setup, q_weights_file, cached, monkeypatch):
        root, trials = trial_setup
        trials.write_text("1 a.wav b.wav\n1 ./a.wav b.wav\n0 b.wav a.wav\n0 b.wav ./a.wav\n")
        calls = count_crops(monkeypatch)
        cache = root / "cache.svw1" if cached else None
        assert main(self.score_args(root, trials, q_weights_file, root / "s.txt", cache)) == 0
        assert len(calls) == 4  # two distinct crops of each of a.wav and b.wav
        scores = [line.split()[2] for line in (root / "s.txt").read_text().splitlines()]
        assert scores[0] == scores[1] == scores[2] == scores[3]
        if cached:
            assert len(load_tensors(cache)) == 2

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (lambda e: np.where(np.arange(len(e))[:, None] == 1, np.nan, e), "non-finite values"),
            (lambda e: np.concatenate([e, e[:1]]), "shape (3, 512), not (2, 512)"),
            (lambda e: e[:, :7], "shape (2, 7), not (2, 512)"),
            (np.zeros_like, "zero-norm embedding"),
        ],
        ids=["nan-row", "three-rows", "width-7", "all-zero"],
    )
    def test_bad_cache_entry_exits_two_naming_cache_and_entry(
        self, trial_setup, q_weights_file, corrupt, problem, monkeypatch, capsys
    ):
        root, trials = trial_setup
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, root / "s0.txt", cache)) == 0
        records: list[str] = []
        entries = load_tensors(cache, records)
        key = (root / "b.wav").resolve().as_posix()
        entries[key] = corrupt(entries[key]).astype(np.float32)
        save_tensors(cache, entries, tuple(records))
        self.forbid_embedding(monkeypatch)

        def no_hash(key):
            raise AssertionError("a WAV was hashed")

        monkeypatch.setattr(cli, "_wav_record", no_hash)
        assert main(self.score_args(root, trials, q_weights_file, root / "s1.txt", cache)) == 2
        assert capsys.readouterr().err == f"error: {cache}: cache entry {key}: {problem}\n"
        assert not (root / "s1.txt").exists()

    def test_zero_norm_cached_row_exits_two(self, trial_setup, q_weights_file, monkeypatch, capsys):
        root, trials = trial_setup
        cache = root / "cache.svw1"
        assert main(self.score_args(root, trials, q_weights_file, root / "s0.txt", cache)) == 0
        records: list[str] = []
        entries = load_tensors(cache, records)
        key = (root / "b.wav").resolve().as_posix()
        entries[key] = np.concatenate([entries[key][:1], np.zeros_like(entries[key][1:])])
        save_tensors(cache, entries, tuple(records))
        self.forbid_embedding(monkeypatch)
        assert main(self.score_args(root, trials, q_weights_file, root / "s1.txt", cache)) == 2
        assert "zero-norm embedding" in capsys.readouterr().err
        assert not (root / "s1.txt").exists()


@pytest.fixture
def toy_eval_files(tmp_path):
    trials = tmp_path / "trials.txt"
    scores = tmp_path / "scores.txt"
    pairs = [
        (1, "t0.wav", "t1.wav", 0.9),
        (1, "t2.wav", "t3.wav", 0.8),
        (1, "t4.wav", "t5.wav", 0.7),
        (0, "n0.wav", "n1.wav", 0.75),
        (0, "n2.wav", "n3.wav", 0.2),
        (0, "n4.wav", "n5.wav", 0.1),
    ]
    trials.write_text("".join(f"{label} {e} {t}\n" for label, e, t, _ in pairs))
    scores.write_text("".join(f"{e} {t} {s:.6f}\n" for _, e, t, s in pairs))
    return scores, trials


class TestEvaluate:
    def test_toy_set_reports_expected_metrics(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials)]) == 0
        text = capsys.readouterr().out
        assert "eer_pct=33.3333" in text
        report = report_from_text(EvalReport, text)
        assert report.min_dcf == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert report.n_target == 3

    def test_report_file_matches_stdout(self, toy_eval_files, tmp_path, capsys):
        scores, trials = toy_eval_files
        out = tmp_path / "report.txt"
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_no_normalize_reports_raw_cost(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials), "--no-normalize"]) == 0
        report = report_from_text(EvalReport, capsys.readouterr().out)
        assert report.min_dcf == report.min_dcf_raw

    def test_defaults_match_library_defaults(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials)]) == 0
        listed = read_trials(trials)
        report = evaluate(ScoreSet(listed.labels, read_scores(scores, listed)), DCFParams())
        assert capsys.readouterr().out == report.to_text()

    def test_missing_score_exits_two(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        scores.write_text("t0.wav t1.wav 0.9\n")
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials)]) == 2
        assert "no score" in capsys.readouterr().err

    def test_missing_score_names_the_score_file(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        scores.write_text("".join(scores.read_text().splitlines(keepends=True)[:-1]))
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials)]) == 2
        assert capsys.readouterr().err == f"error: {scores}: 1 trials have no score: n4.wav vs n5.wav\n"

    @pytest.mark.parametrize("which", ["trials", "scores"])
    def test_file_not_utf8_exits_two_naming_it(self, toy_eval_files, which, capsys):
        files = dict(zip(("scores", "trials"), toy_eval_files))
        bad = files[which]
        bad.write_bytes(bad.read_bytes().replace(b"n2.wav", b"n\xff.wav"))
        assert main(["evaluate", "--scores", str(files["scores"]), "--trials", str(files["trials"])]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_list_without_nontarget_trials_names_the_trial_file(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        trials.write_text("1 t0.wav t1.wav\n1 t2.wav t3.wav\n")
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials)]) == 2
        assert capsys.readouterr().err == f"error: {trials}: score set has no nontarget trials\n"

    def test_non_finite_score_exits_two_naming_file_and_line(self, toy_eval_files, capsys):
        scores, trials = toy_eval_files
        lines = scores.read_text().splitlines()
        lines[3] = lines[3].rsplit(" ", 1)[0] + " nan"
        scores.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--scores", str(scores), "--trials", str(trials)]) == 2
        assert f"{scores}:4: score must be finite" in capsys.readouterr().err


class TestTrainDemo:
    def test_small_run_writes_history(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        code = main(
            ["train-demo", "--speakers", "6", "--utts", "4", "--dim", "8",
             "--trials", "30", "--epochs", "3", "--history", str(hist)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final_loss=" in out
        assert "heldout_eer=" in out
        assert "heldout_min_dcf=" in out
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss,heldout_eer"
        assert len(lines) == 4

    def test_same_seed_reprints_same_numbers(self, capsys):
        args = ["train-demo", "--speakers", "4", "--utts", "3", "--dim", "8",
                "--trials", "12", "--epochs", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unknown_loss_exits_one(self):
        assert main(["train-demo", "--loss", "hinge"]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_diverging_run_exits_two_naming_the_epoch(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        args = ["train-demo", "--speakers", "4", "--utts", "3", "--dim", "8", "--trials", "12",
                "--epochs", "3", "--lr0", "1e300", "--history", str(hist)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: loss became non-finite at epoch 1\n"
        assert not hist.exists()


@pytest.fixture
def catalog_tree(tmp_path):
    root = tmp_path / "catalog"
    for category, seeds in (("music", [10, 11]), ("noise", [12])):
        (root / category).mkdir(parents=True)
        for seed in seeds:
            write_wav(root / category / f"{seed}.wav", make_wave(seed=seed, seconds=0.4))
    (root / "rir").mkdir()
    impulse = np.zeros(16)
    impulse[0] = 1.0
    write_wav(root / "rir" / "delta.wav", Waveform(impulse))
    return root


class TestAugmentCommand:
    def test_additive_is_deterministic(self, tmp_path, wav_file, catalog_tree):
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        args = ["augment", "--in", str(wav_file), "--kind", "music",
                "--catalog", str(catalog_tree), "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(read_wav(out1)) == len(read_wav(wav_file))

    def test_custom_snr_and_count_ranges(self, tmp_path, wav_file, catalog_tree):
        out = tmp_path / "o.wav"
        code = main(
            ["augment", "--in", str(wav_file), "--out", str(out), "--kind", "noise",
             "--catalog", str(catalog_tree), "--seed", "1",
             "--count-min", "2", "--count-max", "2", "--snr-min", "30", "--snr-max", "30"]
        )
        assert code == 0
        # At 30 dB the added noise is faint: output stays close to the input.
        clean = read_wav(wav_file).samples
        noisy = read_wav(out).samples
        assert np.mean((noisy - clean) ** 2) < 0.01 * np.mean(clean**2)

    def test_identity_rir_round_trips_exactly(self, tmp_path, wav_file, catalog_tree):
        out = tmp_path / "o.wav"
        code = main(
            ["augment", "--in", str(wav_file), "--out", str(out), "--kind", "rir",
             "--catalog", str(catalog_tree), "--gain-min", "0", "--gain-max", "0"]
        )
        assert code == 0
        assert out.read_bytes() == wav_file.read_bytes()

    def test_catalog_wav_with_chunk_past_end_exits_two_naming_it(self, tmp_path, wav_file, catalog_tree, capsys):
        bad = catalog_tree / "noise" / "12.wav"
        bad.write_bytes(bad.read_bytes().replace(b"fmt \x10\x00\x00\x00", b"fmt \x40\x42\x0f\x00"))
        code = main(
            ["augment", "--in", str(wav_file), "--out", str(tmp_path / "o.wav"),
             "--kind", "noise", "--catalog", str(catalog_tree)]
        )
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_missing_catalog_kind_exits_two(self, tmp_path, wav_file, catalog_tree):
        code = main(
            ["augment", "--in", str(wav_file), "--out", str(tmp_path / "o.wav"),
             "--kind", "speech", "--catalog", str(catalog_tree)]
        )
        assert code == 2


class TestInfo:
    def test_requires_exactly_one_input(self, q_weights_file, tmp_path, wav_file):
        assert main(["info"]) == 1
        out = tmp_path / "f.svf1"
        assert main(["featurize", "--in", str(wav_file), "--out", str(out)]) == 0
        assert main(["info", "--weights", str(q_weights_file), "--features", str(out)]) == 1

    def test_corrupt_weights_exit_two(self, tmp_path):
        bad = tmp_path / "bad.svw1"
        bad.write_bytes(b"\x00" * 32)
        assert main(["info", "--weights", str(bad)]) == 2

    def test_unknown_variant_exits_two_naming_file(self, tmp_path, capsys):
        odd = tmp_path / "odd.svw1"
        save_tensors(odd, {"conv1.weight": np.zeros((3, 3, 1, 99), dtype=np.float32)})
        assert main(["info", "--weights", str(odd)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {odd}: cannot infer variant from conv1.weight of shape (3, 3, 1, 99)\n"

    @pytest.mark.parametrize("name,value", [
        ("layer4.block1.conv1.weight", None),
        ("pool.w", np.zeros((5, 128), dtype=np.float32)),
        ("conv1.bn.running_var", -np.ones(16, dtype=np.float32)),
    ], ids=["missing-conv", "misshapen-pool", "negative-running-var"])
    def test_weights_embed_rejects_exit_two_with_embeds_message(
        self, tmp_path, q_weights_file, wav_file, name, value, capsys
    ):
        tensors = load_tensors(q_weights_file)
        if value is None:
            del tensors[name]
        else:
            tensors[name] = value
        bad = tmp_path / "bad.svw1"
        save_tensors(bad, tensors)
        capsys.readouterr()
        assert main(["info", "--weights", str(bad)]) == 2
        info = capsys.readouterr()
        assert main(["embed", str(wav_file), "--weights", str(bad), "--out", str(tmp_path / "e.svw1")]) == 2
        assert info.out == ""
        assert info.err == capsys.readouterr().err
        assert info.err.startswith(f"error: {bad}: ") and name in info.err


def _write_partial_then_fail(path, *args, **kwargs):
    pathlib.Path(path).write_bytes(b"partial")
    raise OSError("disk full")


class TestAtomicOutputs:
    """Every output is published by rename: a failed write keeps the old file."""

    @pytest.fixture
    def argv_for(self, wav_file, catalog_tree, toy_eval_files):
        scores, trials = toy_eval_files
        return {
            "featurize": ["featurize", "--in", str(wav_file), "--out"],
            "augment": ["augment", "--in", str(wav_file), "--kind", "noise",
                        "--catalog", str(catalog_tree), "--out"],
            "init": ["init", "--variant", "q-sap", "--out"],
            "evaluate": ["evaluate", "--scores", str(scores), "--trials", str(trials), "--out"],
            "train-demo": ["train-demo", "--speakers", "4", "--utts", "3", "--dim", "8",
                           "--trials", "12", "--epochs", "1", "--history"],
        }

    WRITERS = {
        "featurize": (cli, "save_features"),
        "augment": (cli, "write_wav"),
        "init": (cli, "save_tensors"),
        "evaluate": (pathlib.Path, "write_text"),
        "train-demo": (pathlib.Path, "write_text"),
    }

    @pytest.mark.parametrize("command", list(WRITERS))
    def test_failed_write_keeps_previous_output(self, tmp_path, argv_for, monkeypatch, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result"
        out.write_bytes(b"previous")
        monkeypatch.setattr(*self.WRITERS[command], _write_partial_then_fail)
        assert main(argv_for[command] + [str(out)]) == 2
        assert out.read_bytes() == b"previous"
        assert [p.name for p in out_dir.iterdir()] == ["result"]

    @pytest.mark.parametrize("command", list(WRITERS))
    def test_output_has_plain_open_mode_and_no_leftovers(self, tmp_path, argv_for, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        reference = out_dir / "reference"
        reference.write_bytes(b"")
        assert main(argv_for[command] + [str(out_dir / "result")]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["reference", "result"]
        mode = stat.S_IMODE((out_dir / "result").stat().st_mode)
        assert mode == stat.S_IMODE(reference.stat().st_mode)

    def test_concurrent_runs_temp_name_is_not_clobbered(self, trial_setup, q_weights_file):
        root, trials = trial_setup
        out = root / "scores.txt"
        other = root / "scores.txt.tmp"  # the temp file of a run writing the same target
        other.write_bytes(b"another run")
        argv = ["score", "--trials", str(trials), "--weights", str(q_weights_file), "--out", str(out),
                "--wav-root", str(root), "--crop-seconds", "0.5", "--n-crops", "2"]
        assert main(argv) == 0
        assert other.read_bytes() == b"another run"
        assert len(out.read_text().splitlines()) == 3
