"""Property test: a mutated or truncated input file exits 0 or 2, never
raises out of main(), and every exit 2 names the file. `evaluate` may name
either of its two files instead: a pair the trial list has and the score
file lacks is reported against the score file. An embedding cache is run
through `score --cache`, and when that exits 0 every score it wrote is a
finite number, and a weight file that `info --weights` accepts also loads
as FoldedWeights, the check `embed` makes.

Each input starts as a small valid file of one format; a weight file is
a whole q-sap set, since a partial one does not fold, and only its first
WEIGHTS_HEAD bytes are edited. Hypothesis overwrites up to three bytes
and may cut the file short, then the file is
run through the subcommand that reads it. Examples are derandomized and
their number is fixed, so the suite stays deterministic.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_wave
from svkit.audio import write_wav
from svkit.cli import main
from svkit.containers import save_features
from svkit.network import FoldedWeights

EXAMPLES = 150
# Bytes of a q-sap weight file that the fuzz edits: the header, conv1's
# kernel and batch norm (967 bytes), and the start of layer1's first kernel.
WEIGHTS_HEAD = 1024

TRIALS = b"1 a.wav b.wav\n0 a.wav c.wav\n1 c.wav d.wav\n0 b.wav d.wav\n"
SCORES = b"a.wav b.wav 0.900000\na.wav c.wav 0.100000\nc.wav d.wav 0.700000\nb.wav d.wav -0.200000\n"


@st.composite
def mutations(draw, size: int, head: int | None = None):
    """(byte edits within the first `head` bytes, length to keep) for a
    file of `size` bytes."""
    at = st.integers(0, min(size, head or size) - 1)
    edits = draw(st.lists(st.tuples(at, st.integers(0, 255)), max_size=3))
    keep = draw(st.one_of(st.just(size), st.integers(0, size)))
    return edits, keep


def mutate(data: bytes, mutation) -> bytes:
    edits, keep = mutation
    buf = bytearray(data)
    for at, value in edits:
        buf[at] = value
    return bytes(buf[:keep])


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    wav = root / "valid.wav"
    write_wav(wav, make_wave(seed=0, seconds=0.01))
    features = root / "valid.svf1"
    save_features(features, np.arange(12, dtype=np.float32).reshape(3, 4))
    (root / "trials.txt").write_bytes(TRIALS)
    (root / "scores.txt").write_bytes(SCORES)
    for seed, name in enumerate("abcd"):
        write_wav(root / f"{name}.wav", make_wave(seed=seed, seconds=0.2))
    assert run(["init", "--variant", "q-sap", "--out", str(root / "q.svw1")])[0] == 0
    cache = root / "cache.svw1"
    assert run([*score_argv(root, cache), "--out", str(root / "cached_scores.txt")])[0] == 0
    return {"root": root, "wav": wav.read_bytes(), "features": features.read_bytes(),
            "weights": (root / "q.svw1").read_bytes(), "cache": cache.read_bytes()}


def score_argv(root, cache) -> list[str]:
    return ["score", "--trials", str(root / "trials.txt"), "--weights", str(root / "q.svw1"),
            "--wav-root", str(root), "--cache", str(cache), "--crop-seconds", "0.1", "--n-crops", "2"]


def check(path, data: bytes, argv, also=None) -> int:
    path.write_bytes(data)
    code, err = run(argv)
    assert code in (0, 2), (code, err)
    if code == 2:
        assert str(path) in err or (also is not None and str(also) in err), err
    return code


FUZZ = settings(max_examples=EXAMPLES, derandomize=True, deadline=None)


def test_valid_inputs_exit_zero(files):
    root = files["root"]
    for name in ("wav", "features", "weights"):
        (root / f"in.{name}").write_bytes(files[name])
    assert run(["featurize", "--in", str(root / "in.wav"), "--out", str(root / "out.svf1")])[0] == 0
    assert run(["info", "--features", str(root / "in.features")])[0] == 0
    assert run(["info", "--weights", str(root / "in.weights")])[0] == 0
    (root / "in.cache").write_bytes(files["cache"])
    assert run([*score_argv(root, root / "in.cache"), "--out", str(root / "out.txt")])[0] == 0
    assert (root / "out.txt").read_bytes() == (root / "cached_scores.txt").read_bytes()
    assert run(["evaluate", "--trials", str(root / "trials.txt"), "--scores", str(root / "scores.txt")])[0] == 0


@FUZZ
@given(mutation=mutations(len(TRIALS)))
def test_trial_file(files, mutation):
    root = files["root"]
    path = root / "mutated_trials.txt"
    scores = root / "scores.txt"
    check(path, mutate(TRIALS, mutation), ["evaluate", "--trials", str(path), "--scores", str(scores)], also=scores)


@FUZZ
@given(mutation=mutations(len(SCORES)))
def test_score_file(files, mutation):
    root = files["root"]
    path = root / "mutated_scores.txt"
    trials = root / "trials.txt"
    check(path, mutate(SCORES, mutation), ["evaluate", "--trials", str(trials), "--scores", str(path)], also=trials)


@FUZZ
@given(data=st.data())
def test_wav_file(files, data):
    root = files["root"]
    path = root / "mutated.wav"
    mutation = data.draw(mutations(len(files["wav"]), head=60))
    check(path, mutate(files["wav"], mutation), ["featurize", "--in", str(path), "--out", str(root / "out.svf1")])


@FUZZ
@given(data=st.data())
def test_feature_file(files, data):
    path = files["root"] / "mutated.svf1"
    mutation = data.draw(mutations(len(files["features"])))
    check(path, mutate(files["features"], mutation), ["info", "--features", str(path)])


@FUZZ
@given(data=st.data())
def test_cache_file(files, data):
    root = files["root"]
    path, out = root / "mutated_cache.svw1", root / "fuzzed_scores.txt"
    out.unlink(missing_ok=True)
    mutation = data.draw(mutations(len(files["cache"])))
    code = check(path, mutate(files["cache"], mutation), [*score_argv(root, path), "--out", str(out)])
    if code == 0:
        scores = [float(line.split()[2]) for line in out.read_text().splitlines()]
        assert len(scores) == TRIALS.count(b"\n") and all(np.isfinite(scores)), scores


@FUZZ
@given(data=st.data())
def test_weight_file(files, data):
    path = files["root"] / "mutated.svw1"
    mutation = data.draw(mutations(len(files["weights"]), head=WEIGHTS_HEAD))
    if check(path, mutate(files["weights"], mutation), ["info", "--weights", str(path)]) == 0:
        FoldedWeights.load(path)
