"""Property test: every numeric flag of every subcommand, at any value,
exits 0, 1 or 2 and never raises out of main().

The flags are found by walking the CLI's parser: each subcommand flag
with a type= converter is numeric, and it is an int flag when its
converter rejects "0.5". One or two flags are drawn per example. Floats
come with nan, ±inf and subnormals allowed and ints run up to ±2**63,
except size flags, which ask for real work when large and so come from
small ranges. Each example runs twice: once with every path in a missing
directory, where a run exits 1 or exits 2 naming that directory, so every
flag is checked before any read; and once on small valid inputs, where an
exit 2 names a file or, for train-demo, the epoch. numpy warnings are
errors under this suite, so a warning escapes main and fails the example.
Examples are derandomized and their number is fixed, so the suite stays
deterministic.
"""

import argparse
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_wave
from svkit import cli
from svkit.audio import Waveform, write_wav
from svkit.cli import main

EXAMPLES = 400

TRIALS = "1 a.wav b.wav\n0 a.wav c.wav\n1 c.wav d.wav\n0 b.wav d.wav\n"
SCORES = "a.wav b.wav 0.900000\na.wav c.wav 0.100000\nc.wav d.wav 0.700000\nb.wav d.wav -0.200000\n"

# Inclusive bounds of the size flags: each asks for work in proportion to its value.
SIZES = {
    "--epochs": (-1, 4), "--speakers": (-1, 5), "--utts": (-1, 5), "--dim": (-1, 8), "--trials": (-1, 12),
    "--n-crops": (-1, 3), "--count-max": (-1, 3), "--fft-size": (-1, 1024), "--n-mels": (-1, 300),
}
# A 1e5 s crop tiles a short WAV to 1.6e9 samples, so crops stay under a second.
CROP_SECONDS = st.one_of(st.floats(max_value=1.0), st.floats(0.0, 1.0), st.just(math.nan))
# Any value, or one near the flags' working ranges, so that runs also go ahead.
FLOATS = st.one_of(st.floats(), st.floats(-100.0, 100.0))
INTS = st.one_of(st.integers(-(2**63), 2**63), st.integers(-2, 1000))

# Each setup: its subcommand, then the argv that follows it, for a directory of inputs.
SETUPS = {
    "featurize": lambda d: ["featurize", "--in", f"{d}/a.wav", "--out", f"{d}/out.svf1", "--crop-seconds", "0.1"],
    "augment-noise": lambda d: ["augment", "--in", f"{d}/a.wav", "--out", f"{d}/out.wav", "--kind", "noise",
                                "--catalog", f"{d}/catalog"],
    "augment-rir": lambda d: ["augment", "--in", f"{d}/a.wav", "--out", f"{d}/out.wav", "--kind", "rir",
                              "--catalog", f"{d}/catalog"],
    "init": lambda d: ["init", "--variant", "q-sap", "--out", f"{d}/out.svw1"],
    "embed": lambda d: ["embed", f"{d}/a.wav", "--weights", f"{d}/q.svw1", "--out", f"{d}/out.svw1",
                        "--crop-seconds", "0.1", "--n-crops", "2"],
    "score": lambda d: ["score", "--trials", f"{d}/trials.txt", "--weights", f"{d}/q.svw1", "--out", f"{d}/out.txt",
                        "--wav-root", d, "--crop-seconds", "0.1", "--n-crops", "2"],
    "evaluate": lambda d: ["evaluate", "--trials", f"{d}/trials.txt", "--scores", f"{d}/scores.txt",
                           "--out", f"{d}/out.txt"],
    "train-demo": lambda d: ["train-demo", "--speakers", "3", "--utts", "3", "--dim", "4", "--trials", "4",
                             "--epochs", "3", "--history", f"{d}/out.csv"],
}
# Setups whose subcommand reads no file; the missing-directory run tells nothing about them.
READS_NOTHING = {"train-demo"}


def _kind(convert) -> type:
    try:
        convert("0.5")
    except (ValueError, argparse.ArgumentTypeError):
        return int
    return float


def numeric_flags() -> dict[str, dict[str, type]]:
    """{subcommand: {flag: int or float}} for every flag with a type= converter."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {a.option_strings[0]: _kind(a.type) for a in parser._actions if a.option_strings and a.type}
        for command, parser in sub.choices.items()
    }


NUMERIC = numeric_flags()


def value_text(flag: str, kind: type):
    if flag == "--crop-seconds":
        return CROP_SECONDS.map(repr)
    if flag in SIZES:
        return st.integers(*SIZES[flag]).map(str)
    return INTS.map(str) if kind is int else FLOATS.map(repr)


@st.composite
def cases(draw):
    """(setup, ("--flag=value", ...)) with one or two distinct numeric flags of the setup's subcommand."""
    setup = draw(st.sampled_from(sorted(SETUPS)))
    flags = NUMERIC[SETUPS[setup](".")[0]]
    names = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2, unique=True))
    return setup, tuple(f"{name}={draw(value_text(name, flags[name]))}" for name in names)


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    for seed, name in enumerate("abcd"):
        write_wav(root / f"{name}.wav", make_wave(seed=seed, seconds=0.2))
    (root / "catalog" / "noise").mkdir(parents=True)
    write_wav(root / "catalog" / "noise" / "n.wav", make_wave(seed=9, seconds=0.4))
    (root / "catalog" / "rir").mkdir()
    write_wav(root / "catalog" / "rir" / "r.wav", Waveform(np.exp(-np.arange(64) / 8.0) * 0.5))
    (root / "trials.txt").write_text(TRIALS)
    (root / "scores.txt").write_text(SCORES)
    assert run(["init", "--variant", "q-sap", "--out", str(root / "q.svw1")])[0] == 0
    return root


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
@given(case=cases())
@example(case=("evaluate", ("--c-miss=5e-324",)))  # a normalizer that underflows to 0
@example(case=("train-demo", ("--loss=ap", "--lr0=1e308")))  # parameters overflow in the first step
@example(case=("augment-noise", ("--snr-max=-0.0",)))  # numpy's uniform rejects a range from 0.0 to -0.0
def test_numeric_flag_values(inputs, case):
    # The walk finds numeric flags on every subcommand a setup runs, and tells ints from floats.
    assert {make(".")[0] for make in SETUPS.values()} == {c for c, flags in NUMERIC.items() if flags}
    assert NUMERIC["embed"] == {"--crop-seconds": float, "--n-crops": int}
    setup, flags = case
    if setup not in READS_NOTHING:
        missing = inputs / "missing"
        code, err = run([*SETUPS[setup](str(missing)), *flags])
        assert code == 1 or (code == 2 and str(missing) in err), (code, err)
    code, err = run([*SETUPS[setup](str(inputs)), *flags])
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert str(inputs) in err or " at epoch " in err, err
