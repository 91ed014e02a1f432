"""The README's library quickstart runs as written."""

import re
from pathlib import Path

import svkit
from conftest import make_wave
from svkit.audio import write_wav

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs(tmp_path, monkeypatch):
    for seed, name in enumerate(("utt.wav", "a.wav", "b.wav")):
        write_wav(tmp_path / name, make_wave(seed=seed, seconds=0.5))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(_quickstart(), namespace)
    assert namespace["embedding"].shape == (512,)
    assert -1.0 <= namespace["score"] <= 1.0


def test_package_exposes_version():
    assert svkit.__version__ == "0.1.0"
