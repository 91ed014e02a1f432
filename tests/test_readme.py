"""The README's documented library imports resolve."""

import re
from pathlib import Path

import svkit

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_imports() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith(("import ", "from "))]


def test_library_quickstart_imports_resolve():
    imports = _quickstart_imports()
    assert len(imports) >= 5
    exec("\n".join(imports), {})


def test_package_exposes_version():
    assert svkit.__version__ == "0.1.0"
