"""The public surface: every export resolves, and the README's library example runs."""

import re
from pathlib import Path

import choreocert

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    assert len(set(choreocert.__all__)) == len(choreocert.__all__)
    missing = [name for name in choreocert.__all__ if not hasattr(choreocert, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    verdict, action, residual = capsys.readouterr().out.split()
    assert verdict == "certified"
    assert float(action) > 0.0 and float(residual) >= 0.0
