"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quickstart", "exec"), namespace)
    assert namespace["estimate"].value == pytest.approx(0.2, abs=1e-9)
    assert namespace["estimate"].delta == 0.01
