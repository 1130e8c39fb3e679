"""The README's library quickstart runs, and prints what its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Quickstart \(library\)\n\n```python\n(.*?)```", text, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    f_plus_max, period, shape = out.getvalue().splitlines()
    assert float(f_plus_max) == pytest.approx(1.0, abs=0.01)
    assert float(period) == pytest.approx(2.0 * math.sqrt(2.0) * math.pi, rel=0.005)
    assert shape == "(2001, 2)"
