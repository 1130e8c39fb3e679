"""The README's examples run: the library quickstart prints what its
comments say, every JSON config parses and every CLI line exits 0; and the
config schema of the README and of the ``cli`` docstring names the keys
``cli`` reads."""

import contextlib
import io
import math
import re
import shlex
import shutil
from pathlib import Path

import pytest

from spinhop import cli
from spinhop.cli import main, parse_config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


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


@pytest.mark.parametrize("block", _blocks("json"))
def test_json_configs_parse(block):
    parse_config(block)


def _cli_lines():
    (text,) = re.findall(r"## CLI\n\n```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[1])
def test_cli_lines_exit_0(tmp_path, monkeypatch, capsys, argv):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    program, *args = argv
    assert program == "spinhop"
    assert main(args) == 0, capsys.readouterr().err


def _schema_keys(schema):
    """``{block: keys}`` of a schema that writes each block as
    ``"block": {"key": ..., ...}``."""
    return {
        block: set(re.findall(r'"(\w+)":', body))
        for block, body in re.findall(r'"(\w+)":\s*\{(.*?)\}', schema, re.S)
    }


@pytest.mark.parametrize(
    "schema",
    [
        _blocks("json")[0],
        cli.__doc__.split("Config schema")[1].split("Presets fix")[0],
    ],
    ids=["readme", "cli-docstring"],
)
def test_the_schema_names_only_keys_the_cli_reads(schema):
    keys = _schema_keys(schema)
    assert set(keys) == set(cli._BLOCKS)
    for block, names in keys.items():
        assert names <= cli._BLOCKS[block][0], block


def test_the_cli_section_names_every_key_the_cli_reads():
    (text,) = re.findall(r"## CLI\n(.*?)\n## ", README.read_text(encoding="utf-8"), re.S)
    for block, (names, _) in cli._BLOCKS.items():
        for name in (block, *names):
            assert re.search(rf'[`"]{name}[`"]', text), name
