"""The README's examples run: the library quickstart prints what its
comments say, every JSON config parses and every CLI line exits 0; the
config schema of the README and of the ``cli`` docstring names the keys
``cli`` reads; every name of the module table and the quickstart resolves
where the README puts it, and the package exports exactly the names the
README lists."""

import contextlib
import importlib
import io
import math
import re
import shlex
import shutil
from pathlib import Path

import pytest

import spinhop
from spinhop import cli
from spinhop.cli import main, parse_config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


# what the CLI, the acceptance criteria, the quickstart and the benchmark's
# scan import from the package, and nothing else
EXPORTS = {
    "ModelSpec", "BasisLayout", "TimeGrid", "encode_state", "run_trajectory",
    "compare_exact_effective", "analytic", "conservation_monitor", "estimate_period",
    "log_negativity", "observables", "hermitian_eigensystem",
}


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _identifiers(text):
    """Every name written as `name` in ``text``; `"exact"`, `a / b` and
    `spinhop simulate` are no names."""
    return re.findall(r"`([A-Za-z_]\w*)`", text)


def test_the_package_exports_exactly_the_names_the_readme_lists():
    assert len(spinhop.__all__) == len(set(spinhop.__all__)) == 12
    assert set(spinhop.__all__) == EXPORTS
    text = README.read_text(encoding="utf-8")
    (listed,) = re.findall(r"The package itself exports the 12 names.*?:(.*?)\.  ", text, re.S)
    assert set(_identifiers(listed)) == EXPORTS
    (imported,) = re.findall(r"from spinhop import \((.*?)\)", _blocks("python")[0], re.S)
    assert set(re.findall(r"\w+", imported)) <= EXPORTS  # the quickstart's


# module -> the contents cell of its row in the README's module table
TABLE = dict(
    re.findall(r"^\| `(spinhop\.\w+)` *\|(.*)\|$", README.read_text(encoding="utf-8"), re.M)
)


@pytest.mark.parametrize("module", TABLE)
def test_every_name_of_the_module_table_is_in_its_module(module):
    names = _identifiers(TABLE[module])
    assert names
    assert [name for name in names if not hasattr(importlib.import_module(module), name)] == []


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
