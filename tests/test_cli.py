"""Config parsing, CSV emission, summaries, determinism and exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhop import cli, model
from spinhop.analysis import compare_exact_effective
from spinhop.cli import (
    ConfigError,
    NumericalInvariantError,
    cmd_analytic,
    cmd_compare,
    cmd_simulate,
    main,
    parse_config,
)
from spinhop.dynamics import TimeGrid, Trajectory, run_trajectory
from spinhop.linalg import hermitian_eigensystem
from spinhop.model import (
    _STATIC_PRESETS,
    HAMILTONIAN_KINDS,
    BasisLayout,
    ModelSpec,
    build_hamiltonian,
    encode_state,
)

from helpers import simulate_configs

SQRT2 = math.sqrt(2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


def _config(**overrides):
    base = {
        "model": {"n_sites": 2, "eta": 10.0, "preset": "xy"},
        "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
        "run": {"hamiltonian": "exact", "t_max": 30.0, "n_points": 601},
        "output": {},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key].update(value)
        else:
            base[key] = value
    return base


def _write(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


_SANE_POINT = dict(
    t=0.0, p_site=(1.0, 0.0), p_up=1.0, f_plus=0.0, f_minus=0.0, logneg=0.0,
    f2=0.0, sz_total=-0.5, s12_sq=2.0, norm=1.0, energy=math.nan,
)


def _trajectory(n=1, **fields):
    """An ``n``-point two-site Trajectory of sane values; a keyword gives the
    values of one field at every point, as a list."""
    values = {name: [value] * n for name, value in _SANE_POINT.items()}
    values.update(fields)
    return Trajectory(**{name: np.array(v, dtype=float) for name, v in values.items()})


def _read_csv(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    data = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return header, data


def _state(site, e_spin, static):
    return encode_state(BasisLayout(2), site, e_spin, static)


class TestParseConfig:
    def test_minimal_strong_hopping_scenario(self):
        cfg = parse_config(json.dumps(_config()))
        assert cfg.spec.n_sites == 2
        assert cfg.spec.eta == 10.0
        assert (cfg.spec.j_xy, cfg.spec.j_z) == (1.0, 0.0)
        assert cfg.hamiltonian == "exact"
        assert cfg.grid.n_points == 601
        psi = cfg.initial
        assert psi[3] == 1.0  # |site 1, up, down down>

    def test_grid_defaults(self):
        raw = _config()
        del raw["run"]
        cfg = parse_config(json.dumps(raw))
        assert cfg.grid.t_max == 30.0
        assert cfg.grid.n_points == 2001

    def test_heisenberg_preset_scale(self):
        cfg = parse_config(json.dumps(_config(model={"preset": "heisenberg"})))
        assert cfg.spec.j_z == pytest.approx(1.0)
        assert cfg.spec.j_xy == pytest.approx(0.5)

    def test_lattice_size_out_of_range(self):
        with pytest.raises(ConfigError, match="n_sites"):
            parse_config(json.dumps(_config(model={"n_sites": 4})))

    def test_heisenberg_constraint_enforced(self):
        # j alone fixes both couplings, so neither may be given
        bad = _config(model={"preset": "heisenberg", "j_z": 1.0, "j_xy": 0.9})
        with pytest.raises(ConfigError, match="^preset 'heisenberg' takes j, not j_xy or j_z$"):
            parse_config(json.dumps(bad))

    def test_xy_constraint_enforced(self):
        bad = _config(model={"preset": "xy", "j_z": 0.5})
        with pytest.raises(ConfigError, match="^preset 'xy' takes j, not j_z$"):
            parse_config(json.dumps(bad))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'modle'"):
            parse_config(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="unknown key 'decay'"):
            parse_config(json.dumps(_config(model={"decay": 0.1})))
        with pytest.raises(ConfigError, match="unknown key 'phase'"):
            parse_config(json.dumps(_config(initial={"phase": 1.0})))

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match=r"syntax error at line \d+"):
            parse_config('{\n "model": {},\n "oops"\n}')

    def test_checks_the_kind_without_building_a_hamiltonian(self, monkeypatch):
        def no_build(n_sites):
            raise AssertionError("parse_config built a Hamiltonian")

        monkeypatch.setattr(model, "_sectors", no_build)
        cfg = _config(model={"n_sites": 3}, initial={"site": 0}, run={"hamiltonian": "effective"})
        assert parse_config(json.dumps(cfg)).hamiltonian == "effective"

    def test_site_label_validation(self):
        with pytest.raises(ConfigError, match="unknown site label 0"):
            parse_config(json.dumps(_config(initial={"site": 0})))
        three = _config(model={"n_sites": 3}, initial={"site": 0})
        assert parse_config(json.dumps(three)).initial[8 + 3] == 1.0  # middle site

    def test_static_preset_validation(self):
        with pytest.raises(ConfigError, match="unknown static-pair preset 'sideways'"):
            parse_config(json.dumps(_config(initial={"static": "sideways"})))
        with pytest.raises(ConfigError, match=r"unknown static-pair preset \['up-up'\]"):
            parse_config(json.dumps(_config(initial={"static": ["up-up"]})))

    def test_column_selection_validation(self):
        good = _config(output={"columns": ["F_plus", "P_up"]})
        assert parse_config(json.dumps(good)).columns == ("F_plus", "P_up")
        with pytest.raises(ConfigError, match="unknown column"):
            parse_config(json.dumps(_config(output={"columns": ["P0"]})))

    def test_ratio_validation(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(json.dumps(_config(compare={"ratios": [1.0, -2.0]})))

    def test_numeric_type_checks(self):
        with pytest.raises(ConfigError, match="n_points"):
            parse_config(json.dumps(_config(run={"n_points": True})))
        with pytest.raises(ConfigError, match="^eta must be a finite number >= 0, got 'ten'$"):
            parse_config(json.dumps(_config(model={"eta": "ten"})))

    def test_custom_preset_rejects_scale_key(self):
        bad = _config(model={"preset": "custom", "j": 1.0, "j_xy": 1.0})
        with pytest.raises(ConfigError, match="^preset 'custom' takes j_xy and j_z, not j$"):
            parse_config(json.dumps(bad))

    def test_conflicting_scale_keys_rejected(self):
        with pytest.raises(ConfigError, match="^preset 'xy' takes j, not j_xy$"):
            parse_config(json.dumps(_config(model={"j": 2.0, "j_xy": 1.0})))
        heis = _config(model={"preset": "heisenberg", "j": 2.0, "j_z": 1.0})
        with pytest.raises(ConfigError, match="^preset 'heisenberg' takes j, not j_z$"):
            parse_config(json.dumps(heis))

    @settings(max_examples=100, deadline=None)
    @given(j=st.floats(allow_nan=False, allow_infinity=False), n_sites=st.sampled_from([2, 3]))
    @example(j=5e-324, n_sites=2)  # j / 2 underflows to 0
    @example(j=-5e-324, n_sites=3)
    @example(j=1e290, n_sites=2)
    @example(j=-1e290, n_sites=3)
    def test_a_preset_reads_only_the_couplings_it_takes(self, j, n_sites):
        # the JSON text carries j to the spec bit for bit, on either lattice
        for preset, couplings in (("xy", (j, 0.0)), ("heisenberg", (j / 2, j))):
            cfg = parse_config(json.dumps(_config(model={"n_sites": n_sites, "preset": preset, "j": j})))
            assert cfg.spec == ModelSpec(n_sites, 10.0, *couplings)
        # a coupling the preset does not take is refused whatever its value
        for preset, key in (("xy", "j_xy"), ("xy", "j_z"), ("heisenberg", "j_xy"),
                            ("heisenberg", "j_z"), ("custom", "j")):
            bad = _config(model={"n_sites": n_sites, "preset": preset, key: j})
            with pytest.raises(ConfigError, match=f"^preset '{preset}' takes .*, not {key}$"):
                parse_config(json.dumps(bad))

    @pytest.mark.parametrize(
        "overrides, library",
        [
            ({"model": {"n_sites": 4}}, lambda: ModelSpec(4, 10.0, j_xy=1.0)),
            ({"model": {"n_sites": "2"}}, lambda: ModelSpec("2", 10.0, j_xy=1.0)),
            ({"model": {"eta": -1.0}}, lambda: ModelSpec(2, -1.0, j_xy=1.0)),
            ({"initial": {"site": 0}}, lambda: _state(0, "up", "down-down")),
            ({"initial": {"site": True}}, lambda: _state(True, "up", "down-down")),
            ({"initial": {"e_spin": None}}, lambda: _state(1, None, "down-down")),
            ({"initial": {"static": ["up-up"]}}, lambda: _state(1, "up", ["up-up"])),
            (
                {"run": {"hamiltonian": ["exact"]}},
                lambda: build_hamiltonian(ModelSpec.xy(10.0), ["exact"]),
            ),
            (
                {"model": {"eta": 0}, "run": {"hamiltonian": "effective"}},
                lambda: build_hamiltonian(ModelSpec.xy(0.0), "effective"),
            ),
            (
                {"model": {"n_sites": 3, "eta": 0}, "initial": {"site": 0},
                 "run": {"hamiltonian": "effective"}},
                lambda: build_hamiltonian(ModelSpec.xy(0.0, n_sites=3), "effective"),
            ),
            ({"run": {"t_max": -1.0}}, lambda: TimeGrid(t_max=-1.0, n_points=601)),
            ({"run": {"n_points": True}}, lambda: TimeGrid(t_max=30.0, n_points=True)),
            ({"model": {"eta": math.nan}}, lambda: ModelSpec.xy(math.nan)),
            ({"model": {"eta": 10**400}}, lambda: ModelSpec.xy(10**400)),
            ({"run": {"t_max": math.inf}}, lambda: TimeGrid(t_max=math.inf, n_points=601)),
            ({"model": {"preset": "ising"}}, lambda: ModelSpec.from_preset("ising", 2, 10.0)),
            (
                {"model": {"preset": "custom", "j": 1.0}},
                lambda: ModelSpec.from_preset("custom", 2, 10.0, j=1.0),
            ),
            ({"model": {"j": math.nan}}, lambda: ModelSpec.xy(10.0, j=math.nan)),
        ],
        ids=[
            "n_sites-4", "n_sites-str", "eta-negative", "site-0", "site-bool", "e_spin-null",
            "static-list", "hamiltonian-list", "effective-eta-0-n2", "effective-eta-0-n3",
            "t_max-negative", "n_points-bool", "eta-nan", "eta-huge-int", "t_max-inf",
            "preset-unknown", "custom-with-j", "j-nan",
        ],
    )
    def test_semantic_errors_carry_the_library_message(self, tmp_path, overrides, library):
        # through simulate, which alone checks run.hamiltonian against the spec
        with pytest.raises(ValueError) as expected:
            library()
        with pytest.raises(ConfigError) as got:
            cfg = parse_config(json.dumps(_config(**overrides)))
            cmd_simulate(dataclasses.replace(cfg, out_path=str(tmp_path / "x.csv")))
        assert str(got.value) == str(expected.value)
        assert not (tmp_path / "x.csv").exists()


class TestSimulate:
    def test_strong_hopping_scenario_csv(self, tmp_path, capsys):
        cfg = parse_config(json.dumps(_config()))
        out = str(tmp_path / "strong.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        header, data = _read_csv(out)
        assert header == [
            "t", "P1", "P2", "P_up", "F_plus", "F_minus", "logneg", "F2",
            "Sz", "S12sq", "norm",
        ]
        assert data["F_minus"].max() <= 0.02
        assert data["F_plus"].max() >= 0.98
        # emitted probabilities are clamped into [0, 1]
        for col in ("P1", "P2", "P_up", "F_plus", "F_minus", "F2"):
            assert data[col].min() >= 0.0
            assert data[col].max() <= 1.0
        captured = capsys.readouterr().out
        assert "F_plus: min=" in captured

    def test_summary_matches_column_extrema(self, tmp_path, capsys):
        cfg = parse_config(json.dumps(_config(run={"n_points": 201})))
        out = str(tmp_path / "sum.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        header, data = _read_csv(out)
        summary = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        for name in header[1:]:
            low, high = summary[name].split(" ")
            assert low == f"min={data[name].min():.17g}"
            assert high == f"max={data[name].max():.17g}"

    def test_heisenberg_scenario(self, tmp_path):
        cfg = parse_config(
            json.dumps(_config(model={"preset": "heisenberg"}, run={"n_points": 1501}))
        )
        out = str(tmp_path / "heis.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        _, data = _read_csv(out)
        assert data["F_plus"].max() == pytest.approx(8.0 / 9.0, abs=0.02)

    def test_transfer_scenario(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                _config(
                    model={"eta": 20.0},
                    initial={"e_spin": "down", "static": "up-down"},
                    run={"n_points": 1501},
                )
            )
        )
        out = str(tmp_path / "qst.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        _, data = _read_csv(out)
        assert data["F2"].max() >= 0.99

    def test_three_site_columns(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                _config(model={"n_sites": 3}, initial={"site": 0}, run={"n_points": 51})
            )
        )
        out = str(tmp_path / "three.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        header, data = _read_csv(out)
        assert header[:5] == ["t", "P1", "P2", "P0", "P_up"]
        assert data["P0"][0] == 1.0

    def test_column_selection(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                _config(output={"columns": ["F_plus", "norm"]}, run={"n_points": 11})
            )
        )
        out = str(tmp_path / "sel.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        header, _ = _read_csv(out)
        assert header == ["t", "F_plus", "norm"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(json.dumps(_config(run={"n_points": 301})))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out1))
        cmd_simulate(dataclasses.replace(cfg, out_path=out2))
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_lf_line_endings_and_single_header(self, tmp_path):
        cfg = parse_config(json.dumps(_config(run={"n_points": 11})))
        out = str(tmp_path / "lf.csv")
        cmd_simulate(dataclasses.replace(cfg, out_path=out))
        blob = open(out, "rb").read()
        assert b"\r" not in blob
        assert blob.count(b"t,P1") == 1
        assert blob.endswith(b"\n")

    def test_csv_values_match_per_value_format(self, tmp_path):
        edge = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 - 2**-53, 1e16, 2001.0]
        table = np.array([edge, edge[::-1]])
        out = tmp_path / "edge.csv"
        cli._write_csv(str(out), [f"c{i}" for i in range(len(edge))], table)
        expected = ",".join(f"c{i}" for i in range(len(edge))) + "\n" + "".join(
            ",".join(f"{x:.17g}" for x in row) + "\n" for row in (edge, edge[::-1])
        )
        assert out.read_bytes() == expected.encode()

    def test_csv_of_several_chunks_matches_the_one_shot_format(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        table = rng.normal(size=(3 * cli._CSV_ROWS + 17, 4)) * 10.0 ** rng.integers(-300, 300, 4)
        table[5] = [-0.0, 5e-324, 0.1 + 0.2, 1 - 2**-53]
        header = ["a", "b", "c", "d"]
        line = "%.17g,%.17g,%.17g,%.17g\n"
        expected = "a,b,c,d\n" + "".join(line % tuple(row) for row in table.tolist())
        writes = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text.count("\n")) or write(text)
            return fh

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        out = tmp_path / "long.csv"
        cli._write_csv(str(out), header, table)
        assert out.read_bytes() == expected.encode()
        # the header, then one write per chunk of rows
        assert writes == [1, cli._CSV_ROWS, cli._CSV_ROWS, cli._CSV_ROWS, 17]



class TestCompareCommand:
    def test_ratio_table(self, tmp_path):
        cfg = parse_config(json.dumps(_config(run={"n_points": 2001})))
        out = str(tmp_path / "cmp.csv")
        cmd_compare(dataclasses.replace(cfg, ratios=(1.0, 2.0, 10.0), out_path=out))
        header, data = _read_csv(out)
        assert header[:2] == ["eta_over_j", "max_state_infidelity"]
        assert list(data["eta_over_j"]) == [1.0, 2.0, 10.0]
        infid = data["max_state_infidelity"]
        # deviation falls with the ratio; the saturated head may tie at ~1
        assert all(b <= a + 1e-4 for a, b in zip(infid, infid[1:]))
        assert infid[2] < 0.5 < infid[0]

    def test_asymptotic_ratio(self, tmp_path):
        cfg = parse_config(json.dumps(_config()))
        out = str(tmp_path / "asym.csv")
        cmd_compare(dataclasses.replace(cfg, ratios=(1000.0,), out_path=out))
        _, data = _read_csv(out)
        assert data["max_state_infidelity"][0] <= 1e-3

    def test_three_site_start_sites(self, tmp_path):
        middle = parse_config(
            json.dumps(_config(model={"n_sites": 3}, initial={"site": 0}))
        )
        out = str(tmp_path / "mid.csv")
        cmd_compare(dataclasses.replace(middle, ratios=(10.0,), out_path=out))
        _, data = _read_csv(out)
        assert data["gap_F_plus"][0] <= 0.05
        side = parse_config(
            json.dumps(_config(model={"n_sites": 3}, initial={"site": 1}))
        )
        out = str(tmp_path / "side.csv")
        cmd_compare(dataclasses.replace(side, ratios=(10.0,), out_path=out))
        _, data = _read_csv(out)
        # measured against the effective chain of its modes
        assert data["gap_F_plus"][0] <= 0.05

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_gap_columns_carry_the_report_gaps(self, tmp_path, n_sites):
        cfg = parse_config(json.dumps(_config(
            model={"n_sites": n_sites}, initial={"site": 1}, run={"n_points": 51}
        )))
        out = str(tmp_path / "gaps.csv")
        cmd_compare(dataclasses.replace(cfg, ratios=(10.0,), out_path=out))
        header, data = _read_csv(out)
        sites = ["P1", "P2", "P0"] if n_sites == 3 else ["P1", "P2"]
        compared = sites + ["P_up", "F_plus", "F_minus", "logneg", "F2"]
        assert header == ["eta_over_j", "max_state_infidelity"] + ["gap_" + c for c in compared]
        report = compare_exact_effective(cfg.spec, cfg.initial, cfg.grid)
        assert {c: data["gap_" + c][0] for c in compared} == report.max_observable_gap

    def test_ratios_required(self, tmp_path):
        cfg = parse_config(json.dumps(_config()))
        with pytest.raises(ConfigError, match="ratios"):
            cmd_compare(dataclasses.replace(cfg, out_path=str(tmp_path / "x.csv")))

    def test_writes_the_ratio_it_was_asked_for(self, tmp_path, capsys):
        # eta = 3 * 0.1, and eta / J = 3.0000000000000004
        cfg = parse_config(json.dumps(_config(model={"j": 0.1}, run={"n_points": 51})))
        out = tmp_path / "cmp.csv"
        cmd_compare(dataclasses.replace(cfg, ratios=(3.0,), out_path=str(out)))
        assert out.read_text().split("\n")[1].startswith("3,")
        assert capsys.readouterr().out.startswith("eta/J=3: ")

    @pytest.mark.parametrize("preset", ["xy", "heisenberg"])
    @pytest.mark.parametrize("n_sites, site", [(2, 1), (3, 0), (3, 1)])
    def test_a_negative_coupling_reads_as_its_magnitude(
        self, tmp_path, capsys, preset, n_sites, site
    ):
        # strong hopping is eta >> |J|, so each ratio runs at eta = ratio * |J|
        tables = []
        for j in (1.0, -1.0):
            cfg = _config(
                model={"n_sites": n_sites, "preset": preset, "j": j},
                initial={"site": site},
                run={"n_points": 201},
            )
            out = str(tmp_path / f"j{j}.csv")
            assert main(["compare", _write(tmp_path, cfg), "--out", out, "--ratios", "1,10,100"]) == 0
            tables.append(_read_csv(out))
        (header, plus), (header_negative, minus) = tables
        assert header_negative == header
        assert list(minus["eta_over_j"]) == [1.0, 10.0, 100.0]
        for c in header:
            assert np.abs(minus[c] - plus[c]).max() <= 1e-12, c

    def test_a_small_ising_coupling_leaves_the_xy_one_as_the_unit(self, tmp_path, capsys):
        # J = j_xy = 1, so eta/J = 1000 runs at eta = 1000, deep in strong hopping
        cfg = _config(model={"preset": "custom", "j_xy": 1.0, "j_z": 1e-6}, run={"n_points": 401})
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", _write(tmp_path, cfg), "--out", out, "--ratios", "1000"]) == 0
        _, data = _read_csv(out)
        assert data["max_state_infidelity"][0] < 1e-4


class TestAnalyticCommand:
    def test_xy_closed_form(self, tmp_path):
        cfg = parse_config(json.dumps(_config(run={"n_points": 2001})))
        out = str(tmp_path / "xy.csv")
        cmd_analytic(dataclasses.replace(cfg, out_path=out))
        header, data = _read_csv(out)
        assert header == ["t", "alpha_up_sq", "alpha_down_sq"]
        assert data["alpha_up_sq"][0] == 1.0
        assert data["alpha_down_sq"][0] == 0.0
        assert data["alpha_down_sq"].max() >= 1.0 - 1e-3  # full transfer
        first_peak = int(np.abs(data["t"] - math.pi / SQRT2).argmin())
        assert data["alpha_down_sq"][first_peak] >= 1.0 - 1e-3

    def test_heisenberg_closed_form(self, tmp_path):
        cfg = parse_config(
            json.dumps(_config(model={"preset": "heisenberg"}, run={"n_points": 2001}))
        )
        out = str(tmp_path / "heis.csv")
        cmd_analytic(dataclasses.replace(cfg, out_path=out))
        _, data = _read_csv(out)
        assert data["alpha_down_sq"].max() == pytest.approx(8.0 / 9.0, abs=1e-3)

    def test_three_site_rate_is_halved(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                _config(model={"n_sites": 3}, initial={"site": 0}, run={"n_points": 601})
            )
        )
        out = str(tmp_path / "three.csv")
        cmd_analytic(dataclasses.replace(cfg, out_path=out))
        _, data = _read_csv(out)
        expected = np.sin(data["t"] / (2 * SQRT2)) ** 2
        assert np.abs(data["alpha_down_sq"] - expected).max() <= 1e-12

    def test_custom_couplings_accepted(self, tmp_path):
        cfg = parse_config(json.dumps(_config(
            model={"preset": "custom", "j_xy": 1.0, "j_z": 0.7}, run={"hamiltonian": "effective"}
        )))
        out = str(tmp_path / "custom.csv")
        cmd_analytic(dataclasses.replace(cfg, out_path=out))
        _, data = _read_csv(out)
        run = run_trajectory(cfg.spec, cfg.hamiltonian, cfg.initial, cfg.grid)
        assert np.abs(data["alpha_up_sq"] - run.p_up).max() <= 1e-12
        assert np.abs(data["alpha_down_sq"] - run.f_plus).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_bundled_config_analytic_follows_the_effective_run(tmp_path, capsys, name):
    # every bundled start has S_z = -1/2, where P_up and F_plus are the two
    # doublet populations; the lattice's effective kind is right for any start
    cfg = parse_config((CONFIGS / name).read_text())
    closed, effective = str(tmp_path / "closed.csv"), str(tmp_path / "effective.csv")
    cmd_analytic(dataclasses.replace(cfg, out_path=closed))
    cmd_simulate(dataclasses.replace(cfg, hamiltonian="effective", out_path=effective))
    capsys.readouterr()
    _, expected = _read_csv(effective)
    _, got = _read_csv(closed)
    assert np.abs(got["alpha_up_sq"] - expected["P_up"]).max() <= 1e-12
    assert np.abs(got["alpha_down_sq"] - expected["F_plus"]).max() <= 1e-12


_EMPTY_PATH = "empty output path: output.path and --out must name a file"


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = _write(tmp_path, _config(run={"n_points": 11}))
        out = str(tmp_path / "ok.csv")
        assert main(["simulate", path, "--out", out]) == 0
        capsys.readouterr()

    def test_config_error_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, _config(model={"n_sites": 4}))
        assert main(["simulate", path, "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_out_path_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, _config(run={"n_points": 11}))
        assert main(["simulate", path]) == 2
        capsys.readouterr()

    def test_bad_ratios_flag_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, _config(run={"n_points": 11}))
        code = main(["compare", path, "--out", str(tmp_path / "x.csv"), "--ratios", "1,two"])
        assert code == 2
        capsys.readouterr()

    def test_empty_ratios_flag_is_2(self, tmp_path, capsys):
        # an empty flag is a bad value, not an absent one that defers to compare.ratios
        path = _write(tmp_path, _config(run={"n_points": 11}, compare={"ratios": [10]}))
        code = main(["compare", path, "--out", str(tmp_path / "x.csv"), "--ratios", ""])
        assert code == 2
        assert capsys.readouterr().err == "config error: bad --ratios value ''\n"
        assert not (tmp_path / "x.csv").exists()

    def test_flags_override_the_config_and_its_values_stand_without_them(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _config(run={"n_points": 11}, output={"path": str(a)}, compare={"ratios": [10]})
        path = _write(tmp_path, cfg)
        assert main(["compare", path, "--out", str(b), "--ratios", "1,3"]) == 0
        assert list(_read_csv(b)[1]["eta_over_j"]) == [1.0, 3.0]
        assert not a.exists()
        assert main(["compare", path]) == 0
        assert list(_read_csv(a)[1]["eta_over_j"]) == [10.0]
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    @pytest.mark.parametrize(
        "output, flags, message",
        [
            ({}, [], "no output path: set output.path or pass --out"),
            ({"path": ""}, [], _EMPTY_PATH),
            ({"path": "x.csv"}, ["--out", ""], _EMPTY_PATH),
        ],
        ids=["missing", "empty-output-path", "empty-out-flag"],
    )
    def test_a_missing_or_empty_output_path_is_2(
        self, tmp_path, capsys, monkeypatch, command, output, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        cfg = _config(run={"n_points": 11}, output=output, compare={"ratios": [10]})
        assert main([command, _write(tmp_path, cfg), *flags]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_out_flag_beats_output_path(self, tmp_path, capsys, command):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        path = _write(tmp_path, _config(run={"n_points": 11}, output={"path": str(a)}))
        assert main([command, path, "--out", str(b)]) == 0
        assert b.exists() and not a.exists()
        assert main([command, path]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_ratios_flag_beats_compare_ratios(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cfg = _config(run={"n_points": 11}, output={"path": str(out)}, compare={"ratios": [10]})
        assert main(["compare", _write(tmp_path, cfg), "--ratios", "2,20"]) == 0
        assert list(_read_csv(out)[1]["eta_over_j"]) == [2.0, 20.0]
        assert capsys.readouterr().out.startswith("eta/J=2: ")

    def test_missing_config_file_is_4(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_output_is_4(self, tmp_path, capsys):
        path = _write(tmp_path, _config(run={"n_points": 11}))
        out = str(tmp_path / "no_such_dir" / "x.csv")
        assert main(["simulate", path, "--out", out]) == 4
        capsys.readouterr()

    def test_numerical_invariant_violation_is_3(self, tmp_path, capsys, monkeypatch):
        broken = _trajectory(p_site=[(0.7, 0.1)], p_up=[0.5], norm=[0.8])
        monkeypatch.setattr(cli, "run_trajectory", lambda *a, **k: broken)
        path = _write(tmp_path, _config(run={"n_points": 11}))
        assert main(["simulate", path, "--out", str(tmp_path / "x.csv")]) == 3
        assert "invariant" in capsys.readouterr().err

    def test_bad_probability_raises_invariant_error(self):
        bad = _trajectory(p_site=[(1.2, -0.2)], p_up=[0.5])
        message = r"P1 = 1\.2 outside \[0, 1\] at t = 0\.0"
        with pytest.raises(NumericalInvariantError, match=message):
            cli._validated_columns(bad, 2)

    def test_invariant_error_names_the_first_failing_point(self):
        bad = _trajectory(
            3,
            t=[0.0, 0.5, 1.0],
            norm=[1.0, 0.8, 1.0],
            p_up=[0.5, 0.5, 1.5],
            p_site=[(1.0, 0.0), (1.0, 0.0), (0.5, 0.5)],
        )
        with pytest.raises(NumericalInvariantError, match=r"^norm drifted to 0\.8 at t = 0\.5$"):
            cli._validated_columns(bad, 2)
        later = _trajectory(2, t=[0.0, 0.5], p_up=[0.5, 1.5])
        message = r"^P_up = 1\.5 outside \[0, 1\] at t = 0\.5$"
        with pytest.raises(NumericalInvariantError, match=message):
            cli._validated_columns(later, 2)
        drifted = _trajectory(2, t=[0.0, 0.25], p_site=[(1.0, 0.0), (0.5, 0.25)])
        message = r"^site populations sum to 0\.75 at t = 0\.25$"
        with pytest.raises(NumericalInvariantError, match=message):
            cli._validated_columns(drifted, 2)

    def test_non_finite_values_raise_invariant_error(self):
        message = r"^norm drifted to nan at t = 0\.5$"
        with pytest.raises(NumericalInvariantError, match=message):
            cli._validated_columns(_trajectory(2, t=[0.0, 0.5], norm=[1.0, math.nan]), 2)
        for field, column in (("logneg", "logneg"), ("sz_total", "Sz"), ("s12_sq", "S12sq")):
            bad = _trajectory(2, t=[0.0, 0.5], **{field: [0.0, math.inf]})
            message = rf"^{column} = inf is not finite at t = 0\.5$"
            with pytest.raises(NumericalInvariantError, match=message):
                cli._validated_columns(bad, 2)

    def test_probabilities_within_tolerance_are_clamped(self):
        noisy = _trajectory(p_site=[(1.0 + 1e-12, -1e-12)], p_up=[1.0 + 1e-12], f2=[-1e-12])
        values = cli._validated_columns(noisy, 2)
        assert values["P1"][0] == 1.0
        assert values["P2"][0] == 0.0
        assert values["P_up"][0] == 1.0
        assert values["F2"][0] == 0.0
        assert values["t"][0] == 0.0

    @pytest.mark.parametrize(
        "command, overrides, flags",
        [
            ("simulate", {"model": {"eta": math.nan}}, ()),
            ("simulate", {"model": {"eta": math.inf}}, ()),
            ("simulate", {"model": {"eta": "HUGE"}}, ()),
            ("simulate", {"model": {"eta": 10**400}}, ()),
            ("simulate", {"model": {"j": math.nan}}, ()),
            ("simulate", {"model": {"preset": "custom", "j_xy": math.nan}}, ()),
            ("simulate", {"run": {"t_max": math.inf}}, ()),
            ("compare", {"compare": {"ratios": [math.nan]}}, ()),
            ("compare", {}, ("--ratios", "nan")),
            ("compare", {}, ("--ratios", "1,inf")),
            ("compare", {}, ("--ratios", "1e400")),
            ("compare", {"model": {"j": 1e10}}, ("--ratios", "1e300")),
        ],
        ids=[
            "eta-nan", "eta-inf", "eta-1e400", "eta-huge-int", "j-nan", "custom-j_xy-nan",
            "t_max-inf", "config-ratio-nan", "flag-ratio-nan", "flag-ratio-inf",
            "flag-ratio-1e400", "eta-overflows",
        ],
    )
    def test_non_finite_number_is_2(self, tmp_path, capsys, command, overrides, flags):
        # "HUGE" stands for the literal 1e400, which JSON parsing turns into inf
        cfg = _config(**overrides)
        cfg["run"]["n_points"] = 11
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg).replace('"HUGE"', "1e400"))
        argv = [command, str(path), "--out", str(tmp_path / "x.csv"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


def _spinhop_process(*args):
    """``python -m spinhop.cli`` with ``args``, run as its own process on the
    sources of this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "spinhop.cli", *args]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def _bundled_runs():
    """(config name, command) for every bundled config: simulate and analytic
    on each, and compare on each that lists its ratios."""
    for path in sorted(CONFIGS.glob("*.json")):
        commands = ["simulate", "analytic"]
        commands += ["compare"] if "compare" in json.loads(path.read_text()) else []
        for command in commands:
            yield path.name, command


class TestProcessExitStatus:
    """The process exits with the code ``main`` returns."""

    @pytest.mark.parametrize("name,command", list(_bundled_runs()))
    def test_a_bundled_config_exits_0_and_writes_what_main_writes(
        self, tmp_path, capsys, name, command
    ):
        path = str(CONFIGS / name)
        child, parent = tmp_path / "child.csv", tmp_path / "parent.csv"
        done = _spinhop_process(command, path, "--out", str(child))
        assert done.returncode == 0, done.stderr
        assert main([command, path, "--out", str(parent)]) == 0
        assert child.read_bytes() == parent.read_bytes()
        assert done.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    def test_a_config_error_exits_2_without_a_traceback(self, tmp_path, command):
        path = _write(tmp_path, _config(model={"n_sites": 4}, compare={"ratios": [10]}))
        done = _spinhop_process(command, path, "--out", str(tmp_path / "x.csv"))
        assert done.returncode == 2
        assert done.stderr.startswith("config error:") and "Traceback" not in done.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_a_usage_error_exits_2_with_the_usage(self, tmp_path):
        done = _spinhop_process("bogus", _write(tmp_path, _config()))
        assert done.returncode == 2
        assert done.stderr.startswith("usage:") and "Traceback" not in done.stderr

    def test_help_exits_0(self):
        done = _spinhop_process("--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage:")

    def test_a_non_finite_closed_form_exits_3(self, tmp_path):
        path = _write(tmp_path, _config(model={"j": 5e-324}, run={"n_points": 11}))
        done = _spinhop_process("analytic", path, "--out", str(tmp_path / "x.csv"))
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("numerical invariant violated:")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    def test_a_missing_config_file_exits_4(self, tmp_path, command):
        done = _spinhop_process(command, str(tmp_path / "nope.json"))
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith("i/o error:")

    def test_an_unwritable_output_exits_4(self, tmp_path):
        path = _write(tmp_path, _config(run={"n_points": 11}))
        done = _spinhop_process("simulate", path, "--out", str(tmp_path / "no_such_dir" / "x.csv"))
        assert done.returncode == 4, done.stderr
        assert done.stderr.startswith("i/o error:")


class TestEdgeInputs:
    """Inputs the program cannot run end in a documented exit code."""

    def _main(self, tmp_path, command, cfg, *flags):
        path = _write(tmp_path, cfg)
        return main([command, path, "--out", str(tmp_path / "x.csv"), *flags])

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_effective_without_hopping_is_a_config_error(self, tmp_path, capsys, n_sites):
        # at eta = 0 the kinetic modes do not separate, on either lattice
        cfg = _config(
            model={"n_sites": n_sites, "eta": 0.0},
            run={"hamiltonian": "effective", "n_points": 11},
        )
        assert self._main(tmp_path, "simulate", cfg) == 2
        assert capsys.readouterr().err == (
            "config error: effective requires eta > 0, which separates the kinetic modes\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [["compare", "--ratios", "10"], ["analytic"]])
    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_commands_that_ignore_the_kind_run_without_hopping(
        self, tmp_path, capsys, n_sites, command
    ):
        # compare sets eta from each ratio and analytic runs no kind, so an
        # effective kind at eta = 0 stops neither
        cfg = _config(
            model={"n_sites": n_sites, "eta": 0.0},
            run={"hamiltonian": "effective", "n_points": 11},
        )
        name, *flags = command
        assert self._main(tmp_path, name, cfg, *flags) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", [["simulate"], ["compare", "--ratios", "10"], ["analytic"]])
    def test_unknown_kind_is_a_config_error_on_every_command(self, tmp_path, capsys, command):
        cfg = _config(run={"hamiltonian": "trotter", "n_points": 11})
        name, *flags = command
        assert self._main(tmp_path, name, cfg, *flags) == 2
        assert capsys.readouterr().err == (
            "config error: unknown hamiltonian kind 'trotter'; valid: ('exact', 'effective')\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_analytic_without_coupling_is_a_config_error(self, tmp_path, capsys):
        cfg = _config(model={"preset": "custom"}, run={"n_points": 11})
        assert self._main(tmp_path, "analytic", cfg) == 2
        assert capsys.readouterr().err == (
            "config error: model: the closed form needs a nonzero coupling; j_xy = j_z = 0\n"
        )

    def test_compare_without_coupling_is_a_config_error(self, tmp_path, capsys):
        cfg = _config(model={"preset": "custom"}, run={"n_points": 11})
        assert self._main(tmp_path, "compare", cfg, "--ratios", "10") == 2
        assert capsys.readouterr().err == (
            "config error: coupling scale is zero; eta/J is undefined\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    @pytest.mark.parametrize(
        "preset, key, taken",
        [("xy", "j_xy", "j"), ("xy", "j_z", "j"), ("heisenberg", "j_xy", "j"),
         ("heisenberg", "j_z", "j"), ("custom", "j", "j_xy and j_z")],
    )
    def test_a_coupling_the_preset_does_not_take_is_a_config_error(
        self, tmp_path, capsys, preset, key, taken, command
    ):
        message = f"preset {preset!r} takes {taken}, not {key}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelSpec.from_preset(preset, 2, 10.0, **{key: 1.0})
        cfg = _config(model={"preset": preset, key: 1.0}, run={"n_points": 11})
        flags = ["--ratios", "10"] if command == "compare" else []
        assert self._main(tmp_path, command, cfg, *flags) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_overflowing_energy_scale_is_a_config_error(self, tmp_path, capsys):
        cfg = _config(model={"preset": "heisenberg", "j": -1e308}, run={"n_points": 11})
        assert self._main(tmp_path, "simulate", cfg) == 2
        err = capsys.readouterr().err
        assert "overflows" in err
        assert self._main(tmp_path, "analytic", cfg) == 2
        assert capsys.readouterr().err == err
        cfg = _config(model={"j": 1e300}, run={"n_points": 11})
        assert self._main(tmp_path, "compare", cfg, "--ratios", "1,1e7") == 2
        assert "eta/J = 10000000.0: energy scale" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_compare_ratio_underflow_is_a_config_error(self, tmp_path, capsys):
        cfg = _config(model={"j": 1e-300}, run={"n_points": 11})
        assert self._main(tmp_path, "compare", cfg, "--ratios", "1e-300") == 2
        assert "underflows" in capsys.readouterr().err

    def test_huge_couplings_are_solved(self, tmp_path, capsys):
        # LAPACK's complex eigh of the 9-dim block does not converge; M * 2^-e does
        cfg = _config(
            model={"n_sites": 3, "preset": "custom", "j_xy": 1e290, "j_z": 1.0, "eta": 1e10},
            initial={"site": 1, "static": "up-down"},
            run={"n_points": 11},
        )
        assert self._main(tmp_path, "simulate", cfg) == 0
        assert capsys.readouterr().err == ""
        config = parse_config(json.dumps(cfg))
        blocks = model._sector_blocks(config.spec, "exact", config.initial)
        assert [len(idx) for _, idx, _ in blocks] == [9]
        for _, _, block in blocks:
            w, v = hermitian_eigensystem(block)
            scale = np.abs(block).max()
            assert np.abs(block @ v - v * w).max() <= 1e-14 * scale

    def test_eigensolver_failure_is_an_invariant_violation(self, tmp_path, capsys, monkeypatch):
        # should LAPACK give up on a block all the same
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert self._main(tmp_path, "simulate", _config(run={"n_points": 11})) == 3
        assert capsys.readouterr().err == (
            "numerical invariant violated: Eigenvalues did not converge\n"
        )

    def test_grid_beyond_the_array_size_limit_is_a_config_error(self, tmp_path, capsys):
        assert self._main(tmp_path, "simulate", _config(run={"n_points": 10**30})) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_points must be an integer in [2, ")

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    @pytest.mark.parametrize("n_points", [2**59, 2**63 - 1], ids=["2^59", "2^63-1"])
    def test_a_grid_longer_than_the_largest_amplitude_array_is_a_config_error(
        self, tmp_path, capsys, command, n_points
    ):
        # the grid is rejected when the config is read, before any array is sized
        flags = ("--ratios", "10") if command == "compare" else ()
        assert self._main(tmp_path, command, _config(run={"n_points": n_points}), *flags) == 2
        bound = np.iinfo(np.intp).max // np.dtype(complex).itemsize
        assert capsys.readouterr().err == (
            f"config error: n_points must be an integer in [2, {bound}], got {n_points}\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    def test_running_out_of_memory_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        def exhausted(grid):
            raise MemoryError("Unable to allocate 7.28 EiB")

        monkeypatch.setattr(TimeGrid, "times", exhausted)
        flags = ("--ratios", "10") if command == "compare" else ()
        assert self._main(tmp_path, command, _config(run={"n_points": 11}), *flags) == 2
        assert capsys.readouterr().err == (
            "config error: the run does not fit in memory: Unable to allocate 7.28 EiB\n"
        )
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"model": "\xff"}', "config is not UTF-8 text: 'utf-8' codec can't decode"),
            (b"[" * 200000, "unreadable JSON: maximum recursion depth exceeded"),
            (b'{"model": {"eta": ' + b"1" * 5000 + b"}}", "unreadable JSON: Exceeds the limit"),
        ],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message) and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (_config(run=[]), "run must be a JSON object"),
            ([], "config must be a JSON object"),
            ({"initial": _config()["initial"]}, "missing required block 'model'"),
            ({**_config(), "model": {"n_sites": 2}}, "missing required key 'eta' in model"),
            ({"model": _config()["model"]}, "missing required block 'initial'"),
            (_config(output={"path": 3}), "output.path must be a string, got 3"),
            (_config(output={"columns": "P_up"}),
             "output.columns must be a non-empty list of column names"),
            (_config(output={"columns": []}),
             "output.columns must be a non-empty list of column names"),
            (_config(compare={"ratios": []}), "compare.ratios must be a non-empty list of numbers"),
            (_config(compare={"ratios": 10}), "compare.ratios must be a non-empty list of numbers"),
        ],
        ids=[
            "block-not-object", "top-level-not-object", "missing-model", "missing-eta",
            "missing-initial", "path-not-string", "columns-not-list", "columns-empty",
            "ratios-empty",
            "ratios-not-list",
        ],
    )
    def test_config_shape_errors(self, tmp_path, capsys, cfg, message):
        assert self._main(tmp_path, "simulate", cfg) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["1", True, None, [1], {}], ids=repr)
    @pytest.mark.parametrize(
        "block, key, preset, library",
        [
            ("model", "eta", "xy", lambda v: ModelSpec.from_preset("xy", 2, v)),
            ("model", "j", "xy", lambda v: ModelSpec.from_preset("xy", 2, 10.0, j=v)),
            ("model", "j_xy", "custom",
             lambda v: ModelSpec.from_preset("custom", 2, 10.0, j_xy=v)),
            ("model", "j_z", "custom", lambda v: ModelSpec.from_preset("custom", 2, 10.0, j_z=v)),
            ("run", "t_max", "xy", lambda v: TimeGrid(t_max=v, n_points=11)),
        ],
        ids=["eta", "j", "j_xy", "j_z", "t_max"],
    )
    def test_a_number_of_the_wrong_json_type_carries_the_library_message(
        self, tmp_path, capsys, block, key, preset, library, value
    ):
        with pytest.raises(ValueError) as expected:
            library(value)
        cfg = _config(model={"preset": preset}, run={"n_points": 11})
        cfg[block][key] = value
        assert self._main(tmp_path, "simulate", cfg) == 2
        assert capsys.readouterr().err == f"config error: {expected.value}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("shape", ["absent", "null", "list", "unknown-key"])
    @pytest.mark.parametrize("block", ["model", "initial", "run", "output", "compare"])
    def test_each_block_is_checked_for_its_shape(self, tmp_path, capsys, block, shape):
        cfg = _config(run={"n_points": 11})
        keys, required = cli._BLOCKS[block]
        if shape == "absent":
            cfg.pop(block, None)
            message = f"missing required block {block!r}" if required else None
        elif shape == "null":
            cfg[block] = None
            message = f"{block} must be a JSON object"
            if required:
                message = f"missing required block {block!r}"
        elif shape == "list":
            cfg[block] = []
            message = f"{block} must be a JSON object"
        else:
            cfg[block] = {**cfg.get(block, {}), "bogus": 1}
            message = f"unknown key 'bogus' in {block} (expected one of {sorted(keys)})"
        code = self._main(tmp_path, "simulate", cfg)
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"config error: {message}\n")

    @pytest.mark.parametrize("block", ["output", "compare"])
    def test_shape_errors_come_before_value_errors(self, tmp_path, capsys, block):
        cfg = _config(model={"eta": -1.0}, **{block: []})
        assert self._main(tmp_path, "simulate", cfg) == 2
        assert capsys.readouterr().err == f"config error: {block} must be a JSON object\n"

    @pytest.mark.parametrize(
        "name, reason, flag",
        [
            ("a\ud800.csv", "surrogates not allowed", False),
            ("a\x00.csv", "embedded null byte", False),
            ("a\ud800.csv", "surrogates not allowed", True),
        ],
        ids=["lone-surrogate", "nul-byte", "lone-surrogate-out-flag"],
    )
    def test_output_path_open_rejects_is_a_config_error(
        self, tmp_path, capsys, name, reason, flag
    ):
        out = str(tmp_path / name)
        cfg = _config(run={"n_points": 11}, output={} if flag else {"path": out})
        flags = ["--out", out] if flag else []
        assert main(["simulate", _write(tmp_path, cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unusable output path {out!r}: ")
        assert err.endswith(reason + "\n") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, reason",
        [("a\ud800.json", "surrogates not allowed"), ("a\x00b", "embedded null byte")],
        ids=["lone-surrogate", "nul-byte"],
    )
    def test_config_path_open_rejects_is_a_config_error(self, tmp_path, capsys, name, reason):
        path = str(tmp_path / name)
        assert main(["simulate", path, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unusable config path {path!r}: ")
        assert err.endswith(reason + "\n") and "Traceback" not in err
        assert err.count("\n") == 1

    # an empty --out is a bad value, not an absent one that defers to output.path
    @pytest.mark.parametrize(
        "config_path, flags", [("x.csv", ["--out", ""]), ("", [])], ids=["out-flag", "output-path"]
    )
    def test_empty_output_path_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, config_path, flags
    ):
        monkeypatch.chdir(tmp_path)
        cfg = _config(run={"n_points": 11}, output={"path": config_path})
        assert main(["simulate", _write(tmp_path, cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err == "config error: empty output path: output.path and --out must name a file\n"
        assert not (tmp_path / "x.csv").exists()

    def test_simulate_and_analytic_read_heisenberg_alike(self, tmp_path, capsys):
        # j_xy = j / 2 underflows to 0: both take the preset as Heisenberg
        cfg = _config(model={"preset": "heisenberg", "j": 5e-324}, run={"n_points": 11})
        assert self._main(tmp_path, "simulate", cfg) == 0
        assert self._main(tmp_path, "analytic", cfg) == 3
        assert capsys.readouterr().err == (
            "numerical invariant violated: closed-form period overflows (J = 5e-324)\n"
        )

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"j": 1e-310}, "closed-form period overflows"),
            # j / 2 underflows to 0 on three sites; the period still overflows
            ({"n_sites": 3, "j": 5e-324}, "closed-form period overflows (J = 5e-324)"),
        ],
        ids=["period-overflows", "three-site-period-overflows"],
    )
    def test_non_finite_closed_form_is_an_invariant_violation(
        self, tmp_path, capsys, model, message
    ):
        cfg = _config(model=model, run={"n_points": 11})
        assert self._main(tmp_path, "analytic", cfg) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


_EXTREMES = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, -1e-300, 1e-10, 1e10, 1e300, -1e300,
             1e308, -1e308, 1.7976931348623157e308]
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
# half the draws come from values a run accepts, to get past the config checks
_POSITIVE = st.one_of(
    st.sampled_from([x for x in _EXTREMES if x > 0]), st.floats(1e-3, 1e3), _NUMBERS
)
# fields whose values the library types check, not the CLI
_LIBRARY_FIELDS = [
    ("model", "n_sites"), ("model", "eta"), ("initial", "site"), ("initial", "e_spin"),
    ("initial", "static"), ("run", "hamiltonian"), ("run", "t_max"), ("run", "n_points"),
]


@st.composite
def _fuzz_configs(draw):
    n_sites = draw(st.sampled_from([2, 3]))
    preset = draw(st.sampled_from(["xy", "heisenberg", "custom"]))
    model = {"n_sites": n_sites, "eta": draw(_POSITIVE), "preset": preset}
    keys = ["j"] if preset != "custom" else ["j_xy", "j_z"]
    keys += draw(st.lists(st.sampled_from(["j", "j_xy", "j_z"]), max_size=1))
    model.update({k: draw(_NUMBERS) for k in keys})
    cfg = {
        "model": model,
        "initial": {
            "site": draw(st.sampled_from([1, 2, 0] if n_sites == 3 or draw(st.booleans()) else [1, 2])),
            "e_spin": draw(st.sampled_from(["up", "down"])),
            "static": draw(st.sampled_from(list(_STATIC_PRESETS))),
        },
        "run": {
            "hamiltonian": draw(st.sampled_from(HAMILTONIAN_KINDS)),
            "t_max": draw(_POSITIVE),
            # 10**30 is rejected before any array is sized from it
            "n_points": draw(st.one_of(st.integers(min_value=0, max_value=6), st.just(10**30))),
        },
        "compare": {"ratios": draw(st.lists(_POSITIVE, min_size=1, max_size=3))},
    }
    wrong = draw(st.booleans())
    if wrong:  # a JSON value of the wrong type in a field the library checks
        block, key = draw(st.sampled_from(_LIBRARY_FIELDS))
        cfg[block][key] = draw(st.sampled_from([True, "1", [1], {}, None]))
    return draw(st.sampled_from(["simulate", "compare", "analytic"])), cfg, wrong


@settings(max_examples=300, deadline=None)
@given(_fuzz_configs())
@example(  # linspace overflows on its way to the largest t_max
    (
        "simulate",
        {
            "model": {"n_sites": 2, "eta": 0.1, "preset": "xy", "j": 0.1},
            "initial": {"site": 1, "e_spin": "up", "static": "down-down"},
            "run": {"hamiltonian": "exact", "t_max": 1.7976931348623157e308, "n_points": 4},
            "compare": {"ratios": [1.0]},
        },
        False,
    )
)
def test_fuzzed_configs_end_in_a_documented_exit_code(command_and_config):
    command, cfg, wrong = command_and_config
    out_text, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out", str(out)])
        assert code == 2 if wrong else code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert table.size and np.isfinite(table).all()
        if code == 0 and command == "analytic":
            (period,) = [
                float(line.removeprefix("period="))
                for line in out_text.getvalue().splitlines()
                if line.startswith("period=")
            ]
            assert math.isfinite(period) and period > 0.0


_MIRROR_SITE = {1: 2, 2: 1, 0: 0}
_MIRROR_STATIC = {"up-down": "down-up", "down-up": "up-down"}


@st.composite
def _mirrored_configs(draw):
    """A config of ``simulate_configs`` and its mirror: initial.site 1 <-> 2
    and the static pair up-down <-> down-up."""
    cfg = draw(simulate_configs())
    initial = cfg["initial"]
    mirror = {
        "site": _MIRROR_SITE[initial["site"]],
        "static": _MIRROR_STATIC.get(initial["static"], initial["static"]),
    }
    return cfg, {**cfg, "initial": {**initial, **mirror}}


def _simulate(tmp, cfg, name):
    path, out = Path(tmp) / f"{name}.json", Path(tmp) / f"{name}.csv"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--out", str(out)])
    return code, err.getvalue(), out


@settings(max_examples=200, deadline=None)
@given(_mirrored_configs())
def test_mirrored_config_mirrors_the_simulate_columns(configs):
    # the mirror commutes with every kind, so a config and its mirror run
    # alike: P1 and P2 trade places and every other column but F2 stays,
    # within 16 eps * (scale * max(t_max, 1) + 4), the phase rounding plus a
    # floor of 64 eps for the eigensolve of a block of up to 9 states (it
    # reads up to 32 eps where scale * t_max is tiny); or both end alike, in
    # a config error or a solver that does not converge
    cfg, mirrored = configs
    with tempfile.TemporaryDirectory() as tmp:
        (code, err, out), (code_m, err_m, out_m) = (
            _simulate(tmp, c, name) for c, name in ((cfg, "a"), (mirrored, "b"))
        )
        assert (code, err) == (code_m, err_m)
        if code != 0:
            assert code in (2, 3) and "Traceback" not in err, err
            return
        header, data = _read_csv(out)
        header_m, data_m = _read_csv(out_m)
    assert header == header_m
    spec = parse_config(json.dumps(cfg)).spec
    scale = spec.eta + abs(spec.j_xy) + abs(spec.j_z)
    bound = 16.0 * np.finfo(float).eps * (scale * max(cfg["run"]["t_max"], 1.0) + 4.0)
    swap = {"P1": "P2", "P2": "P1"}
    for name in header:
        if name != "F2":
            gap = np.abs(data_m[swap.get(name, name)] - data[name]).max()
            assert gap <= bound, (name, gap / bound)
