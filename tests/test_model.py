"""Model layer: the spec and its presets, the basis layout, the Hamiltonian
builders and their S_z sectors, the closed form's mode table and the start
states.

``TestBuilderOracle`` holds every S_z block that runs solve, of both kinds
on both lattices, bit for bit to the same block of
``helpers.hamiltonian_oracle``, written out from the operator definitions,
and the oracle to exact zeros between sectors; so the other tests may use
the oracle's whole matrix as the library's.  ``TestSectors`` checks that
the blocks partition the basis by S_z and that the mirror and the spin flip
commute with every kind.  The effective kind's physics is checked on the
spectrum in ``test_band_hamiltonian`` and through runs in
``test_acceptance``."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from spinhop import model
from spinhop.model import (
    _STATIC_PRESETS,
    HAMILTONIAN_KINDS,
    MODE_RATES,
    BasisLayout,
    ModelSpec,
    encode_state,
)

from helpers import (
    COUPLINGS,
    decode,
    encode,
    hamiltonian_oracle,
    sz_of_basis,
)

class TestModelSpec:
    @pytest.mark.parametrize(
        "numbers",
        [{"eta": np.nan}, {"eta": np.inf}, {"j_xy": np.nan}, {"j_z": -np.inf},
         # no finite real number either: a bool is an int, an int beyond
         # the float range has no float value
         {"eta": True}, {"j_xy": True}, {"eta": 10**400}, {"j_xy": 10**400},
         {"j_z": -(10**400)}, {"eta": "1"}, {"j_z": "1"}, {"eta": None}],
    )
    def test_rejects_non_finite_numbers(self, numbers):
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(**{"n_sites": 2, "eta": 1.0, **numbers})

    def test_accepts_ints_and_numpy_reals(self):
        spec = ModelSpec(2, 10, j_xy=np.float32(0.5), j_z=np.int64(1))
        assert (spec.eta, spec.j_xy, spec.j_z) == (10, 0.5, 1)
        assert all(type(x) is float for x in (spec.eta, spec.j_xy, spec.j_z))
        # a numpy integer is a lattice size and a site label, kept as an int
        spec = ModelSpec(np.int64(3), np.uint8(4))
        assert (spec.n_sites, spec.eta) == (3, 4.0) and type(spec.n_sites) is int
        layout = BasisLayout(np.int64(2))
        assert layout == BasisLayout(2) and type(layout.n_sites) is int
        assert layout.site_index(np.int64(1)) == 0
        assert BasisLayout(np.int32(3)).site_index(np.uint16(0)) == 1

    @pytest.mark.parametrize(
        "j_xy, j_z, j",
        [(1.0, 1e-6, 1.0), (0.3, -0.7, -0.7), (0.5, 0.5, 0.5), (0.5, -0.5, -0.5),
         (-2.0, 1.0, -2.0)],
    )
    def test_energy_unit_is_the_larger_coupling_ising_on_a_tie(self, j_xy, j_z, j):
        assert ModelSpec(2, 1.0, j_xy=j_xy, j_z=j_z).j_ref == j

    def test_zero_coupling_has_no_energy_unit(self):
        assert ModelSpec(2, 1.0, j_xy=0.5).j_ref == 0.5
        with pytest.raises(ValueError, match="coupling scale is zero"):
            ModelSpec(2, 1.0).j_ref


class TestFromPreset:
    @pytest.mark.parametrize(
        "preset, couplings, expected",
        [
            ("xy", {}, (1.0, 0.0)),
            ("xy", {"j": 2}, (2.0, 0.0)),
            ("xy", {"j": -3.0}, (-3.0, 0.0)),
            ("xy", {"j": 0}, (0.0, 0.0)),
            ("heisenberg", {}, (0.5, 1.0)),
            ("heisenberg", {"j": 2.0}, (1.0, 2.0)),
            ("heisenberg", {"j": 3}, (1.5, 3.0)),
            ("heisenberg", {"j": 0.5}, (0.25, 0.5)),
            ("custom", {}, (0.0, 0.0)),
            ("custom", {"j_xy": 1, "j_z": 0.7}, (1.0, 0.7)),
            ("xy", {"j": 5e-324}, (5e-324, 0.0)),
            ("xy", {"j": -1e290}, (-1e290, 0.0)),
            ("heisenberg", {"j": -5e-324}, (-0.0, -5e-324)),  # j / 2 underflows to 0
            ("heisenberg", {"j": 1e290}, (5e289, 1e290)),
        ],
    )
    def test_couplings(self, preset, couplings, expected):
        spec = ModelSpec.from_preset(preset, 3, 10, **couplings)
        assert (spec.n_sites, spec.eta, spec.j_xy, spec.j_z) == (3, 10.0, *expected)
        assert all(type(x) is float for x in (spec.j_xy, spec.j_z))

    @pytest.mark.parametrize(
        "preset, couplings, message",
        [
            ("ising", {}, "model.preset must be xy, heisenberg or custom, got 'ising'"),
            (["xy"], {}, "model.preset must be xy, heisenberg or custom, got ['xy']"),
            ("custom", {"j": 1.0}, "preset 'custom' takes j_xy and j_z, not j"),
            ("custom", {"j_xy": math.inf}, "model.j_xy must be finite, got inf"),
            ("xy", {"j_z": 0.5}, "preset 'xy' takes j, not j_z"),
            ("xy", {"j": 2.0, "j_xy": 2.0}, "preset 'xy' takes j, not j_xy"),
            ("xy", {"j": 10**400}, f"model.j must be finite, got {10**400!r}"),
            ("heisenberg", {"j": 2.0, "j_z": 1.0}, "preset 'heisenberg' takes j, not j_z"),
            ("heisenberg", {"j_z": 1.0, "j_xy": 0.9},
             "preset 'heisenberg' takes j, not j_xy or j_z"),
            # a refused coupling is refused whatever its value
            ("custom", {"j": math.nan, "j_z": True}, "preset 'custom' takes j_xy and j_z, not j"),
            ("custom", {"j_z": True}, "model.j_z must be finite, got True"),
            ("xy", {"j": True}, "model.j must be finite, got True"),
            ("xy", {"j_q": 1.0}, "preset 'xy' takes j, not j_q"),
        ],
    )
    def test_messages_name_the_config_keys(self, preset, couplings, message):
        with pytest.raises(ValueError) as raised:
            ModelSpec.from_preset(preset, 2, 10.0, **couplings)
        assert str(raised.value) == message


class TestBasisLayout:
    def test_site_labels(self):
        assert BasisLayout(2).site_labels() == (1, 2)
        assert BasisLayout(3).site_labels() == (1, 0, 2)
        assert BasisLayout(3).site_index(0) == 1  # middle site sits at index 1
        with pytest.raises(ValueError, match="site label"):
            BasisLayout(2).site_index(0)
        with pytest.raises(ValueError, match="site label"):
            BasisLayout(2).site_index(np.True_)

    @pytest.mark.parametrize(
        "n_sites", [4, 5, 3.0, 2.0, True, pytest.param(np.True_, id="numpy-bool"), "3", "2"]
    )
    def test_rejects_any_lattice_size_but_the_integers_2_and_3(self, n_sites):
        # the value is quoted as given: "2" is not 2
        message = f"^n_sites must be 2 or 3, got {re.escape(repr(n_sites))}$"
        with pytest.raises(ValueError, match=message):
            BasisLayout(n_sites)


def _blocks(spec, kind="exact"):
    """The S_z blocks of every sector, as a run of a start occupying all of
    them builds them."""
    return model._sector_blocks(spec, kind, np.ones(8 * spec.n_sites))


class TestBuilderOracle:
    @pytest.mark.parametrize("n_sites", [2, 3])
    @pytest.mark.parametrize("j_xy,j_z", [(1.0, 0.0), (0.5, 1.0), (0.3, -0.7)])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 1e3])
    def test_builders_match_kron_oracle(self, n_sites, j_xy, j_z, eta):
        # the oracle pins spin 1 at site 0 and spin 2 at the last site, so
        # bit-equality also fixes where the builders put the static spins;
        # entries between two S_z sectors are exact zeros in every oracle, so
        # its S_z blocks and zeros make up its whole matrix; at eta = 0 the
        # exact kind is the contact term alone
        sz = sz_of_basis(BasisLayout(n_sites))
        spec = ModelSpec(n_sites, eta, j_xy, j_z)
        for kind in HAMILTONIAN_KINDS:
            if kind == "effective" and eta == 0.0:
                continue  # rejected, see test_effective_needs_hopping
            ref = hamiltonian_oracle(spec, kind)
            assert np.all(ref[sz[:, None] != sz] == 0.0), kind
            for _, idx, block in _blocks(spec, kind):
                assert np.array_equal(block, ref[np.ix_(idx, idx)]), (kind, idx[0])

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_returned_matrices_are_fresh(self, n_sites):
        spec = ModelSpec(n_sites, 2.0, 0.5, 1.0)
        builders = [
            lambda s: _blocks(ModelSpec(s.n_sites, s.eta)),  # hopping alone
            lambda s: _blocks(dataclasses.replace(s, eta=0.0)),  # contact alone
        ]
        builders += [lambda s, k=k: _blocks(s, k) for k in HAMILTONIAN_KINDS]
        for build in builders:
            blocks = [block for _, _, block in build(spec)]
            before = [block.copy() for block in blocks]
            for block in blocks:
                assert block.flags.writeable
                block[:] = 7.0
            again = [block for _, _, block in build(spec)]
            assert all(map(np.array_equal, again, before))

    def test_builds_reuse_cached_terms(self, monkeypatch):
        specs = [ModelSpec(n, 2.0, 0.5, 1.0) for n in (2, 3)]

        def build_every_kind():
            for spec in specs:
                for kind in HAMILTONIAN_KINDS:
                    _blocks(spec, kind)
                _blocks(ModelSpec(spec.n_sites, spec.eta))
                _blocks(dataclasses.replace(spec, eta=0.0))

        build_every_kind()  # fills the cache for every lattice
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "kron", counted(np.kron))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        build_every_kind()
        assert calls == []


def _every_built_kind():
    """(spec, kind) for every kind on both lattices, the xy, Heisenberg and
    one custom coupling, at eta = 0 where the kind allows it, 1 and 1e3."""
    for n_sites in (2, 3):
        for j_xy, j_z in COUPLINGS.values():
            for eta in (0.0, 1.0, 1e3):
                for kind in HAMILTONIAN_KINDS:
                    if not (kind == "effective" and eta == 0.0):
                        yield ModelSpec(n_sites, eta, j_xy, j_z), kind


class TestSectors:
    """Runs build only the S_z blocks their start occupies, on the grounds
    that every kind conserves S_z; these check that ground exactly."""

    def test_sector_blocks_make_up_the_whole_matrix(self):
        # the blocks cover every basis state once, each sector of one S_z;
        # with their values, and the oracle's zeros between sectors
        # (TestBuilderOracle), they and zeros make up the oracle's whole matrix
        for spec, kind in _every_built_kind():
            sz = sz_of_basis(BasisLayout(spec.n_sites))
            blocks = _blocks(spec, kind)
            n = spec.n_sites
            assert [len(idx) for _, idx, _ in blocks] == [n, 3 * n, 3 * n, n]
            # every sector, S_z ascending from -3/2
            assert [sz[idx[0]] for _, idx, _ in blocks] == [-1.5, -0.5, 0.5, 1.5]
            for _, idx, block in blocks:
                assert np.all(sz[idx] == sz[idx[0]]) and block.shape == (len(idx), len(idx))
            covered = np.sort(np.concatenate([idx for _, idx, _ in blocks]))
            assert np.array_equal(covered, np.arange(8 * n)), (spec, kind)

    @pytest.mark.parametrize(
        "amplitude,occupied",
        [
            (0.0, False),
            (-0.0, False),
            (complex(-0.0, -0.0), False),
            (5e-324, True),  # the smallest subnormal
            (complex(0.0, -5e-324), True),  # imaginary only
            (np.nan, True),
            (complex(0.0, np.nan), True),
        ],
    )
    def test_a_sector_is_occupied_by_any_nonzero_amplitude(self, amplitude, occupied):
        # a signed zero leaves its sector out; any other value, a subnormal,
        # NaN or imaginary-only one too, brings it in
        spec = ModelSpec.xy(1.0, n_sites=3)
        layout = BasisLayout(3)
        start = encode_state(layout, 1, "up", "down-down")  # S_z = -1/2
        up = model._sectors(3)[3][0]  # S_z = +3/2
        start[up[-1]] = amplitude
        blocks = model._sector_blocks(spec, "exact", start)
        sz = sz_of_basis(layout)
        assert [sz[idx[0]] for _, idx, _ in blocks] == ([-0.5, 1.5] if occupied else [-0.5])

    def test_mirror_and_spin_flip_commute_with_every_kind(self):
        for spec, kind in _every_built_kind():
            layout = BasisLayout(spec.n_sites)
            labels = [decode(layout, i) for i in range(layout.dim)]
            last = spec.n_sites - 1
            # site x -> last - x with the static spins swapped; I ⊗ X ⊗ X ⊗ X
            mirror = [encode(layout, last - x, e, s2, s1) for x, e, s1, s2 in labels]
            flip = [encode(layout, x, 1 - e, 1 - s1, 1 - s2) for x, e, s1, s2 in labels]
            h = hamiltonian_oracle(spec, kind)
            for permutation in (mirror, flip):
                p = np.eye(layout.dim)[permutation]
                assert np.array_equal(p @ h, h @ p), (spec, kind)


class TestEffectiveHamiltonian:
    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_mode_rates_split_the_sites_into_kinetic_mode_groups(self, n_sites):
        hopping = hamiltonian_oracle(ModelSpec(n_sites, 1.0))[::8, ::8]
        projectors = [p for _, p in MODE_RATES[n_sites]]
        assert np.array_equal(sum(projectors), np.eye(n_sites))
        for p, q in itertools.product(projectors, repeat=2):
            assert np.array_equal(p @ q, p if p is q else np.zeros_like(p))
        for p in projectors:
            assert np.array_equal(p, p.conj().T) and np.array_equal(p @ hopping, hopping @ p)
        rates = [rate for rate, _ in MODE_RATES[n_sites]]
        assert rates == ([0.5] if n_sites == 2 else [0.25, 0.5])

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_effective_needs_hopping(self, n_sites):
        with pytest.raises(ValueError, match="eta > 0"):
            _blocks(ModelSpec(n_sites, 0.0), "effective")


class TestEncodeState:
    @pytest.mark.parametrize("n_sites, site", [(2, 1), (2, 2), (3, 1), (3, 0), (3, 2)])
    def test_every_start_state_equals_the_kron_product(self, n_sites, site):
        layout = BasisLayout(n_sites)
        starts = list(itertools.product([site], ("up", "down"), _STATIC_PRESETS))
        for site, e_spin, static in starts:
            mot = np.eye(n_sites)[layout.site_index(site)]
            e_vec = np.eye(2)[("up", "down").index(e_spin)]
            expected = np.kron(mot, np.kron(e_vec, _STATIC_PRESETS[static]))
            psi = encode_state(layout, site, e_spin, static)
            assert psi.dtype == complex and np.array_equal(psi, expected)  # -0.0 == 0.0
        assert len(starts) == 12  # the mobile spin and the six static presets

    # an unknown, unhashable or non-string label is a ValueError, never a
    # TypeError from the lookup
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: encode_state(BasisLayout(2), 1, "sideways", "down-down"), "mobile-spin"),
            (lambda: encode_state(BasisLayout(2), 1, "up", "down"), "static-pair preset"),
            (lambda: encode_state(BasisLayout(2), 3, "up", "down-down"), "site label"),
        ]
        + [
            (lambda label=label, call=call: call(label), message)
            for label in (["up-up"], {}, None, True)
            for call, message in [
                (lambda x: encode_state(BasisLayout(2), 1, x, "down-down"), "mobile-spin"),
                (lambda x: encode_state(BasisLayout(2), 1, "up", x), "static-pair preset"),
                (lambda x: encode_state(BasisLayout(2), x, "up", "down-down"), "site label"),
                (lambda x: _blocks(ModelSpec.xy(1.0), x), "unknown hamiltonian kind"),
            ]
        ],
        ids=["e_spin-sideways", "static-down", "site-3"]
        + [f"{kind}-{label!r}" for label in (["up-up"], {}, None, True)
           for kind in ("e_spin", "static", "site", "kind")],
    )
    def test_labels_are_checked(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
