"""Model layer: basis layout, exact and effective Hamiltonians, initial states."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from spinhop import model
from spinhop.linalg import hermitian_eigensystem
from spinhop.model import (
    _STATIC_PRESETS,
    HAMILTONIAN_KINDS,
    MODE_RATES,
    BasisLayout,
    ModelSpec,
    build_hamiltonian,
    encode_state,
)

from helpers import (
    COUPLINGS,
    collective_spin_oracle,
    decode,
    encode,
    hamiltonian_oracle,
    sz_of_basis,
)

SQRT2 = np.sqrt(2.0)


def _spin_vector(e, s1, s2):
    v = np.zeros(8, dtype=complex)
    v[e * 4 + s1 * 2 + s2] = 1.0
    return v


# spin parts of the doublet basis {|up>|dd>, |down>|psi+>}
UP_DD = _spin_vector(1, 1, 1) * 0 + _spin_vector(0, 1, 1)
DOWN_PSIP = (_spin_vector(1, 0, 1) + _spin_vector(1, 1, 0)) / SQRT2


class TestModelSpec:
    def test_rejects_bad_lattice_size(self):
        with pytest.raises(ValueError, match="n_sites"):
            ModelSpec(n_sites=4, eta=1.0)
        with pytest.raises(ValueError, match="n_sites"):
            ModelSpec(n_sites=2.0, eta=1.0)

    def test_rejects_negative_hopping(self):
        with pytest.raises(ValueError, match="eta"):
            ModelSpec(n_sites=2, eta=-1.0)

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
        # a numpy integer is a lattice size and a site label, kept as an int
        spec = ModelSpec(np.int64(3), np.uint8(4))
        assert (spec.n_sites, spec.eta) == (3, 4.0) and type(spec.n_sites) is int
        layout = BasisLayout(np.int64(2))
        assert layout == BasisLayout(2) and type(layout.n_sites) is int
        assert layout.site_index(np.int64(1)) == 0
        assert BasisLayout(np.int32(3)).site_index(np.uint16(0)) == 1

    def test_presets(self):
        xy = ModelSpec.xy(10.0, j=2.0)
        assert (xy.j_xy, xy.j_z) == (2.0, 0.0)
        assert xy.j_ref == 2.0
        heis = ModelSpec.heisenberg(10.0, j=2.0)
        assert (heis.j_xy, heis.j_z) == (1.0, 2.0)
        assert heis.j_z == 2.0 * heis.j_xy
        assert heis.j_ref == 2.0
        custom = ModelSpec.from_preset("custom", 2, 1.0, j_xy=1.0, j_z=0.5)
        assert (custom.j_xy, custom.j_z) == (1.0, 0.5)

    def test_stores_floats(self):
        spec = ModelSpec(2, 10, j_xy=np.float32(0.5), j_z=np.int64(1))
        assert all(type(x) is float for x in (spec.eta, spec.j_xy, spec.j_z))

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

    def test_named_presets_call_it(self):
        assert ModelSpec.xy(5.0, j=2.0) == ModelSpec.from_preset("xy", 2, 5.0, j=2.0)
        heis = ModelSpec.heisenberg(5.0, j=-3.0, n_sites=3)
        assert heis == ModelSpec.from_preset("heisenberg", 3, 5.0, j=-3.0)
        with pytest.raises(ValueError, match=r"^model\.j must be finite, got nan$"):
            ModelSpec.xy(5.0, j=math.nan)

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
    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_encode_decode_roundtrip(self, n_sites):
        layout = BasisLayout(n_sites)
        assert layout.dim == 8 * n_sites
        seen = set()
        for site in range(n_sites):
            for e in (0, 1):
                for s1 in (0, 1):
                    for s2 in (0, 1):
                        idx = encode(layout, site, e, s1, s2)
                        assert decode(layout, idx) == (site, e, s1, s2)
                        seen.add(idx)
        assert seen == set(range(layout.dim))

    def test_index_formula(self):
        layout = BasisLayout(2)
        assert encode(layout, 1, 0, 1, 0) == 1 * 8 + 0 * 4 + 1 * 2 + 0

    def test_site_labels(self):
        assert BasisLayout(2).site_labels() == (1, 2)
        assert BasisLayout(3).site_labels() == (1, 0, 2)
        assert BasisLayout(3).site_index(0) == 1  # middle site sits at index 1
        with pytest.raises(ValueError, match="site label"):
            BasisLayout(2).site_index(0)
        with pytest.raises(ValueError, match="site label"):
            BasisLayout(2).site_index(np.True_)

    def test_bad_inputs(self):
        layout = BasisLayout(2)
        with pytest.raises(ValueError):
            encode(layout, 2, 0, 0, 0)
        with pytest.raises(ValueError):
            decode(layout, 16)
        with pytest.raises(ValueError):
            BasisLayout(5)

    @pytest.mark.parametrize(
        "n_sites", [3.0, 2.0, True, pytest.param(np.True_, id="numpy-bool"), "3", "2"]
    )
    def test_rejects_non_integer_lattice_size(self, n_sites):
        # the value is quoted as given: "2" is not 2
        message = f"^n_sites must be 2 or 3, got {re.escape(repr(n_sites))}$"
        with pytest.raises(ValueError, match=message):
            BasisLayout(n_sites)


def _all_built_hamiltonians():
    for spec in (ModelSpec.xy(10.0), ModelSpec.heisenberg(10.0)):
        yield spec, build_hamiltonian(spec)
        yield spec, build_hamiltonian(spec, "effective")
    for spec in (ModelSpec.xy(1.0, n_sites=3), ModelSpec.heisenberg(2.0, n_sites=3)):
        yield spec, build_hamiltonian(spec)
        yield spec, build_hamiltonian(spec, "effective")


class TestBuildHamiltonian:
    def test_all_zero(self):
        # no hopping and no coupling: neither term leaves an entry
        assert np.abs(build_hamiltonian(ModelSpec(2, 0.0))).max() == 0.0

    def test_two_site_spectrum_eightfold(self):
        eig = hermitian_eigensystem(build_hamiltonian(ModelSpec(2, 1.0)))
        values, counts = np.unique(np.round(eig.eigenvalues, 9), return_counts=True)
        assert np.allclose(values, [-1.0, 1.0])
        assert counts.tolist() == [8, 8]

    def test_three_site_spectrum_eightfold(self):
        eig = hermitian_eigensystem(build_hamiltonian(ModelSpec(3, 1.0)))
        values, counts = np.unique(np.round(eig.eigenvalues, 9), return_counts=True)
        assert np.allclose(values, [-1.0, 0.0, 1.0])
        assert counts.tolist() == [8, 8, 8]

    def test_three_site_normal_modes(self):
        # the +-eta modes weight the middle site by 1/sqrt(2), the outer ones by 1/2,
        # and the zero mode is the antisymmetric outer combination
        eig = hermitian_eigensystem(build_hamiltonian(ModelSpec(3, 1.0))[::8, ::8])
        phi_plus = np.array([0.5, 1 / SQRT2, 0.5])
        phi_zero = np.array([1 / SQRT2, 0.0, -1 / SQRT2])
        assert abs(abs(phi_plus @ eig.eigenvectors[:, 2]) - 1) < 1e-10
        assert abs(abs(phi_zero @ eig.eigenvectors[:, 1]) - 1) < 1e-10

    def test_xy_exchange_matrix_element(self):
        # <x=1, down up down| V |x=1, up down down> = j_xy  (flip-flop with spin 1)
        spec = ModelSpec.xy(1.0, j=0.7)
        v = build_hamiltonian(dataclasses.replace(spec, eta=0.0))
        layout = BasisLayout(2)
        bra = encode(layout, 0, 1, 0, 1)
        ket = encode(layout, 0, 0, 1, 1)
        assert v[bra, ket] == pytest.approx(0.7)

    def test_heisenberg_diagonal_element(self):
        # <x=1, all up| V |x=1, all up> = j_z/4 from the Ising term at site 1
        spec = ModelSpec.heisenberg(1.0, j=1.0)
        v = build_hamiltonian(dataclasses.replace(spec, eta=0.0))
        idx = encode(BasisLayout(2), 0, 0, 0, 0)
        assert v[idx, idx] == pytest.approx(0.25)

    def test_hermitian_and_block_diagonal_in_site(self):
        spec = ModelSpec.heisenberg(1.0, n_sites=3)
        v = build_hamiltonian(dataclasses.replace(spec, eta=0.0))
        assert np.abs(v - v.conj().T).max() == 0.0
        blocks = v.reshape(3, 8, 3, 8)
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert np.abs(blocks[x, :, y, :]).max() == 0.0
        # no static spin sits at the middle site
        assert np.abs(blocks[1, :, 1, :]).max() == 0.0

    def test_every_builder_output_is_hermitian(self):
        for _, h in _all_built_hamiltonians():
            assert np.abs(h - h.conj().T).max() <= 1e-12 * max(np.abs(h).max(), 1.0)

    def test_commutes_with_total_sz_for_all_variants_and_presets(self):
        for spec, h in _all_built_hamiltonians():
            sz, _ = collective_spin_oracle(spec.n_sites)
            assert np.abs(h @ sz - sz @ h).max() <= 1e-12

    def test_spectrum_symmetric_under_global_spin_flip(self):
        spec = ModelSpec.xy(10.0)
        h = build_hamiltonian(spec)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        flip = np.kron(np.eye(2), np.kron(x, np.kron(x, x)))
        flipped = flip @ h @ flip
        assert np.allclose(
            np.linalg.eigvalsh(flipped), np.linalg.eigvalsh(h), atol=1e-12
        )


class TestBuilderOracle:
    @pytest.mark.parametrize("n_sites", [2, 3])
    @pytest.mark.parametrize("j_xy,j_z", [(1.0, 0.0), (0.5, 1.0), (0.3, -0.7)])
    @pytest.mark.parametrize("eta", [0.0, 1.0, 1e3])
    def test_builders_match_kron_oracle(self, n_sites, j_xy, j_z, eta):
        # the oracle pins spin 1 at site 0 and spin 2 at the last site, so
        # bit-equality also fixes where the builders put the static spins;
        # entries between two S_z sectors are exact zeros in every oracle, so
        # build_hamiltonian's S_z blocks and zeros make up the whole matrix;
        # at eta = 0 the exact kind is the contact term alone
        sz = sz_of_basis(BasisLayout(n_sites))
        spec = ModelSpec(n_sites, eta, j_xy, j_z)
        for kind in HAMILTONIAN_KINDS:
            if kind == "effective" and eta == 0.0:
                continue  # rejected, see test_effective_needs_hopping
            h = build_hamiltonian(spec, kind)
            ref = hamiltonian_oracle(n_sites, eta, j_xy, j_z, kind)
            assert np.all(ref[sz[:, None] != sz] == 0.0), kind
            assert np.array_equal(h, ref), kind

    def test_returned_matrices_are_fresh(self):
        for n_sites in (2, 3):
            spec = ModelSpec(n_sites, 2.0, 0.5, 1.0)
            builders = [
                lambda s: build_hamiltonian(ModelSpec(s.n_sites, s.eta)),  # hopping alone
                lambda s: build_hamiltonian(dataclasses.replace(s, eta=0.0)),  # contact alone
            ]
            builders += [lambda s, k=k: build_hamiltonian(s, k) for k in HAMILTONIAN_KINDS]
            for build in builders:
                h = build(spec)
                assert h.flags.writeable
                before = h.copy()
                h[:] = 7.0
                assert np.array_equal(build(spec), before)

    def test_builds_reuse_cached_terms(self, monkeypatch):
        specs = [ModelSpec(n, 2.0, 0.5, 1.0) for n in (2, 3)]

        def build_every_kind():
            for spec in specs:
                for kind in HAMILTONIAN_KINDS:
                    build_hamiltonian(spec, kind)
                build_hamiltonian(ModelSpec(spec.n_sites, spec.eta))
                build_hamiltonian(dataclasses.replace(spec, eta=0.0))

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
        # against the Kronecker oracle: build_hamiltonian is these blocks, and
        # the oracle's entries between sectors are zeros (TestBuilderOracle)
        for spec, kind in _every_built_kind():
            layout = BasisLayout(spec.n_sites)
            h = hamiltonian_oracle(spec.n_sites, spec.eta, spec.j_xy, spec.j_z, kind)
            sz = sz_of_basis(layout)
            blocks = model._sector_blocks(spec, kind, np.ones(layout.dim))
            n = spec.n_sites
            assert [len(idx) for _, idx, _ in blocks] == [n, 3 * n, 3 * n, n]
            # every sector, S_z ascending from -3/2
            assert [sz[idx[0]] for _, idx, _ in blocks] == [-1.5, -0.5, 0.5, 1.5]
            scattered = np.zeros_like(h)
            for _, idx, block in blocks:
                assert np.all(sz[idx] == sz[idx[0]])
                scattered[np.ix_(idx, idx)] = block
            assert np.array_equal(scattered, h), (spec, kind)

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
            h = build_hamiltonian(spec, kind)
            for permutation in (mirror, flip):
                p = np.eye(layout.dim)[permutation]
                assert np.array_equal(p @ h, h @ p), (spec, kind)


class TestEffectiveHamiltonian:
    def _doublet_matrix(self, spec):
        hopping = build_hamiltonian(ModelSpec(spec.n_sites, spec.eta))
        v_spin = build_hamiltonian(spec, "effective") - hopping
        mot = np.zeros(2, dtype=complex)
        mot[0] = 1.0
        basis = [np.kron(mot, UP_DD), np.kron(mot, DOWN_PSIP)]
        return np.array([[b.conj() @ v_spin @ k for k in basis] for b in basis])

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_mode_rates_split_the_sites_into_kinetic_mode_groups(self, n_sites):
        hopping = build_hamiltonian(ModelSpec(n_sites, 1.0))[::8, ::8]
        projectors = [p for _, p in MODE_RATES[n_sites]]
        assert np.array_equal(sum(projectors), np.eye(n_sites))
        for p, q in itertools.product(projectors, repeat=2):
            assert np.array_equal(p @ q, p if p is q else np.zeros_like(p))
        for p in projectors:
            assert np.array_equal(p, p.conj().T) and np.array_equal(p @ hopping, hopping @ p)
        rates = [rate for rate, _ in MODE_RATES[n_sites]]
        assert rates == ([0.5] if n_sites == 2 else [0.25, 0.5])

    def test_xy_doublet_matrix(self):
        m = self._doublet_matrix(ModelSpec.xy(10.0))
        assert np.allclose(m, [[0, 1 / SQRT2], [1 / SQRT2, 0]], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(m), [-1 / SQRT2, 1 / SQRT2], atol=1e-12)

    def test_heisenberg_doublet_matrix(self):
        m = self._doublet_matrix(ModelSpec.heisenberg(10.0))
        target = [[-0.25, 1 / (2 * SQRT2)], [1 / (2 * SQRT2), 0.0]]
        assert np.allclose(m, target, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(m), [-0.5, 0.25], atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.xy(10.0),
            ModelSpec.heisenberg(10.0),
            ModelSpec.xy(10.0, n_sites=3),
            ModelSpec.heisenberg(10.0, n_sites=3),
        ],
        ids=["xy-2", "heisenberg-2", "xy-3", "heisenberg-3"],
    )
    def test_effective_conserves_s12_squared(self, spec):
        h = build_hamiltonian(spec, "effective")
        _, s12 = collective_spin_oracle(spec.n_sites)
        assert np.abs(h @ s12 - s12 @ h).max() <= 1e-12

    def test_exact_does_not_conserve_s12_squared(self):
        spec = ModelSpec.xy(10.0)
        h = build_hamiltonian(spec)
        _, s12 = collective_spin_oracle(2)
        assert np.abs(h @ s12 - s12 @ h).max() > 0.01

    def test_one_dimensional_sectors(self):
        spec = ModelSpec.heisenberg(10.0, j=1.0)
        hopping = build_hamiltonian(ModelSpec(spec.n_sites, spec.eta))
        v_spin = build_hamiltonian(spec, "effective") - hopping
        layout = BasisLayout(2)
        all_up = encode_state(layout, 1, "up", "up-up")
        assert np.allclose(v_spin @ all_up, (spec.j_z / 4.0) * all_up, atol=1e-12)
        for e_spin in ("up", "down"):
            frozen = encode_state(layout, 1, e_spin, "psi-minus")
            assert np.abs(v_spin @ frozen).max() <= 1e-12

    def test_effective_commutes_with_normal_mode_projectors(self):
        spec = ModelSpec.xy(10.0, n_sites=3)
        h = build_hamiltonian(spec, "effective")
        eig = hermitian_eigensystem(build_hamiltonian(ModelSpec(spec.n_sites, spec.eta))[::8, ::8])
        for k in range(3):
            mode = eig.eigenvectors[:, k]
            proj = np.kron(np.outer(mode, mode.conj()), np.eye(8))
            # the eigensolver residual is relative to the hopping scale
            assert np.abs(h @ proj - proj @ h).max() <= 1e-12 * np.abs(h).max()

    def test_both_kinds_build_on_either_lattice(self):
        for n_sites in (2, 3):
            spec = ModelSpec.xy(1.0, n_sites=n_sites)
            for kind in HAMILTONIAN_KINDS:
                assert build_hamiltonian(spec, kind).shape == (8 * n_sites,) * 2
        with pytest.raises(ValueError, match="unknown hamiltonian kind 'adiabatic'"):
            build_hamiltonian(ModelSpec.xy(1.0), "adiabatic")

    def test_middle_start_sees_quartered_couplings(self):
        # no zero-mode weight: the chain is the collective coupling at rate 1/4
        spec = ModelSpec.heisenberg(10.0, n_sites=3)
        chain = build_hamiltonian(spec, "effective") - build_hamiltonian(ModelSpec(3, spec.eta))
        contact = build_hamiltonian(dataclasses.replace(spec, eta=0.0))
        collective = contact[:8, :8] + contact[-8:, -8:]  # spin 1 at the left, spin 2 at the right
        middle = np.kron([[0.0], [1.0], [0.0]], np.eye(8))
        assert np.array_equal(chain @ middle, middle @ (0.25 * collective))

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_effective_needs_hopping(self, n_sites):
        with pytest.raises(ValueError, match="eta > 0"):
            build_hamiltonian(ModelSpec(n_sites, 0.0), "effective")


class TestEncodeState:
    def test_single_amplitude_at_forced_index(self):
        layout = BasisLayout(2)
        psi = encode_state(layout, 1, "up", "down-down")
        expected = np.zeros(16)
        expected[encode(layout, 0, 0, 1, 1)] = 1.0
        assert np.array_equal(psi, expected)

    def test_triplet_preset_amplitudes(self):
        layout = BasisLayout(2)
        psi = encode_state(layout, 1, "down", "psi-plus")
        assert psi[encode(layout, 0, 1, 0, 1)] == pytest.approx(1 / SQRT2)
        assert psi[encode(layout, 0, 1, 1, 0)] == pytest.approx(1 / SQRT2)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_bell_presets_orthogonal(self):
        layout = BasisLayout(2)
        plus, minus = (encode_state(layout, 1, "up", s) for s in ("psi-plus", "psi-minus"))
        assert abs(plus.conj() @ minus) <= 1e-15

    def test_middle_site_label(self):
        layout = BasisLayout(3)
        psi = encode_state(layout, 0, "up", "down-down")
        assert psi[encode(layout, 1, 0, 1, 1)] == 1.0

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_every_start_state_equals_the_kron_product(self, n_sites):
        layout = BasisLayout(n_sites)
        starts = list(itertools.product(layout.site_labels(), ("up", "down"), _STATIC_PRESETS))
        for site, e_spin, static in starts:
            mot = np.eye(n_sites)[layout.site_index(site)]
            e_vec = np.eye(2)[("up", "down").index(e_spin)]
            expected = np.kron(mot, np.kron(e_vec, _STATIC_PRESETS[static]))
            psi = encode_state(layout, site, e_spin, static)
            assert psi.dtype == complex and np.array_equal(psi, expected)  # -0.0 == 0.0
        assert len(starts) == 12 * n_sites  # 60 start states over both lattices

    def test_invalid_labels(self):
        layout = BasisLayout(2)
        with pytest.raises(ValueError, match="mobile-spin"):
            encode_state(layout, 1, "sideways", "down-down")
        with pytest.raises(ValueError, match="preset"):
            encode_state(layout, 1, "up", "down")
        with pytest.raises(ValueError, match="site label"):
            encode_state(layout, 3, "up", "down-down")

    @pytest.mark.parametrize("label", [["up-up"], {}, None, True])
    def test_unhashable_or_non_string_labels_are_value_errors(self, label):
        layout = BasisLayout(2)
        with pytest.raises(ValueError, match="mobile-spin"):
            encode_state(layout, 1, label, "down-down")
        with pytest.raises(ValueError, match="static-pair preset"):
            encode_state(layout, 1, "up", label)
        with pytest.raises(ValueError, match="site label"):
            encode_state(layout, label, "up", "down-down")
        with pytest.raises(ValueError, match="unknown hamiltonian kind"):
            build_hamiltonian(ModelSpec.xy(1.0), label)
