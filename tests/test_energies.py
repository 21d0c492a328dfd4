import json
import math
from pathlib import Path

import numpy as np
import pytest

from bitdiff.energies import (
    BoltzmannTarget,
    CoProblem,
    EAInstance,
    IsingLattice2D,
    SpinCouplingModel,
    all_states,
    enumerate_observables,
    format_edge_list,
    lattice_bonds,
    parse_edge_list,
    read_instance_text,
    write_instance_text,
)

DATA = Path(__file__).parent / "data"


class TestIsingEnergy:
    def test_aligned_3x3(self):
        lat = IsingLattice2D(3)
        assert lat.energy(np.ones(9, dtype=np.int8)) == -18.0

    def test_single_flip(self):
        lat = IsingLattice2D(3)
        x = np.ones(9, dtype=np.int8)
        x[4] = 0
        assert lat.energy(x) == -10.0  # 4 bonds change sign: -18 + 8

    def test_checkerboard_4x4(self):
        lat = IsingLattice2D(4)
        cb = (np.indices((4, 4)).sum(axis=0) % 2).ravel()
        assert lat.energy(cb) == 32.0

    def test_global_flip_symmetry(self):
        lat = IsingLattice2D(3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, 9)
            assert lat.energy(x) == lat.energy(1 - x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IsingLattice2D(3).energy(np.ones(8, dtype=np.int8))

    def test_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            IsingLattice2D(2)

    def test_bond_count(self):
        assert len(lattice_bonds(5)) == 50
        bonds = lattice_bonds(4)
        assert len({tuple(sorted(b)) for b in bonds}) == 32  # each bond once


class TestEAEnergy:
    def test_unit_couplings_match_ising(self):
        lat = IsingLattice2D(3)
        ea = EAInstance(3, np.ones(18), rng_seed=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.integers(0, 2, 9)
            assert ea.energy(x) == lat.energy(x)

    def test_coupling_negation_negates_energy(self):
        ea = EAInstance.normal(3, seed=3)
        flipped = EAInstance(3, -ea.couplings, rng_seed=3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.integers(0, 2, 9)
            assert flipped.energy(x) == pytest.approx(-ea.energy(x), abs=1e-12)

    def test_minimum_matches_exhaustive(self):
        ea = EAInstance.normal(3, seed=7)
        states = all_states(9)
        energies = ea.energy(states)
        # independent check: explicit python loop over bonds
        bonds = ea.bonds()
        best = math.inf
        for s in states:
            sig = 2.0 * s - 1.0
            e = -sum(ea.couplings[k] * sig[i] * sig[j] for k, (i, j) in enumerate(bonds))
            best = min(best, e)
        assert energies.min() == pytest.approx(best, abs=1e-9)

    def test_generation_deterministic(self):
        a = EAInstance.normal(4, seed=11)
        b = EAInstance.normal(4, seed=11)
        assert np.array_equal(a.couplings, b.couplings)


class TestCoEnergies:
    def test_mis_single_edge(self):
        co = CoProblem("mis", 2, [(0, 1)], 1.0, 1.1)
        assert co.energy(np.array([1, 0])) == pytest.approx(-1.0)
        assert co.energy(np.array([1, 1])) == pytest.approx(-0.9)

    def test_maxcut_single_edge(self):
        co = CoProblem("maxcut", 2, [(0, 1)])
        assert co.energy(np.array([1, 0])) == pytest.approx(-1.0)
        assert co.energy(np.array([0, 0])) == pytest.approx(0.0)

    def test_mds_single_edge(self):
        co = CoProblem("mds", 2, [(0, 1)], 1.0, 1.1)
        assert co.energy(np.array([0, 0])) == pytest.approx(2.2)
        assert co.energy(np.array([1, 0])) == pytest.approx(1.0)

    def test_maxcl_excludes_self_pairs(self):
        co = CoProblem("maxcl", 3, [(0, 1)], 1.0, 1.1)
        # non-edges among distinct pairs: (0,2), (1,2)
        assert co.energy(np.array([1, 1, 0])) == pytest.approx(-2.0)
        assert co.energy(np.array([1, 1, 1])) == pytest.approx(-3.0 + 2 * 1.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CoProblem("tsp", 2, [(0, 1)])

    def test_multilinear_matches_expectation(self):
        # relaxed evaluation equals the exact product-distribution expectation
        rng = np.random.default_rng(5)
        for kind in ("mis", "mds", "maxcl", "maxcut"):
            edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
            co = CoProblem(kind, 4, edges, 1.0, 1.1)
            v = rng.uniform(0, 1, 4)
            states = all_states(4).astype(np.float64)
            probs = np.prod(np.where(states == 1, v, 1 - v), axis=1)
            expected = probs @ co.energy(states)
            assert co.energy(v) == pytest.approx(expected, abs=1e-12)

    def test_mis_matches_quadratic_form(self):
        # x^T Q x with -A on the diagonal (x_i^2 = x_i) and B on each edge
        edges = [(0, 1), (1, 2)]
        co = CoProblem("mis", 3, edges, 1.0, 1.1)
        q = -np.eye(3)
        for i, j in edges:
            q[i, j] = 1.1
        for x in all_states(3).astype(np.float64):
            assert x @ q @ x == pytest.approx(co.energy(x), abs=1e-12)

    def test_mis_requires_ordered_penalties(self):
        with pytest.raises(ValueError):
            CoProblem("mis", 2, [(0, 1)], penalty_a=1.1, penalty_b=1.0)


class TestBoltzmann:
    def test_beta_zero(self):
        t = BoltzmannTarget(IsingLattice2D(3), 0.0)
        states = np.stack([np.zeros(9, dtype=np.int8), np.ones(9, dtype=np.int8)])
        assert np.all(t.log_unnormalized(states) == 0.0)

    def test_sign(self):
        t = BoltzmannTarget(IsingLattice2D(3), 1.0)
        assert t.log_unnormalized(np.ones(9, dtype=np.int8)) == 18.0

    def test_monotone_in_energy(self):
        t = BoltzmannTarget(IsingLattice2D(3), 0.7)
        states = all_states(9)[:64]
        e = t.model.energy(states)
        lw = t.log_unnormalized(states)
        order = np.argsort(e)
        assert np.all(np.diff(lw[order]) <= 1e-12)


class TestEnumeration:
    def test_two_spin_chain(self):
        chain = SpinCouplingModel(2, [(0, 1)], [1.0])
        obs = enumerate_observables(BoltzmannTarget(chain, 1.0))
        assert obs.z == pytest.approx(2 * math.e + 2 / math.e, rel=1e-14)
        assert obs.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_beta_zero_limits(self):
        lat = IsingLattice2D(3)
        obs = enumerate_observables(BoltzmannTarget(lat, 0.0))
        assert obs.free_energy is None
        assert obs.entropy == pytest.approx(9 * math.log(2), rel=1e-12)
        states = all_states(9)
        assert obs.internal_energy == pytest.approx(float(lat.energy(states).mean()), rel=1e-12)

    def test_golden_4x4(self):
        golden = json.loads((DATA / "ising4x4_beta0.4407_golden.json").read_text())
        lat = IsingLattice2D(golden["lattice_size"], golden["coupling"])
        obs = enumerate_observables(
            BoltzmannTarget(lat, golden["beta"]), with_probabilities=False
        )
        assert obs.log_z == pytest.approx(golden["log_z"], rel=1e-12)
        assert obs.free_energy == pytest.approx(golden["free_energy"], rel=1e-12)
        assert obs.internal_energy == pytest.approx(golden["internal_energy"], rel=1e-12)
        assert obs.entropy == pytest.approx(golden["entropy"], rel=1e-12)

    def test_entropy_identity_exact(self):
        chain = SpinCouplingModel(3, [(0, 1), (1, 2)], [0.7, -1.3])
        for beta in (0.2, 1.0, 3.0):
            obs = enumerate_observables(BoltzmannTarget(chain, beta))
            assert obs.entropy == beta * (obs.internal_energy - obs.free_energy)

    def test_free_energy_monotone_in_temperature(self):
        # dF/dT = -S <= 0: F never increases as temperature rises (equivalently
        # F is non-decreasing in beta for these models)
        lat = IsingLattice2D(3)
        betas = np.linspace(0.05, 2.0, 12)
        f = [enumerate_observables(BoltzmannTarget(lat, b), with_probabilities=False).free_energy
             for b in betas]
        assert np.all(np.diff(f) >= -1e-10)  # non-decreasing in beta

    def test_chunking_invariant(self):
        lat = IsingLattice2D(3)
        t = BoltzmannTarget(lat, 1.3)
        a = enumerate_observables(t, chunk_bits=4, with_probabilities=False)
        b = enumerate_observables(t, chunk_bits=16, with_probabilities=False)
        assert a.log_z == pytest.approx(b.log_z, abs=1e-12)
        assert a.internal_energy == pytest.approx(b.internal_energy, abs=1e-12)

    def test_cap_enforced(self):
        lat = IsingLattice2D(6)  # 36 sites
        with pytest.raises(ValueError):
            enumerate_observables(BoltzmannTarget(lat, 1.0))

    def test_large_beta_no_overflow(self):
        chain = SpinCouplingModel(2, [(0, 1)], [1.0])
        obs = enumerate_observables(BoltzmannTarget(chain, 500.0))
        assert math.isfinite(obs.log_z)
        assert obs.log_z == pytest.approx(500.0 + math.log(2 + 2 * math.exp(-1000.0)), rel=1e-12)


class TestTextFormats:
    def test_edge_list_roundtrip(self):
        text = format_edge_list(4, [(0, 1, 1.0), (1, 2, -0.5)])
        n, triples = parse_edge_list(text)
        assert n == 4
        assert triples == [(0, 1, 1.0), (1, 2, -0.5)]

    def test_edge_list_validation(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n0 5 1.0\n")
        with pytest.raises(ValueError):
            parse_edge_list("2 2\n0 1 1.0\n")

    def test_instance_roundtrip_ising(self):
        lat = IsingLattice2D(4, 1.5)
        back = read_instance_text(write_instance_text(lat))
        assert back == lat

    def test_instance_roundtrip_ea(self):
        ea = EAInstance.uniform(3, seed=9)
        back = read_instance_text(write_instance_text(ea))
        assert isinstance(back, EAInstance)
        assert back.side_length == 3
        assert np.array_equal(back.couplings, ea.couplings)

    def test_edge_list_roundtrip_self_pairs(self):
        triples = [(0, 0, -1.0), (1, 1, -1.0), (0, 1, 1.1), (1, 2, 0.1 + 0.2)]
        assert parse_edge_list(format_edge_list(3, triples)) == (3, triples)
