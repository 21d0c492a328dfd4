import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitdiff.energies import (
    BoltzmannTarget,
    CoProblem,
    EAInstance,
    IsingLattice2D,
    SpinCouplingModel,
    all_states,
    as_bits,
    enumerate_observables,
    lattice_bonds,
    read_instance_text,
    transfer_matrix_observables,
    write_instance_text,
)

from bitdiff import cli, energies, graphs
from bitdiff.diffusion import NoiseSchedule, PathBatch, forward_step_logp, path_log_p_hat
from bitdiff.graphs import Graph, format_edge_list, gen_ba, gen_rb, parse_edge_list

from oracles import (
    enumeration_sums_direct,
    kaufman_log_z,
    lattice_bonds_direct,
    mds_energy_direct,
    neighbors_direct,
    non_edges_direct,
    undirected_edges_direct,
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

    @pytest.mark.parametrize("bad", [np.int8(2), np.int8(-1), 0.5])
    def test_non_binary_entries_rejected(self, bad):
        x = np.ones(9, dtype=np.asarray(bad).dtype)
        x[4] = bad
        with pytest.raises(ValueError, match="must be 0 or 1"):
            as_bits(x, 9)

    def test_bool_and_float_states_accepted(self):
        x = np.arange(9) % 2
        for state in (x.astype(bool), x.astype(np.float64), x.astype(np.uint8)):
            assert np.array_equal(as_bits(state, 9), x.astype(np.int8))
            assert IsingLattice2D(3).energy(state) == IsingLattice2D(3).energy(x)

    def test_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            IsingLattice2D(2)

    def test_bond_count(self):
        assert len(lattice_bonds(5)) == 50
        bonds = lattice_bonds(4)
        assert len({tuple(sorted(b)) for b in bonds}) == 32  # each bond once

    @pytest.mark.parametrize("side", range(3, 9))
    def test_bonds_match_direct_order(self, side):
        got = lattice_bonds(side)
        assert got.dtype == np.int64
        assert np.array_equal(got, lattice_bonds_direct(side))

    def test_model_arrays_are_fixed(self):
        lat = IsingLattice2D(3, 0.5)
        assert np.array_equal(lat.edges, lattice_bonds(3))
        assert np.array_equal(lat.couplings, np.full(18, 0.5))
        for arr in (lat.edges, lat.couplings):
            with pytest.raises(ValueError):
                arr[0] = 0


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
        bonds = ea.edges
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
        co = CoProblem("mis", Graph(2, [(0, 1)]), 1.0, 1.1)
        assert co.energy(np.array([1, 0])) == pytest.approx(-1.0)
        assert co.energy(np.array([1, 1])) == pytest.approx(-0.9)

    def test_maxcut_single_edge(self):
        co = CoProblem("maxcut", Graph(2, [(0, 1)]))
        assert co.energy(np.array([1, 0])) == pytest.approx(-1.0)
        assert co.energy(np.array([0, 0])) == pytest.approx(0.0)

    def test_mds_single_edge(self):
        co = CoProblem("mds", Graph(2, [(0, 1)]), 1.0, 1.1)
        assert co.energy(np.array([0, 0])) == pytest.approx(2.2)
        assert co.energy(np.array([1, 0])) == pytest.approx(1.0)

    def test_maxcl_excludes_self_pairs(self):
        co = CoProblem("maxcl", Graph(3, [(0, 1)]), 1.0, 1.1)
        # non-edges among distinct pairs: (0,2), (1,2)
        assert co.energy(np.array([1, 1, 0])) == pytest.approx(-2.0)
        assert co.energy(np.array([1, 1, 1])) == pytest.approx(-3.0 + 2 * 1.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CoProblem("tsp", Graph(2, [(0, 1)]))

    def test_multilinear_matches_expectation(self):
        # relaxed evaluation equals the exact product-distribution expectation
        rng = np.random.default_rng(5)
        for kind in ("mis", "mds", "maxcl", "maxcut"):
            edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
            co = CoProblem(kind, Graph(4, edges), 1.0, 1.1)
            v = rng.uniform(0, 1, 4)
            states = all_states(4).astype(np.float64)
            probs = np.prod(np.where(states == 1, v, 1 - v), axis=1)
            expected = probs @ co.energy(states)
            assert co.energy(v) == pytest.approx(expected, abs=1e-12)

    def test_mis_matches_quadratic_form(self):
        # x^T Q x with -A on the diagonal (x_i^2 = x_i) and B on each edge
        edges = [(0, 1), (1, 2)]
        co = CoProblem("mis", Graph(3, edges), 1.0, 1.1)
        q = -np.eye(3)
        for i, j in edges:
            q[i, j] = 1.1
        for x in all_states(3).astype(np.float64):
            assert x @ q @ x == pytest.approx(co.energy(x), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_adjacency_arrays_match_direct(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        co = CoProblem("maxcl", Graph(n, pairs))
        want = neighbors_direct(n, co.graph.edges)
        width = max(len(ref) for ref in want)
        assert co._neighbor_idx.dtype == np.int64 and co._neighbor_idx.shape == (n, width)
        for got, ref in zip(co._neighbor_idx, want):
            # each row ends in padding: n, the column of ones `energy` appends
            assert np.array_equal(got[:len(ref)], ref) and (got[len(ref):] == n).all()
        assert co._non_edges.dtype == np.int64
        assert np.array_equal(co._non_edges, non_edges_direct(n, co.graph.edges))

    @pytest.mark.parametrize("seed", range(5))
    def test_mds_energy_matches_node_loop(self, seed):
        rng = np.random.default_rng(seed)
        graphs = [gen_ba(int(rng.integers(5, 40)), int(rng.integers(1, 5)), seed),
                  gen_rb(int(rng.integers(2, 6)), int(rng.integers(2, 7)), 0.5, seed),
                  Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # 4 and 5 are isolated
                  Graph(5, []),
                  Graph(0, [])]
        for graph in graphs:
            co = graph.co_problem("mds", 1.0, 1.1)
            x = rng.uniform(0, 1, (200, graph.n_nodes))
            x[:50] = rng.integers(0, 2, (50, graph.n_nodes))
            assert np.array_equal(co.energy(x), mds_energy_direct(co, x))
            for row in x[::20]:
                assert np.array_equal(co.energy(row), mds_energy_direct(co, row))

    @pytest.mark.parametrize("kind", ["mis", "mds", "maxcl", "maxcut",
                                      "ising", "ea-normal", "ea-uniform"])
    def test_row_energy_does_not_depend_on_batch(self, kind):
        # decoding compares energies of near-equal fractional rows, and
        # importance weights of a path group are read from the whole
        # rollout's energies, so a row evaluated in a batch must give the
        # bits it gives alone
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if kind.startswith(("ising", "ea")):
                side = int(rng.integers(3, 9))
                model = (IsingLattice2D(side) if kind == "ising"
                         else getattr(EAInstance, kind[3:])(side, seed))
                x = rng.integers(0, 2, (30, side * side))
            else:
                n = int(rng.integers(10, 15))
                model = gen_ba(n, 4, seed=seed).co_problem(kind, 1.0, 1.1)
                x = rng.uniform(0, 1, (30, n))
            batch = model.energy(x)
            assert all(batch[i] == model.energy(x[i]) for i in range(len(x))), seed

    def test_mis_requires_ordered_penalties(self):
        with pytest.raises(ValueError):
            CoProblem("mis", Graph(2, [(0, 1)]), penalty_a=1.1, penalty_b=1.0)

    @pytest.mark.parametrize("kind", ["mis", "mds", "maxcl"])
    @pytest.mark.parametrize("reward", [0.0, -1.0, float("nan")])
    def test_penalty_forms_require_a_positive_reward(self, kind, reward):
        with pytest.raises(ValueError, match="0 < penalty_a"):
            CoProblem(kind, Graph(2, [(0, 1)]), penalty_a=reward, penalty_b=1.1)


def stay_put(states) -> PathBatch:
    """One-step paths with X_1 = X_0: every path has the same noising term."""
    states = np.atleast_2d(states)
    m = len(states)
    return PathBatch(np.stack([states, states], axis=1), np.zeros((m, 1)), np.zeros(m))


class TestBoltzmann:
    """The target's energies enter log p_hat as -beta * H(X_0)."""

    sched = NoiseSchedule(np.array([0.3]))

    def log_p_hat(self, target, batch):
        return path_log_p_hat(target, self.sched, batch, target.energy(batch.x0))

    def test_beta_zero(self):
        t = BoltzmannTarget(IsingLattice2D(3), 0.0)
        batch = stay_put(np.stack([np.zeros(9, dtype=np.int8), np.ones(9, dtype=np.int8)]))
        assert np.all(self.log_p_hat(t, batch) == forward_step_logp(batch, self.sched)[:, 0])

    def test_sign(self):
        t = BoltzmannTarget(IsingLattice2D(3), 1.0)
        batch = stay_put(np.ones(9, dtype=np.int8))
        assert t.energy(batch.x0) == -18.0
        assert self.log_p_hat(t, batch) == 18.0 + forward_step_logp(batch, self.sched)[:, 0]

    def test_monotone_in_energy(self):
        t = BoltzmannTarget(IsingLattice2D(3), 0.7)
        batch = stay_put(all_states(9)[:64])
        e = t.model.energy(batch.x0)
        lw = self.log_p_hat(t, batch)
        order = np.argsort(e)
        assert np.all(np.diff(lw[order]) <= 1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_energy_rejected(self, bad):
        class Broken:
            n_sites = 1

            def energy(self, x):
                return np.where(np.asarray(x)[..., 0] == 1, bad, 0.0)

        t = BoltzmannTarget(Broken(), 1.0)
        assert np.array_equal(t.energy(np.zeros((2, 1))), [0.0, 0.0])
        with pytest.raises(ValueError, match="energy is not finite"):
            t.energy(np.array([[0], [1]]))


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

    def test_chunking_invariant(self, monkeypatch):
        lat = IsingLattice2D(3)
        t = BoltzmannTarget(lat, 1.3)
        b = enumerate_observables(t, with_probabilities=False)
        monkeypatch.setattr(energies, "SWEEP_CHUNK_BITS", 4)
        a = enumerate_observables(t, with_probabilities=False)
        assert a.log_z == pytest.approx(b.log_z, abs=1e-12)
        assert a.internal_energy == pytest.approx(b.internal_energy, abs=1e-12)

    @pytest.mark.parametrize("chunk_bits", [16, 3])
    @pytest.mark.parametrize("target", [
        BoltzmannTarget(IsingLattice2D(3), 0.0),
        BoltzmannTarget(IsingLattice2D(3), 0.44),
        BoltzmannTarget(IsingLattice2D(3), 2.0),
        BoltzmannTarget(EAInstance.normal(4, seed=0), 1.0),
    ], ids=["ising3_beta0", "ising3_beta0.44", "ising3_beta2", "ea4_beta1"])
    def test_equals_inline_accumulator(self, monkeypatch, target, chunk_bits):
        # the running WeightSums does the inline log-sum-exp's arithmetic in
        # its order, on one chunk (16 bits) and on many (3 bits)
        monkeypatch.setattr(energies, "SWEEP_CHUNK_BITS", chunk_bits)
        want = enumeration_sums_direct(target)
        for with_probabilities in (False, True):
            obs = enumerate_observables(target, with_probabilities=with_probabilities)
            assert (obs.log_z, obs.internal_energy) == want

    def test_overflowing_log_weight_is_a_numerical_failure(self, capsys):
        # -beta * H overflows at beta = 1e308; the sums refuse it rather than
        # report NaN observables with exit code 0
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite log-weight"):
                enumerate_observables(BoltzmannTarget(IsingLattice2D(3), 1e308))
            assert cli.main(["oracle", "--problem", "ising", "--lattice-size", "3",
                             "--beta", "1e308"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_cap_enforced(self):
        lat = IsingLattice2D(6)  # 36 sites
        with pytest.raises(ValueError):
            enumerate_observables(BoltzmannTarget(lat, 1.0))

    def test_large_beta_no_overflow(self):
        chain = SpinCouplingModel(2, [(0, 1)], [1.0])
        obs = enumerate_observables(BoltzmannTarget(chain, 500.0))
        assert math.isfinite(obs.log_z)
        assert obs.log_z == pytest.approx(500.0 + math.log(2 + 2 * math.exp(-1000.0)), rel=1e-12)


# ferromagnet and antiferromagnet, EA of both coupling distributions, and an
# EA instance read from its file
TRANSFER_MODELS = {
    "ising3": IsingLattice2D(3), "ising4": IsingLattice2D(4),
    "anti3": IsingLattice2D(3, -0.7), "anti4": IsingLattice2D(4, -0.7),
    "ea_normal3": EAInstance.normal(3, seed=11), "ea_normal4": EAInstance.normal(4, seed=12),
    "ea_uniform3": EAInstance.uniform(3, seed=13), "ea_uniform4": EAInstance.uniform(4, seed=14),
    "ea_file4": read_instance_text((DATA / "ea4_uniform_seed2.txt").read_text()),
}


class TestTransferMatrix:
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.4407, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("name", sorted(TRANSFER_MODELS))
    def test_matches_enumeration(self, name, beta):
        model = TRANSFER_MODELS[name]
        want = enumerate_observables(BoltzmannTarget(model, beta), with_probabilities=False)
        got = transfer_matrix_observables(model, beta)
        assert got.probabilities is None
        assert got.log_z == pytest.approx(want.log_z, rel=1e-12)
        assert got.free_energy == pytest.approx(want.free_energy, rel=1e-12)
        # U is about 0 at beta = 0, and S = beta (U - F) cancels at large beta:
        # both take an absolute floor on the energy scale
        floor = 1e-12 * model.n_sites * np.abs(model.couplings).max() * max(1.0, beta)
        assert got.internal_energy == pytest.approx(want.internal_energy, rel=1e-12, abs=floor)
        assert got.entropy == pytest.approx(want.entropy, rel=1e-12, abs=floor)

    @pytest.mark.parametrize("argv,model", [
        (["--problem", "ising", "--lattice-size", "3", "--beta", "0"], IsingLattice2D(3)),
        (["--problem", "ising", "--lattice-size", "6", "--coupling", "-0.7", "--beta", "1"],
         IsingLattice2D(6, -0.7)),
        (["--problem", "ea", "--instance", str(DATA / "ea4_uniform_seed2.txt")],
         TRANSFER_MODELS["ea_file4"]),
    ], ids=["ising3_beta0", "anti6", "ea_file4"])
    def test_oracle_prints_the_function_output(self, tmp_path, argv, model):
        out = tmp_path / "o.json"
        assert cli.main(["oracle", *argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        obs = transfer_matrix_observables(model, payload["beta"])
        n = model.n_sites
        want = {"log_z": obs.log_z, "F": obs.free_energy, "U": obs.internal_energy,
                "S": obs.entropy, "F_per_site": None if obs.free_energy is None
                else obs.free_energy / n, "U_per_site": obs.internal_energy / n,
                "S_per_site": obs.entropy / n, "n_sites": n}
        assert {k: payload[k] for k in want} == want
        if payload["beta"] == 0:  # the 3x3 ferromagnet's derivative trace is exactly 0
            assert math.copysign(1.0, payload["U"]) == 1.0

    def test_side_above_the_cap_is_refused_before_any_matrix(self, capsys):
        cap = energies.MAX_TRANSFER_SIDE
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"capped at side length {cap}, got {cap + 1}"):
                transfer_matrix_observables(EAInstance.normal(cap + 1, seed=0), 1.0)
            assert cli.main(["oracle", "--problem", "ising", "--lattice-size", str(cap + 1)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one 2^11 x 2^11 matrix alone is 32 MiB
        assert capsys.readouterr().err == (f"config error: transfer matrix capped at side "
                                           f"length {cap}, got {cap + 1}\n")

    def test_other_bond_order_is_refused(self):
        model = SimpleNamespace(side_length=3, edges=lattice_bonds(3)[::-1],
                                couplings=np.ones(18))
        with pytest.raises(ValueError, match="periodic lattice's bonds"):
            transfer_matrix_observables(model, 1.0)

    def test_overflowing_coupling_is_a_numerical_failure(self, capsys):
        # a row's energy sums to -inf, so its log-weight is not finite
        assert cli.main(["oracle", "--problem", "ising", "--coupling", "1e308"]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite log-weight\n"

    def test_underflowing_product_is_a_numerical_failure(self, capsys):
        # at beta = 300 this instance's product loses entries that carry Z:
        # without the underflow check log Z reads 3 % low, with exit code 0
        model = TRANSFER_MODELS["ea_file4"]
        assert math.isfinite(enumerate_observables(BoltzmannTarget(model, 300.0),
                                                   with_probabilities=False).log_z)
        with pytest.raises(FloatingPointError, match="underflows at beta = 300.0"):
            transfer_matrix_observables(model, 300.0)
        assert cli.main(["oracle", "--problem", "ea", "--instance",
                         str(DATA / "ea4_uniform_seed2.txt"), "--beta", "300"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: transfer-matrix product underflows at beta = 300.0\n")

    @pytest.mark.parametrize("side", [5, 6, 7, 8])
    def test_ea_gauge_invariance(self, side):
        # J_b -> J_b tau_i tau_j with tau in {-1, +1}^N relabels states
        # (sigma -> tau sigma) and so leaves Z and U unchanged
        model = EAInstance.normal(side, seed=side)
        tau = np.random.default_rng(side).choice([-1.0, 1.0], model.n_sites)
        i, j = model.edges.T
        gauged = EAInstance(side, model.couplings * tau[i] * tau[j], rng_seed=side)
        for beta in (0.4407, 1.0, 3.0):
            want, got = (transfer_matrix_observables(m, beta) for m in (model, gauged))
            assert got.log_z == pytest.approx(want.log_z, rel=1e-12)
            assert got.internal_energy == pytest.approx(want.internal_energy, rel=1e-12)


class TestKaufman:
    """The ferromagnetic torus's closed form against enumeration where it
    reaches, then against the transfer matrix past it."""

    @pytest.mark.parametrize("coupling", [1.0, 0.5])
    @pytest.mark.parametrize("side", [3, 4])
    def test_matches_enumeration(self, side, coupling):
        for beta in (0.1, 0.4407, 1.0, 5.0):
            target = BoltzmannTarget(IsingLattice2D(side, coupling), beta)
            want = enumerate_observables(target, with_probabilities=False).log_z
            assert kaufman_log_z(side, coupling, beta) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("side", range(5, energies.MAX_TRANSFER_SIDE + 1))
    def test_matches_transfer_matrix(self, side):
        for beta in (0.1, 0.4407, 1.0, 5.0):
            want = transfer_matrix_observables(IsingLattice2D(side), beta).log_z
            assert kaufman_log_z(side, 1.0, beta) == pytest.approx(want, rel=1e-12)


class TestTextFormats:
    def test_edge_list_roundtrip(self):
        text = format_edge_list(4, [(0, 1), (1, 2)])
        n, pairs = parse_edge_list(text)
        assert n == 4
        assert pairs == [(0, 1), (1, 2)]

    def test_edge_list_validation(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n0 5 1.0\n")
        with pytest.raises(ValueError):
            parse_edge_list("2 2\n0 1 1.0\n")

    @pytest.mark.parametrize("line", ["0 1", "0 1 1", "0 1 1.0"])
    def test_edge_list_unit_weight_column_loads(self, line):
        assert parse_edge_list(f"2 1\n{line}\n") == (2, [(0, 1)])

    @pytest.mark.parametrize("weight", ["2.5", "-7", "0", "nan"])
    def test_edge_list_rejects_other_weights(self, weight):
        with pytest.raises(ValueError, match="third column must be 1"):
            parse_edge_list(f"3 2\n0 1 {weight}\n1 2\n")

    def test_instance_roundtrip_ea(self):
        ea = EAInstance.uniform(3, seed=9)
        back = read_instance_text(write_instance_text(ea))
        assert isinstance(back, EAInstance)
        assert back.side_length == 3
        assert np.array_equal(back.couplings, ea.couplings)

    def test_edge_list_roundtrip_self_pairs(self):
        pairs = [(0, 0), (1, 1), (0, 1), (1, 2)]
        assert parse_edge_list(format_edge_list(3, pairs)) == (3, pairs)


class TestUndirectedEdges:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_unique_rule(self, seed):
        # random pairs with repeats and both orientations of each
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = rng.integers(0, n, int(rng.integers(1, 40)))
        b = (a + rng.integers(1, n, len(a))) % n
        pairs = np.column_stack([a, b])
        edges = np.concatenate([pairs, pairs[rng.random(len(a)) < 0.5][:, ::-1], pairs[:3]])
        edges = edges[rng.permutation(len(edges))]
        got = graphs.undirected_edges(edges, n)
        want = undirected_edges_direct(edges)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and not got.flags.writeable

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64)])
    def test_empty(self, edges):
        got = graphs.undirected_edges(edges, 3)
        assert got.shape == (0, 2) and got.dtype == np.int64
        assert np.array_equal(got, undirected_edges_direct(edges))


# EA instance text: `kind`, `L`, `seed` and `bonds` header lines, each
# missing, malformed or out of range, among bond lines that follow the L = 3
# or 4 lattice or are random. L stays <= 4 wherever the text can hold a model,
# which keeps every oracle call short. Huge sizes come under
# any `kind`: a kind other than `ea` is refused, and the bond-count check
# rejects a huge `ea`, before anything is allocated.
_SMALL_SIDES = st.one_of(st.sampled_from([3, 4]), st.integers(-2, 4))
_HUGE_SIDES = st.sampled_from([10**6, 2**31, 2**63, 10**30])
_INSTANCE_TOKENS = st.one_of(st.sampled_from(["x", "2.5", "nan", "inf", "-inf", "1e999", "-0"]),
                             st.integers(-3, 40).map(str), st.text(max_size=4))
_COUPLINGS = st.floats(-3, 3).map(repr)
_BAD_COUPLINGS = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", ""])


@st.composite
def instance_texts(draw):
    # hypothesis draws a sampled list's first entries most often: they lead
    # toward text that parses
    kind = draw(st.sampled_from(["ea", "ea", "ising", "spin"]))
    side = draw(st.one_of(_SMALL_SIDES, _HUGE_SIDES))
    if 3 <= side <= 4 and draw(st.sampled_from(["lattice", "lattice", "random"])) == "lattice":
        body = [f"{i} {j} {draw(_COUPLINGS)}" for i, j in lattice_bonds(side)]
        edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "coupling", "garble"]))
        k = draw(st.integers(0, len(body) - 1))
        body[k:k + 1] = {
            "none": body[k:k + 1], "drop": [], "repeat": [body[k]] * 2,
            "coupling": [body[k].rsplit(" ", 1)[0] + " " + draw(_BAD_COUPLINGS)],
            "garble": [" ".join(draw(st.lists(_INSTANCE_TOKENS, max_size=4)))],
        }[edit]
    else:
        body = [" ".join(draw(st.lists(_INSTANCE_TOKENS, max_size=4)))
                for _ in range(draw(st.integers(0, 6)))]
    # each field's value when plain, and when bad
    fields = {"kind": (st.just(kind), st.sampled_from(["", "EA", "ea ising"])),
              "L": (st.just(str(side)), _INSTANCE_TOKENS),
              "seed": (st.integers(-5, 5).map(str), _INSTANCE_TOKENS),
              "bonds": (st.just(str(2 * side * side)),
                        st.one_of(st.just(str(len(body))), _INSTANCE_TOKENS))}
    lines = body
    for name, (plain, bad) in fields.items():
        form = draw(st.sampled_from(["plain"] * 8 + ["bad", "stray token", "absent"]))
        if form != "absent":
            value = draw(bad if form == "bad" else plain)
            line = f"{name} {value}" + (" 1" if form == "stray token" else "")
            lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


class TestInstanceText:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(instance_texts())
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            assert isinstance(read_instance_text(text), EAInstance)
        except ValueError:
            pass

    def test_other_kind_is_refused_before_anything_is_built(self, tmp_path, capsys):
        text = "kind ising\nL 1000000\n"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="not an EA instance"):
                read_instance_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        (tmp_path / "ising.txt").write_text(text, encoding="utf-8")
        assert cli.main(["oracle", "--problem", "ea", "--instance",
                         str(tmp_path / "ising.txt")]) == 2
        assert "not an EA instance" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(instance_texts())
    def test_oracle_exits_0_or_2(self, tmp_path_factory, text):
        root = tmp_path_factory.getbasetemp()
        (root / "fuzz_instance.txt").write_text(text, encoding="utf-8")
        argv = ["oracle", "--problem", "ea", "--instance", str(root / "fuzz_instance.txt"),
                "--out", str(root / "fuzz_oracle.json")]
        assert cli.main(argv) in (0, 2)
