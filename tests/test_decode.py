import numpy as np
import pytest

from bitdiff.decode import conditional_expectation
from bitdiff.energies import CoProblem, all_states
from bitdiff.graphs import Graph, gen_ba, is_feasible

from oracles import conditional_expectation_direct

KINDS = ("mis", "mds", "maxcl", "maxcut")


def ba_marginals(seed: int, n_rows: int):
    """A 10-14 node BA graph (m = 4, so most have a hub of degree >= 8) and
    marginals with injected 0.5 ties and exact 0/1 entries."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 15))
    g = gen_ba(n, 4, seed=seed)
    v = rng.uniform(0, 1, (n_rows, n))
    for value in (0.5, 0.0, 1.0):
        v[rng.random(v.shape) < 0.1] = value
    return g, v


class TestConditionalExpectation:
    def test_binary_input_is_fixed_point(self):
        co = CoProblem("mis", Graph(3, [(0, 1), (1, 2)]))
        v = np.array([1.0, 0.0, 1.0])
        out = conditional_expectation(v, co.energy)
        assert np.array_equal(out, [1, 0, 1])

    def test_hand_traced_single_edge_mis(self):
        co = CoProblem("mis", Graph(2, [(0, 1)]), 1.0, 1.1)
        out = conditional_expectation(np.array([0.9, 0.9]), co.energy)
        assert np.array_equal(out, [1, 0])

    def test_tie_breaks(self):
        # equal marginals: the stable sort fixes the lower index first, and a
        # tie in energy resolves toward bit value 1
        co = CoProblem("mis", Graph(2, []), 1.0, 1.1)  # no edges: all-ones optimal
        out = conditional_expectation(np.array([0.5, 0.5]), co.energy)
        assert np.array_equal(out, [1, 1])

    def test_invalid_marginals(self):
        co = CoProblem("mis", Graph(2, [(0, 1)]))
        with pytest.raises(ValueError):
            conditional_expectation(np.array([0.5, 1.5]), co.energy)
        with pytest.raises(ValueError):
            conditional_expectation(np.array([]), co.energy)

    def test_never_increases_expected_energy(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(3, 9))
            g = gen_ba(n, 2, seed=trial)
            kind = ("mis", "mds", "maxcl", "maxcut")[trial % 4]
            co = CoProblem(kind, g, 1.0, 1.1)
            v = rng.uniform(0, 1, n)
            out = conditional_expectation(v, co.energy)
            assert co.energy(out.astype(np.float64)) <= co.energy(v) + 1e-12

    def test_better_than_average_exact_expectation(self):
        # the multilinear value equals the exact product-distribution average,
        # verified against full enumeration
        rng = np.random.default_rng(1)
        for trial in range(50):
            n = int(rng.integers(3, 8))
            g = gen_ba(n, 1, seed=trial + 1000)
            co = CoProblem("mis", g, 1.0, 1.1)
            v = rng.uniform(0, 1, n)
            states = all_states(n).astype(np.float64)
            probs = np.prod(np.where(states == 1, v, 1 - v), axis=1)
            avg = probs @ co.energy(states)
            out = conditional_expectation(v, co.energy)
            assert co.energy(out.astype(np.float64)) <= avg + 1e-12

    def test_feasibility_sweep(self):
        # rounded outputs always satisfy the constraints for A < B
        rng = np.random.default_rng(2)
        kinds = ("mis", "mds", "maxcl")
        for trial in range(1000):
            n = int(rng.integers(3, 13))
            g = gen_ba(n, int(rng.integers(1, min(4, n))), seed=trial)
            kind = kinds[trial % 3]
            co = CoProblem(kind, g, 1.0, 1.1)
            v = rng.uniform(0, 1, n)
            out = conditional_expectation(v, co.energy)
            assert is_feasible(kind, g, out), (kind, trial)

    def test_determinism(self):
        co = CoProblem("mds", Graph(6, [(0, 1), (1, 2), (3, 4)]), 1.0, 1.1)
        v = np.array([0.3, 0.7, 0.7, 0.2, 0.9, 0.5])
        a = conditional_expectation(v, co.energy)
        b = conditional_expectation(v.copy(), co.energy)
        assert np.array_equal(a, b)


class TestBatchedMatchesDirect:
    """The batched decode rounds every row exactly as the one-row reference."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_reference(self, kind):
        hubs = 0
        for seed in range(30):
            g, v = ba_marginals(seed, 30)
            hubs += np.bincount(g.edges.ravel(), minlength=g.n_nodes).max() >= 8
            co = g.co_problem(kind, 1.0, 1.1)
            want = np.array([conditional_expectation_direct(row, co.energy) for row in v])
            got = conditional_expectation(v, co.energy)
            assert got.dtype == np.int8 and got.shape == v.shape
            assert np.array_equal(got, want), (kind, seed)
        assert hubs >= 20

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_row_and_vector(self, kind):
        g, v = ba_marginals(7, 1)
        co = g.co_problem(kind, 1.0, 1.1)
        want = conditional_expectation_direct(v[0], co.energy)
        one_row = conditional_expectation(v, co.energy)
        assert one_row.shape == v.shape and np.array_equal(one_row[0], want)
        vector = conditional_expectation(v[0], co.energy)
        assert vector.shape == v[0].shape and np.array_equal(vector, want)

    def test_binary_matrix_is_fixed_point(self):
        g, _ = ba_marginals(3, 1)
        bits = np.random.default_rng(3).integers(0, 2, (8, g.n_nodes)).astype(np.float64)
        for kind in KINDS:
            out = conditional_expectation(bits, g.co_problem(kind, 1.0, 1.1).energy)
            assert np.array_equal(out, bits)

    def test_non_finite_energy_in_any_row_raises(self):
        co = CoProblem("mis", Graph(3, [(0, 1), (1, 2)]))
        v = np.full((4, 3), 0.5)

        def energy(x):
            e = co.energy(x)
            return np.where(np.arange(len(e)) == len(e) - 1, np.nan, e)

        with pytest.raises(FloatingPointError):
            conditional_expectation(v, energy)

    def test_rejects_higher_rank_marginals(self):
        co = CoProblem("mis", Graph(2, [(0, 1)]))
        with pytest.raises(ValueError):
            conditional_expectation(np.full((2, 2, 2), 0.5), co.energy)
