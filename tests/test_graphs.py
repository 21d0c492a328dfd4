import numpy as np
import pytest

from bitdiff.energies import all_states
from bitdiff.graphs import (
    BaConfig,
    Graph,
    RbConfig,
    brute_force_co,
    cut_size,
    gen_ba,
    gen_rb,
    is_clique,
    is_dominating_set,
    is_feasible,
    is_independent_set,
    solution_size,
)

from oracles import brute_force_co_direct


def star(n_leaves):
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGraph:
    def test_dedup_and_orientation(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert len(g.edges) == 2
        assert g.edge_set() == {(0, 1), (1, 2)}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_text_roundtrip(self):
        g = gen_ba(BaConfig(8, 2, seed=5))
        back = Graph.from_text(g.to_text())
        assert back.n_nodes == g.n_nodes
        assert back.edge_set() == g.edge_set()


class TestBarabasiAlbert:
    def test_m1_tree(self):
        g = gen_ba(BaConfig(5, 1, seed=0))
        assert len(g.edges) == 4

    def test_edge_count_constant_across_seeds(self):
        # clique seed on m+1 nodes plus m attachments per remaining node
        n, m = 10, 4
        expected = m * (m + 1) // 2 + m * (n - m - 1)
        counts = {len(gen_ba(BaConfig(n, m, seed=s)).edges) for s in range(25)}
        assert counts == {expected}

    def test_deterministic(self):
        a = gen_ba(BaConfig(12, 3, seed=42))
        b = gen_ba(BaConfig(12, 3, seed=42))
        assert a.edge_set() == b.edge_set()

    def test_distinct_attachments(self):
        for s in range(10):
            g = gen_ba(BaConfig(9, 3, seed=s))
            assert len(g.edge_set()) == len(g.edges)  # no duplicate edges survived

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BaConfig(3, 3, seed=0)
        with pytest.raises(ValueError):
            BaConfig(5, 0, seed=0)


class TestRb:
    def test_p1_disjoint_cliques(self):
        g = gen_rb(RbConfig(3, 4, 1.0, seed=0))
        assert g.n_nodes == 12
        assert len(g.edges) == 3 * 6  # 3 * C(4,2)

    def test_low_p_adds_cross_edges(self):
        hits = 0
        for s in range(100):
            g = gen_rb(RbConfig(2, 3, 0.05, seed=s))
            if len(g.edges) > 2 * 3:
                hits += 1
        assert hits == 100  # round(0.25*0.95*9) = 2 cross edges per ordered pair

    def test_mis_of_p1_graph_equals_n_cliques(self):
        g = gen_rb(RbConfig(3, 4, 1.0, seed=1))
        res = brute_force_co("mis", g)
        assert res.optimal_size == 3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RbConfig(1, 3, 0.5, seed=0)
        with pytest.raises(ValueError):
            RbConfig(2, 3, 0.0, seed=0)


class TestCheckers:
    def test_independent_set(self):
        g = complete(3)
        assert is_independent_set(g, [1, 0, 0])
        assert not is_independent_set(g, [1, 1, 0])

    def test_dominating_set(self):
        g = star(5)
        assert is_dominating_set(g, [1, 0, 0, 0, 0, 0])
        assert not is_dominating_set(g, [0, 1, 0, 0, 0, 0])

    def test_clique(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert is_clique(g, [1, 1, 1, 0])
        assert not is_clique(g, [1, 1, 1, 1])

    def test_cut_size(self):
        g = complete(4)
        assert cut_size(g, [1, 1, 0, 0]) == 4


class TestBruteForce:
    def test_mis_triangle(self):
        res = brute_force_co("mis", complete(3))
        assert res.optimal_size == 1
        assert res.optimal_energy == pytest.approx(-1.0)

    def test_maxcut_k4(self):
        res = brute_force_co("maxcut", complete(4))
        assert res.optimal_size == 4
        assert res.optimal_energy == pytest.approx(-4.0)

    def test_mds_star(self):
        res = brute_force_co("mds", star(5))
        assert res.optimal_size == 1
        assert np.array_equal(res.optimal_states[0], [1, 0, 0, 0, 0, 0])

    def test_cap(self):
        g = gen_ba(BaConfig(16, 2, seed=0))
        with pytest.raises(ValueError):
            brute_force_co("mis", g)
        brute_force_co("mis", g, allow_large=True)  # override admits it

    def test_minima_feasible_property(self):
        # penalty-form minima satisfy the constraints (A=1.0 < B=1.1)
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(4, 9))
            g = gen_ba(BaConfig(n, 2, seed=trial))
            for kind in ("mis", "mds", "maxcl"):
                res = brute_force_co(kind, g)
                for state in res.optimal_states:
                    assert is_feasible(kind, g, state), (kind, trial)

    def test_solution_size_consistency(self):
        g = star(4)
        states = all_states(5)
        for kind in ("mis", "mds", "maxcl", "maxcut"):
            res = brute_force_co(kind, g)
            sizes = [solution_size(kind, g, s) for s in res.optimal_states]
            assert len(set(sizes)) == 1

    @pytest.mark.parametrize("kind", ["mis", "mds", "maxcl", "maxcut"])
    def test_one_pass_matches_two_pass(self, kind):
        # the 17-node graph sweeps two chunks of 2^16 states
        graphs = [gen_ba(BaConfig(n, 2 + s % 3, seed=s)) for s, n in enumerate(range(4, 15))]
        graphs.append(gen_ba(BaConfig(17, 2, seed=12)))
        for g in graphs:
            got = brute_force_co(kind, g, allow_large=True)
            want = brute_force_co_direct(kind, g)
            assert np.array_equal(got.optimal_states, want.optimal_states)
            assert got.optimal_energy == want.optimal_energy
            assert got.optimal_size == want.optimal_size
