import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitdiff import cli, graphs
from bitdiff.energies import all_states
from bitdiff.graphs import Graph, brute_force_co, gen_ba, gen_rb, is_feasible, solution_size

from oracles import (
    brute_force_co_direct,
    gen_ba_direct,
    is_feasible_direct,
    solution_size_direct,
)


def star(n_leaves):
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGraph:
    def test_dedup_and_orientation(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert len(g.edges) == 2
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    @pytest.mark.parametrize("text,count", [("-1 0\n", "-1"),
                                            (f"{2**64} 1\n{2**64 - 1} 0\n", str(2**64))],
                             ids=["negative", "beyond_int64"])
    def test_node_count_out_of_range_rejected(self, tmp_path, capsys, text, count):
        with pytest.raises(ValueError, match="node count"):
            Graph.from_text(text)
        path = tmp_path / "graph.txt"
        path.write_text(text)
        assert cli.main(["oracle", "--problem", "mis", "--graph", str(path)]) == 2
        assert f"node count must be in 0..2^63-1, got {count}" in capsys.readouterr().err

    def test_text_roundtrip(self):
        g = gen_ba(8, 2, seed=5)
        back = Graph.from_text(g.to_text())
        assert back.n_nodes == g.n_nodes
        assert np.array_equal(back.edges, g.edges)

    def test_problems_and_checks_read_one_adjacency(self, monkeypatch):
        # the edge rule runs once, when the graph is built; its adjacency is
        # built once, on first use, and every reader shares it
        g = gen_ba(12, 3, seed=1)
        rule_calls, builds = [], []
        monkeypatch.setattr(graphs, "undirected_edges", lambda *a: rule_calls.append(a))
        build = Graph.adjacency.func
        counted = functools.cached_property(lambda graph: builds.append(graph) or build(graph))
        counted.__set_name__(Graph, "adjacency")
        monkeypatch.setattr(Graph, "adjacency", counted)
        for kind in ("mis", "mds", "maxcl", "maxcut"):
            assert g.co_problem(kind, 1.0, 1.1).graph is g
            is_feasible(kind, g, np.ones(12))
        assert rule_calls == [] and len(builds) == 1 and builds[0] is g
        assert g.adjacency is g.__dict__["adjacency"] and not g.adjacency.flags.writeable


# graph text: an `N M` header (M often the data-line count) over edge lines of
# 2-4 tokens, with comments, blank lines and random text among them; counts
# are negative, zero or huge. A repeated branch weights `one_of`, which picks
# branches evenly, toward text that parses
_COUNTS = st.one_of(st.integers(0, 14), st.integers(-3, -1),
                    st.sampled_from([10**6, 2**63 - 1, 2**63, 10**30]))
_TOKENS = st.one_of(_COUNTS.map(str), st.sampled_from(["1", "1.0", "2.5", "nan", "x", "#"]),
                    st.text(max_size=4))
_PAIRS = st.tuples(st.integers(0, 9), st.integers(0, 9))
_EDGE_LINES = st.one_of(_PAIRS.map("{0[0]} {0[1]}".format), _PAIRS.map("{0[0]} {0[1]} 1".format),
                        _PAIRS.map("{0[0]} {0[1]}".format),
                        st.lists(_TOKENS, min_size=2, max_size=4).map(" ".join))
_COMMENTS = st.text(max_size=8).map("#".__add__)
_NOISE = st.one_of(st.just(""), _COMMENTS, _COMMENTS, st.text(max_size=12))


@st.composite
def graph_texts(draw):
    lines = draw(st.lists(_EDGE_LINES, max_size=8))
    for line in draw(st.lists(_NOISE, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    n_data = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    counts = st.tuples(st.one_of(st.integers(10, 14), _COUNTS),  # 10 nodes hold every pair
                       st.one_of(st.just(n_data), st.just(n_data), _COUNTS))
    header = draw(st.one_of(counts.map("{0[0]} {0[1]}".format),
                            counts.map("{0[0]} {0[1]}".format), st.text(max_size=10)))
    return "\n".join([header, *lines])


class TestGraphText:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(graph_texts())
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            assert isinstance(Graph.from_text(text), Graph)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(graph_texts())
    def test_oracle_exits_0_or_2(self, tmp_path_factory, text):
        root = tmp_path_factory.getbasetemp()
        (root / "fuzz_graph.txt").write_text(text, encoding="utf-8")
        for problem in ("mis", "mds", "maxcl", "maxcut"):
            argv = ["oracle", "--problem", problem, "--graph", str(root / "fuzz_graph.txt"),
                    "--out", str(root / "fuzz_oracle.json")]
            assert cli.main(argv) in (0, 2)


class TestBarabasiAlbert:
    def test_m1_tree(self):
        g = gen_ba(5, 1, seed=0)
        assert len(g.edges) == 4

    def test_edge_count_constant_across_seeds(self):
        # clique seed on m+1 nodes plus m attachments per remaining node
        n, m = 10, 4
        expected = m * (m + 1) // 2 + m * (n - m - 1)
        counts = {len(gen_ba(n, m, seed=s).edges) for s in range(25)}
        assert counts == {expected}

    def test_deterministic(self):
        a = gen_ba(12, 3, seed=42)
        b = gen_ba(12, 3, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_distinct_attachments(self):
        for s in range(10):
            g = gen_ba(9, 3, seed=s)
            assert len(g.edges) == 3 * 4 // 2 + 3 * (9 - 3 - 1)  # no attachment repeated

    def test_matches_choice_draws(self):
        # seeds 0-143 cover every (n, m) with n in 5..40 and m in 1..4
        for seed in range(200):
            n, m = 5 + seed % 36, 1 + seed // 36 % 4
            assert np.array_equal(gen_ba(n, m, seed).edges,
                                  gen_ba_direct(n, m, seed).edges), (n, m, seed)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            gen_ba(3, 3, seed=0)
        with pytest.raises(ValueError):
            gen_ba(5, 0, seed=0)


class TestRb:
    def test_p1_disjoint_cliques(self):
        g = gen_rb(3, 4, 1.0, seed=0)
        assert g.n_nodes == 12
        assert len(g.edges) == 3 * 6  # 3 * C(4,2)

    def test_low_p_adds_cross_edges(self):
        hits = 0
        for s in range(100):
            g = gen_rb(2, 3, 0.05, seed=s)
            if len(g.edges) > 2 * 3:
                hits += 1
        assert hits == 100  # round(0.25*0.95*9) = 2 cross edges per ordered pair

    def test_mis_of_p1_graph_equals_n_cliques(self):
        g = gen_rb(3, 4, 1.0, seed=1)
        res = brute_force_co("mis", g)
        assert res.optimal_size == 3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            gen_rb(1, 3, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_rb(2, 3, 0.0, seed=0)


class TestCheckers:
    def test_independent_set(self):
        g = complete(3)
        assert is_feasible("mis", g, [1, 0, 0])
        assert not is_feasible("mis", g, [1, 1, 0])

    def test_dominating_set(self):
        g = star(5)
        assert is_feasible("mds", g, [1, 0, 0, 0, 0, 0])
        assert not is_feasible("mds", g, [0, 1, 0, 0, 0, 0])

    def test_clique(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert is_feasible("maxcl", g, [1, 1, 1, 0])
        assert not is_feasible("maxcl", g, [1, 1, 1, 1])

    def test_cut_size(self):
        g = complete(4)
        assert solution_size("maxcut", g, [1, 1, 0, 0]) == 4


def checker_graphs() -> list:
    """BA graphs of 4-12 nodes (m = 1-3), RB graphs, an edgeless and a complete graph."""
    graphs = [gen_ba(n, 1 + n % 3, seed=n) for n in range(4, 13)]
    graphs += [gen_rb(2, 3, 0.5, seed=1), gen_rb(3, 3, 0.2, seed=2), gen_rb(2, 4, 1.0, seed=3),
               gen_rb(4, 3, 0.3, seed=4)]
    return graphs + [Graph(5, []), Graph(1, []), complete(6)]


class TestBatchedChecks:
    @pytest.mark.parametrize("kind", ["mis", "mds", "maxcl", "maxcut"])
    def test_all_states_match_the_per_state_references(self, kind):
        for g in checker_graphs():
            states = all_states(g.n_nodes)
            feasible = is_feasible(kind, g, states)
            sizes = solution_size(kind, g, states)
            assert feasible.shape == sizes.shape == (len(states),)
            assert feasible.tolist() == [is_feasible_direct(kind, g, s) for s in states]
            assert sizes.tolist() == [solution_size_direct(kind, g, s) for s in states]
            # a lone (N,) state gives its row's value, and a (..., N) batch one per row
            for i in range(0, len(states), 7):
                assert is_feasible(kind, g, states[i]) == feasible[i]
                assert solution_size(kind, g, states[i]) == sizes[i]
            grid = states.reshape(-1, 2, g.n_nodes)
            assert np.array_equal(is_feasible(kind, g, grid), feasible.reshape(grid.shape[:-1]))
            assert np.array_equal(solution_size(kind, g, grid), sizes.reshape(grid.shape[:-1]))

    def test_unknown_problem(self):
        for check in (is_feasible, solution_size):
            with pytest.raises(ValueError, match="unknown problem"):
                check("tsp", complete(3), [1, 0, 0])


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
        g = gen_ba(16, 2, seed=0)
        with pytest.raises(ValueError):
            brute_force_co("mis", g)
        brute_force_co("mis", g, allow_large=True)  # override admits it

    def test_minima_feasible_property(self):
        # penalty-form minima satisfy the constraints (A=1.0 < B=1.1)
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(4, 9))
            g = gen_ba(n, 2, seed=trial)
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
        graphs = [gen_ba(n, 2 + s % 3, seed=s) for s, n in enumerate(range(4, 15))]
        graphs.append(gen_ba(17, 2, seed=12))
        for g in graphs:
            got = brute_force_co(kind, g, allow_large=True)
            want = brute_force_co_direct(kind, g)
            assert np.array_equal(got.optimal_states, want.optimal_states)
            assert got.optimal_energy == want.optimal_energy
            assert got.optimal_size == want.optimal_size
