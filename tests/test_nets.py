import numpy as np
import pytest
import scipy.sparse as sp

from bitdiff import autodiff as ad
from bitdiff import nets
from bitdiff.autodiff import tsum
from bitdiff.diffusion import PROB_CLIP, exp_schedule, sample_reverse_path
from bitdiff.graphs import Graph, gen_ba
from bitdiff.nets import (
    GnnPolicy,
    GnnSpec,
    GraphCondition,
    MlpPolicy,
    MlpSpec,
    bernoulli_entropy,
    bernoulli_log_q,
    init_params,
    make_policy,
    param_shapes,
)

from oracles import backward_direct, finite_diff_grads, grads_to_vec, rel_err


def perturb(policy, scale=0.3, seed=0):
    rng = np.random.default_rng(seed)
    for k in policy.params:
        policy.params[k] = policy.params[k] + scale * rng.standard_normal(
            policy.params[k].shape
        )
    return policy


class TestSpecs:
    def test_param_count_pure_function(self):
        spec = MlpSpec(n_bits=9, hidden=(16, 8), value_head=True)
        params = init_params(spec, seed=0)
        assert {k: p.shape for k, p in params.items()} == param_shapes(spec)


class TestMlpPolicy:
    def test_zero_init_gives_uniform(self):
        policy = MlpPolicy.init(MlpSpec(n_bits=7, hidden=(12, 12)), 9, seed=3)
        x = np.random.default_rng(0).integers(0, 2, (5, 7))
        assert np.allclose(policy.probs(x, 4), 0.5)

    def test_outputs_clipped_for_huge_weights(self):
        policy = MlpPolicy.init(MlpSpec(n_bits=3, hidden=(4,)), 2, seed=4)
        policy.params["w_out"] = 1e4 * np.ones_like(policy.params["w_out"])
        policy.params["b_out"] = 1e4 * np.ones_like(policy.params["b_out"])
        p = policy.probs(np.ones((2, 3), dtype=np.int8), 1)
        assert np.all(p >= PROB_CLIP)
        assert np.all(p <= 1 - PROB_CLIP)

    def test_deterministic_forward(self):
        policy = perturb(MlpPolicy.init(MlpSpec(n_bits=5, hidden=(8, 8)), 6, seed=5))
        x = np.random.default_rng(1).integers(0, 2, (4, 5))
        assert np.array_equal(policy.probs(x, 3), policy.probs(x, 3))

    def test_vector_time_conditioning(self):
        policy = perturb(MlpPolicy.init(MlpSpec(n_bits=4, hidden=(6,)), 8, seed=6))
        x = np.random.default_rng(2).integers(0, 2, (3, 4))
        rows = policy.probs(x, np.array([1, 5, 8]))
        for i, t in enumerate((1, 5, 8)):
            assert np.allclose(rows[i], policy.probs(x[i: i + 1], t)[0])

    def test_value_zero_init(self):
        policy = MlpPolicy.init(MlpSpec(n_bits=4, hidden=(6, 6), value_head=True), 5, seed=7)
        x = np.random.default_rng(3).integers(0, 2, (4, 4))
        assert np.allclose(policy.value(x, 2), 0.0)

    def test_value_requires_head(self):
        policy = MlpPolicy.init(MlpSpec(n_bits=4, hidden=(6,)), 5, seed=8)
        with pytest.raises(ValueError):
            policy.value(np.zeros((1, 4), dtype=np.int8), 1)

    def test_value_finite_random_inputs(self):
        policy = perturb(
            MlpPolicy.init(MlpSpec(n_bits=6, hidden=(8, 8), value_head=True), 5, seed=9)
        )
        x = np.random.default_rng(4).integers(0, 2, (10, 6))
        assert np.all(np.isfinite(policy.value(x, 3)))


def _ba_condition(seed=0, n=7):
    return GraphCondition(gen_ba(n, 2, seed))


class TestGnnPolicy:
    def test_zero_init_gives_uniform(self):
        policy = GnnPolicy.init(GnnSpec(n_hidden=8, n_message_passing=2), 6, seed=0)
        cond = _ba_condition()
        x = np.random.default_rng(0).integers(0, 2, (3, 7))
        assert np.allclose(policy.probs(x, 2, cond), 0.5)

    def test_equivariance_under_relabeling(self):
        policy = perturb(
            GnnPolicy.init(GnnSpec(n_hidden=8, n_message_passing=3), 6, seed=1), 0.4
        )
        g = gen_ba(8, 2, seed=5)
        perm = np.random.default_rng(6).permutation(8)
        gp = Graph(g.n_nodes, perm[g.edges])
        x = np.random.default_rng(7).integers(0, 2, (4, 8))
        xp = np.empty_like(x)
        xp[:, perm] = x  # node i moves to perm[i]
        out = policy.probs(x, 3, GraphCondition(g))
        outp = policy.probs(xp, 3, GraphCondition(gp))
        assert np.allclose(outp[:, perm], out, atol=1e-10)

    def test_value_invariance_under_relabeling(self):
        policy = perturb(
            GnnPolicy.init(GnnSpec(n_hidden=8, n_message_passing=2, value_head=True), 6, seed=2),
            0.4,
            seed=8,
        )
        g = gen_ba(7, 3, seed=9)
        perm = np.random.default_rng(10).permutation(7)
        x = np.random.default_rng(11).integers(0, 2, (5, 7))
        xp = np.empty_like(x)
        xp[:, perm] = x
        v = policy.value(x, 2, GraphCondition(g))
        vp = policy.value(xp, 2, GraphCondition(Graph(g.n_nodes, perm[g.edges])))
        assert np.allclose(v, vp, atol=1e-10)

    def test_requires_condition(self):
        policy = GnnPolicy.init(GnnSpec(n_hidden=8, n_message_passing=1), 4, seed=3)
        with pytest.raises(ValueError):
            policy.probs(np.zeros((1, 5), dtype=np.int8), 1, None)

    def test_isolated_node_handled(self):
        g = Graph(4, [(0, 1)])  # nodes 2, 3 isolated
        policy = perturb(GnnPolicy.init(GnnSpec(n_hidden=6, n_message_passing=2), 4, seed=4))
        p = policy.probs(np.zeros((2, 4), dtype=np.int8), 1, GraphCondition(g))
        assert np.all(np.isfinite(p))


class TestGradients:
    def test_mlp_log_q_grad_matches_fd(self):
        spec = MlpSpec(n_bits=4, hidden=(6, 5))
        policy = perturb(MlpPolicy.init(spec, 5, seed=10), 0.5, seed=11)
        rng = np.random.default_rng(12)
        x_t = rng.integers(0, 2, (6, 4))
        x_prev = rng.integers(0, 2, (6, 4))

        def loss_value():
            q = policy.probs(x_t, 3)
            return float(np.sum(x_prev * np.log(q) + (1 - x_prev) * np.log(1 - q)))

        leaves = ad.leaves(policy.params)
        loss = tsum(bernoulli_log_q(x_prev, policy.probs_from(leaves, x_t, 3)))
        loss.backward()
        got = ad.collect_grads(leaves)
        want = finite_diff_grads(loss_value, policy.params)
        assert rel_err(grads_to_vec(got), grads_to_vec(want)) < 1e-4

    def test_gnn_entropy_grad_matches_fd(self):
        spec = GnnSpec(n_hidden=6, n_message_passing=2)
        policy = perturb(GnnPolicy.init(spec, 4, seed=13), 0.5, seed=14)
        cond = _ba_condition(seed=15, n=6)
        x_t = np.random.default_rng(16).integers(0, 2, (3, 6))

        def loss_value():
            q = policy.probs(x_t, 2, cond)
            return float(np.sum(-q * np.log(q) - (1 - q) * np.log(1 - q)))

        leaves = ad.leaves(policy.params)
        loss = tsum(bernoulli_entropy(policy.probs_from(leaves, x_t, 2, cond)))
        loss.backward()
        got = ad.collect_grads(leaves)
        want = finite_diff_grads(loss_value, policy.params)
        assert rel_err(grads_to_vec(got), grads_to_vec(want)) < 1e-4

    def test_gnn_value_grad_matches_fd(self):
        spec = GnnSpec(n_hidden=6, n_message_passing=2, value_head=True)
        policy = perturb(GnnPolicy.init(spec, 4, seed=17), 0.5, seed=18)
        cond = _ba_condition(seed=19, n=5)
        x_t = np.random.default_rng(20).integers(0, 2, (4, 5))

        def loss_value():
            return float(np.sum(policy.value(x_t, 1, cond) ** 2))

        leaves = ad.leaves(policy.params)
        v = policy.value_from(leaves, x_t, 1, cond)
        loss = tsum(v * v)
        loss.backward()
        got = ad.collect_grads(leaves)
        want = finite_diff_grads(loss_value, policy.params)
        assert rel_err(grads_to_vec(got), grads_to_vec(want)) < 1e-4


class TestTracedUntracedAgree:
    """The untraced forward does its arithmetic in place; the traced one
    records nodes. Both give the same bits, and a whole policy tape gives
    the same gradients as out-of-place accumulation."""

    CASES = {
        "mlp": (MlpSpec(n_bits=6, hidden=(16, 16), value_head=True, kernel_start=True), None),
        "gnn": (GnnSpec(n_hidden=8, n_message_passing=2, value_head=True), 7),
    }

    def _setup(self, kind):
        spec, n_nodes = self.CASES[kind]
        policy = perturb(make_policy(spec, 5, seed=21), 0.5, seed=22)
        cond = None if n_nodes is None else _ba_condition(seed=23, n=n_nodes)
        n_bits = spec.n_bits if n_nodes is None else n_nodes
        rng = np.random.default_rng(24)
        x_t = rng.integers(0, 2, (33, n_bits))
        x_prev = rng.integers(0, 2, (33, n_bits))
        t = rng.integers(1, 6, 33)
        return policy, cond, x_t, x_prev, t

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_forward_bits_match(self, kind):
        policy, cond, x_t, _, t = self._setup(kind)
        leaves = ad.leaves(policy.params)
        probs, value = policy.probs_and_value_from(leaves, x_t, t, cond)
        assert np.array_equal(policy.probs(x_t, t, cond), probs.data)
        assert np.array_equal(policy.value(x_t, t, cond), value.data)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_policy_tape_gradients_match_direct(self, kind):
        policy, cond, x_t, x_prev, t = self._setup(kind)
        grads = []
        for run in (lambda root: root.backward(), backward_direct):
            leaves = ad.leaves(policy.params)
            probs, value = policy.probs_and_value_from(leaves, x_t, t, cond)
            loss = tsum(bernoulli_log_q(x_prev, probs) * value) + tsum(
                bernoulli_entropy(probs))
            run(loss)
            grads.append(ad.collect_grads(leaves))
        for k in grads[0]:
            assert np.array_equal(grads[0][k], grads[1][k]), k


class TestUntracedWorkspace:
    """The untraced forward writes its layers into the policy's arena, which
    is reused across calls of any row count or graph size; what it returns
    is always a fresh array, bit-equal to the traced forward."""

    SPECS = {
        "mlp": MlpSpec(n_bits=6, hidden=(16, 12, 16), value_head=True, kernel_start=True),
        "gnn": GnnSpec(n_hidden=8, n_message_passing=2, value_head=True, kernel_start=True),
    }

    def _policy(self, kind):
        return perturb(make_policy(self.SPECS[kind], 5, seed=31), 0.5, seed=32)

    def _conditions(self, kind):
        if kind == "mlp":
            return [None, None, None]
        return [_ba_condition(seed=34, n=n) for n in (10, 14, 10)]

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_results_survive_later_calls_and_match_traced(self, kind):
        policy = self._policy(kind)
        rng = np.random.default_rng(33)
        kept = []
        # the largest call first, so later calls write over its buffers' prefixes
        for rows, cond in zip((300, 1, 33), self._conditions(kind)):
            n_bits = 6 if cond is None else cond.n_bits
            x_t = rng.integers(0, 2, (rows, n_bits))
            t = rng.integers(1, 6, rows)
            probs, value = policy.probs(x_t, t, cond), policy.value(x_t, t, cond)
            both = policy.probs_and_value_from(policy.params, x_t, t, cond)
            traced = policy.probs_and_value_from(ad.leaves(policy.params), x_t, t, cond)
            traced_copy = [v.data.copy() for v in traced]
            for got, want in zip((probs, value), traced):
                assert np.array_equal(got, want.data)
            for got, want in zip(both, (probs, value)):
                assert np.array_equal(got, want)
            kept.append(([probs, value, *both], [probs.copy(), value.copy()] * 2))
            # an untraced call after a traced one leaves the tape's arrays alone
            policy.probs(x_t, t, cond)
            for v, want in zip(traced, traced_copy):
                assert np.array_equal(v.data, want)
        for arrays, copies in kept:
            for got, want in zip(arrays, copies):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_path_batches_do_not_share_x0_probs(self, kind):
        policy = self._policy(kind)
        cond = self._conditions(kind)[0]
        rng = np.random.default_rng(35)
        first = sample_reverse_path(policy, exp_schedule(5), 20, rng, cond)
        kept = first.x0_probs.copy()
        second = sample_reverse_path(policy, exp_schedule(5), 20, rng, cond)
        assert not np.shares_memory(first.x0_probs, second.x0_probs)
        assert np.array_equal(first.x0_probs, kept)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_same_size_calls_allocate_one_block(self, kind):
        policy = self._policy(kind)
        cond = self._conditions(kind)[0]
        n_bits = 6 if cond is None else cond.n_bits
        x_t = np.random.default_rng(36).integers(0, 2, (20, n_bits))
        policy.probs(x_t, 3, cond)
        assert policy._arena.blocks == 0  # the first call sizes the block
        for _ in range(4):
            policy.probs(x_t, 3, cond)
        assert policy._arena.blocks == 1


class TestAggregationForms:
    """`GraphCondition` aggregates with a dense n x n operator per copy, or
    with a sparse operator kron'd over the copies, as `DENSE_NNZ_MULTIPLE`
    rules; both forms give the same numbers up to rounding."""

    GRAPHS = {"dense": (12, 4), "sparse": (300, 2)}  # BA (nodes, attachment)

    def _graph(self, side):
        return gen_ba(*self.GRAPHS[side], seed=41)

    def _both_forms(self, side, monkeypatch):
        conds = {}
        for form, multiple in (("dense", 10**9), ("sparse", 0)):
            monkeypatch.setattr(nets, "DENSE_NNZ_MULTIPLE", multiple)
            conds[form] = GraphCondition(self._graph(side))
        return conds

    @pytest.mark.parametrize("side", sorted(GRAPHS))
    def test_the_rule_puts_each_graph_on_its_side(self, side):
        assert (GraphCondition(self._graph(side))._dense is not None) == (side == "dense")

    @pytest.mark.parametrize("multiple", [0, 10**9])
    def test_operator_scales_rows_by_degree(self, multiple, monkeypatch):
        monkeypatch.setattr(nets, "DENSE_NNZ_MULTIPLE", multiple)
        cond = GraphCondition(Graph(4, [(0, 1), (1, 2)]))  # node 3 isolated
        r = 1 / np.sqrt(2)
        want = np.array([[0, 1, 0, 0], [r, 0, r, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        assert np.array_equal(cond.aggregate(np.eye(4), 1), want)

    @pytest.mark.parametrize("side", sorted(GRAPHS))
    def test_forms_agree(self, side, monkeypatch):
        conds = self._both_forms(side, monkeypatch)
        n = conds["dense"].n_bits
        rng = np.random.default_rng(42)
        x, coef = rng.standard_normal((2, 5 * n, 3))
        got = {}
        for form, cond in conds.items():
            xt = ad.Tensor(x)
            out = cond.aggregate(xt, 5)
            tsum(out * coef).backward()
            got[form] = (out.data, xt.grad, cond.aggregate(x, 5))
        for dense, sparse in zip(got["dense"], got["sparse"]):
            assert rel_err(dense, sparse) <= 1e-12

    @pytest.mark.parametrize("side", sorted(GRAPHS))
    def test_gnn_outputs_and_records_agree(self, side, monkeypatch):
        conds = self._both_forms(side, monkeypatch)
        n = conds["dense"].n_bits
        spec = GnnSpec(n_hidden=8, n_message_passing=2, value_head=True, kernel_start=True)
        policy = perturb(make_policy(spec, 5, seed=43), 0.5, seed=44)
        rng = np.random.default_rng(45)
        x_t = rng.integers(0, 2, (6, n))
        t = rng.integers(1, 6, 6)
        got = {}
        for form, cond in conds.items():
            before = ad.activation_records()
            leaves = ad.leaves(policy.params)
            probs, value = policy.probs_and_value_from(leaves, x_t, t, cond)
            tsum(bernoulli_log_q(x_t, probs) * value).backward()
            got[form] = (ad.activation_records() - before, policy.probs(x_t, t, cond),
                         policy.value(x_t, t, cond), grads_to_vec(ad.collect_grads(leaves)))
        assert got["dense"][0] == got["sparse"][0]
        for dense, sparse in zip(got["dense"][1:], got["sparse"][1:]):
            assert rel_err(dense, sparse) <= 1e-12

    def test_dense_calls_cache_no_operator(self, monkeypatch):
        conds = self._both_forms("dense", monkeypatch)
        policy = make_policy(GnnSpec(n_hidden=8, n_message_passing=2, value_head=True), 5, seed=46)
        for cond in conds.values():
            for rows in (1, 16, 30):
                x_t = np.zeros((rows, cond.n_bits), dtype=np.int8)
                policy.probs_and_value_from(policy.params, x_t, 2, cond)
                policy.value_from(ad.leaves(policy.params), x_t, 2, cond)
        assert conds["dense"]._kron == {}
        assert list(conds["sparse"]._kron) == [16, 30]  # the two latest copy counts

    def test_sparse_cache_keeps_the_two_latest_copy_counts(self):
        cond = GraphCondition(self._graph("sparse"))
        rng = np.random.default_rng(47)
        for copies, cached in ((3, [3]), (5, [3, 5]), (3, [5, 3]), (7, [3, 7]), (5, [7, 5])):
            x = rng.standard_normal((copies * cond.n_bits, 4))
            fresh = sp.kron(sp.identity(copies, format="csr"), cond._sparse, format="csr")
            assert np.array_equal(cond.aggregate(x, copies), fresh @ x)
            assert list(cond._kron) == cached
