import math
from types import SimpleNamespace

import numpy as np
import pytest

from bitdiff.diffusion import (
    PROB_CLIP,
    NoiseSchedule,
    PathBatch,
    bernoulli_logpmf,
    exp_schedule,
    forward_step_logp,
    path_log_p_hat,
    path_log_q,
    sample_reverse_path,
    stationary_logprob,
)
from bitdiff.energies import BoltzmannTarget, SpinCouplingModel
from bitdiff.graphs import gen_ba
from bitdiff.nets import GnnSpec, GraphCondition, MlpSpec, make_policy

from oracles import (
    all_paths,
    bernoulli_logpmf_direct,
    forward_step_logp_direct,
    teacher_forced_batch,
)
from toy_policies import ConstantPolicy


class TestSchedule:
    def test_endpoints(self):
        sched = exp_schedule(10)
        assert sched.beta(10) == 0.5
        assert sched.beta(5) == 0.0625  # 0.5 * 2^-3, exact

    def test_formal_t0_value(self):
        # the closed form at t=0 (never used by the process itself)
        assert 0.5 * 2.0 ** -6.0 == 0.0078125

    def test_strictly_increasing(self):
        sched = exp_schedule(37)
        assert np.all(np.diff(sched.betas) > 0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.6]))
        with pytest.raises(ValueError):
            exp_schedule(0)


def one_step_logp(x_t, x_prev, beta_t: float) -> np.ndarray:
    """log p(X_1 | X_0) by `forward_step_logp` on one-step paths X_0 = x_prev,
    X_1 = x_t (broadcast against each other)."""
    x_t, x_prev = np.broadcast_arrays(np.asarray(x_t, dtype=np.int8),
                                      np.asarray(x_prev, dtype=np.int8))
    m = len(x_t)
    batch = PathBatch(np.stack([x_prev, x_t], axis=1), np.zeros((m, 1)), np.zeros(m))
    return forward_step_logp(batch, NoiseSchedule(np.array([beta_t])))[:, 0]


class TestForwardKernel:
    def test_identical_states(self):
        x = np.zeros((1, 3), dtype=np.int8)
        assert one_step_logp(x, x, 0.1) == pytest.approx(3 * math.log(0.9))

    def test_all_flipped(self):
        x = np.zeros((1, 3), dtype=np.int8)
        y = np.ones((1, 3), dtype=np.int8)
        assert one_step_logp(y, x, 0.1) == pytest.approx(3 * math.log(0.1))

    def test_uniform_at_half(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, (5, 4))
        b = rng.integers(0, 2, (5, 4))
        assert np.allclose(one_step_logp(a, b, 0.5), 4 * math.log(0.5))

    def test_normalization(self):
        # sum over all x_t of p(x_t | x_prev) is 1, for small n
        from bitdiff.energies import all_states

        states = all_states(4)
        for beta in (0.05, 0.3, 0.5):
            lp = one_step_logp(states, np.zeros(4, dtype=np.int8), beta)
            assert np.exp(lp).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,t_steps,n", [(1, 1, 1), (7, 5, 3), (64, 24, 16), (300, 3, 37)])
    def test_matches_per_step_formula_exactly(self, m, t_steps, n):
        """The one-pass flip count gives the same bits as scoring each step
        on its own."""
        rng = np.random.default_rng(m + n)
        states = rng.integers(0, 2, (m, t_steps + 1, n), dtype=np.int8)
        batch = PathBatch(states, np.zeros((m, t_steps)), np.zeros(m))
        for sched in (exp_schedule(t_steps), NoiseSchedule(rng.uniform(1e-6, 0.5, t_steps))):
            assert np.array_equal(forward_step_logp(batch, sched),
                                  forward_step_logp_direct(states, sched.betas))

    def test_rejects_a_schedule_of_another_length(self):
        batch = PathBatch(np.zeros((2, 4, 3), dtype=np.int8), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            forward_step_logp(batch, exp_schedule(2))


class TestForwardPath:
    def test_marginal_normalization(self):
        # sum over all forward trajectories of exp(log p(X_{1:T}|X_0)) == 1
        sched = exp_schedule(3)
        n_bits = 2
        paths = all_paths(n_bits, 3).astype(np.int8)
        batch = PathBatch(paths, np.zeros((len(paths), 3)), np.zeros(len(paths)))
        logp = forward_step_logp(batch, sched).sum(axis=1)
        for x0_int in range(1 << n_bits):
            # fix X_0, enumerate X_{1:T}
            sel = np.all(paths[:, 0] == paths[x0_int * (4 ** 3), 0], axis=1)
            total = sum(math.exp(lp) for lp in logp[sel])
            assert total == pytest.approx(1.0, abs=1e-10)


class TestBernoulliLogpmf:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (33, 16), (1000, 13)])
    def test_matches_product_form_exactly(self, shape):
        """Selecting log p or log1p(-p) per bit gives the same bits as
        bits*log p + (1-bits)*log1p(-p) on clipped probabilities."""
        rng = np.random.default_rng(shape[0])
        probs = rng.uniform(0.0, 1.0, shape)
        probs.flat[::5] = PROB_CLIP
        probs.flat[1::7] = 1.0 - PROB_CLIP
        probs.flat[2::11] = 0.5
        probs = np.clip(probs, PROB_CLIP, 1.0 - PROB_CLIP)
        bits = rng.integers(0, 2, shape, dtype=np.int8)
        want = bernoulli_logpmf_direct(bits, probs)
        for given in (bits, bits.astype(bool), bits.astype(np.float64)):
            assert np.array_equal(bernoulli_logpmf(given, probs), want)


class TestStationary:
    def test_values(self):
        assert stationary_logprob(np.zeros(1)) == pytest.approx(math.log(0.5))
        assert stationary_logprob(np.ones(16)) == pytest.approx(16 * math.log(0.5))

    def test_independent_of_bits(self):
        rng = np.random.default_rng(3)
        a = stationary_logprob(rng.integers(0, 2, (5, 7)))
        assert np.allclose(a, 7 * math.log(0.5))


class TestReversePath:
    def test_uniform_policy_log_q(self):
        n_bits, t_steps = 4, 5
        policy = ConstantPolicy(n_bits, t_steps, 0.5)
        sched = exp_schedule(t_steps)
        paths = sample_reverse_path(policy, sched, 8, np.random.default_rng(0))
        expected = (t_steps + 1) * n_bits * math.log(0.5)
        assert np.allclose(paths.log_q, expected, atol=1e-12)

    def test_near_deterministic_policy(self):
        policy = ConstantPolicy(6, 4, 1 - 1e-9)
        sched = exp_schedule(4)
        paths = sample_reverse_path(policy, sched, 50, np.random.default_rng(1))
        assert np.all(paths.x0 == 1)

    def test_stored_logs_match_recomputation(self):
        from bitdiff.nets import MlpPolicy, MlpSpec

        policy = MlpPolicy.init(MlpSpec(n_bits=5, hidden=(8, 8)), 6, seed=0)
        # break the uniform-output init so the check is non-trivial
        rng = np.random.default_rng(4)
        policy.params["w_out"] = 0.7 * rng.standard_normal(policy.params["w_out"].shape)
        sched = exp_schedule(6)
        paths = sample_reverse_path(policy, sched, 16, np.random.default_rng(5))
        recomputed = path_log_q(policy, paths)
        assert np.allclose(recomputed, paths.log_q, atol=1e-12)

    def test_keeps_last_step_probabilities(self):
        from bitdiff.nets import MlpPolicy, MlpSpec

        policy = MlpPolicy.init(MlpSpec(n_bits=5, hidden=(8, 8)), 6, seed=0)
        policy.params["w_out"] = np.random.default_rng(4).standard_normal(
            policy.params["w_out"].shape)
        paths = sample_reverse_path(policy, exp_schedule(6), 16, np.random.default_rng(5))
        assert np.array_equal(paths.x0_probs, policy.probs(paths.states[:, 1], 1))

    def test_policy_emitting_invalid_probability(self):
        class BadPolicy(ConstantPolicy):
            def probs(self, x_t, t, condition=None):
                return np.ones(np.asarray(x_t).shape)  # exactly 1: invalid

        with pytest.raises(ValueError):
            sample_reverse_path(BadPolicy(3, 2), exp_schedule(2), 4, np.random.default_rng(0))

    def test_value_head_policy_emitting_invalid_probability(self):
        # the probabilities of a forward that also gives values are checked alike
        class BadCritic(ConstantPolicy):
            def probs_and_value_from(self, P, x_t, t, condition=None):
                return np.ones(np.shape(x_t)), np.zeros(len(x_t))

        policy = BadCritic(3, 2)
        policy.spec = SimpleNamespace(value_head=True)
        with pytest.raises(ValueError, match="outside"):
            sample_reverse_path(policy, exp_schedule(2), 4, np.random.default_rng(0))


class TestRecordedValues:
    """For a policy with a value head the sampler records V(X_t, t) from each
    step's one forward: equal to a separate `value` call on the same rows."""

    @staticmethod
    def perturbed(spec, n_steps):
        policy = make_policy(spec, n_steps, seed=43)
        rng = np.random.default_rng(44)
        for k, v in policy.params.items():  # off the value head's zero output layer
            policy.params[k] = v + 0.5 * rng.standard_normal(v.shape)
        return policy

    def check(self, policy, n_paths, condition=None):
        paths = sample_reverse_path(policy, exp_schedule(policy.n_steps), n_paths,
                                    np.random.default_rng(7), condition)
        assert paths.values.shape == (n_paths, policy.n_steps)
        assert np.abs(paths.values).min() > 0
        for t in range(1, policy.n_steps + 1):
            want = policy.value(paths.states[:, t], t, condition)
            assert np.array_equal(paths.values[:, t - 1], want), t

    def test_mlp(self):
        self.check(self.perturbed(MlpSpec(n_bits=5, hidden=(8, 6), value_head=True), 6), 16)

    @pytest.mark.parametrize("n_nodes,attachment,dense", [(12, 4, True), (300, 2, False)],
                             ids=["dense", "sparse"])
    def test_gnn_on_both_aggregation_forms(self, n_nodes, attachment, dense):
        condition = GraphCondition(gen_ba(n_nodes, attachment, seed=41))
        assert (condition._dense is not None) == dense
        spec = GnnSpec(n_hidden=8, n_message_passing=2, value_head=True, kernel_start=True)
        self.check(self.perturbed(spec, 5), 6, condition)

    def test_no_values_without_a_value_head(self):
        policy = self.perturbed(MlpSpec(n_bits=5, hidden=(8,)), 4)
        paths = sample_reverse_path(policy, exp_schedule(4), 8, np.random.default_rng(7))
        assert paths.values is None

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="values shape"):
            PathBatch(np.zeros((2, 4, 3), dtype=np.int8), np.zeros((2, 3)), np.zeros(2),
                      values=np.zeros((2, 4)))


class TestPathLogQExactness:
    @pytest.mark.parametrize("n_bits,t_steps", [(2, 1), (3, 2), (4, 3)])
    def test_path_distribution_normalized(self, n_bits, t_steps):
        from bitdiff.nets import MlpPolicy, MlpSpec

        policy = MlpPolicy.init(MlpSpec(n_bits=n_bits, hidden=(6,)), t_steps, seed=1)
        rng = np.random.default_rng(6)
        for k in policy.params:
            policy.params[k] = policy.params[k] + 0.4 * rng.standard_normal(
                policy.params[k].shape
            )
        sched = exp_schedule(t_steps)
        states = all_paths(n_bits, t_steps)
        # the float64 policy and its float32 inference sampler
        for q in (policy, policy.sampler(t_steps)):
            batch = teacher_forced_batch(q, states)
            assert np.exp(batch.log_q).sum() == pytest.approx(1.0, abs=1e-10)


class TestPathLogPHat:
    def test_no_flip_beta_zero_target(self):
        n_bits, t_steps = 3, 4
        sched = NoiseSchedule(np.full(t_steps, 0.1))
        states = np.ones((1, t_steps + 1, n_bits), dtype=np.int8)
        batch = PathBatch(states, np.zeros((1, t_steps)), np.zeros(1))
        model = SpinCouplingModel(n_bits, [(0, 1)], [1.0])
        target = BoltzmannTarget(model, 0.0)
        got = path_log_p_hat(target, sched, batch, target.energy(batch.x0))
        assert got == pytest.approx(t_steps * n_bits * math.log(0.9))

    def test_enumeration_consistent_with_partition_sum(self):
        # summing exp(log p_hat) over all paths reproduces Z of the target
        model = SpinCouplingModel(1, [], [])
        target = BoltzmannTarget(model, 0.8)
        sched = exp_schedule(1)
        states = all_paths(1, 1)
        batch = PathBatch(states, np.zeros((4, 1)), stationary_logprob(states[:, 1]))
        total = np.exp(path_log_p_hat(target, sched, batch, target.energy(batch.x0))).sum()
        assert total == pytest.approx(2.0, abs=1e-12)  # Z = 2 states at H = 0

    def test_energy_shift_linearity(self):
        class Shifted:
            def __init__(self, base, c):
                self.base, self.c = base, c
                self.n_sites = base.n_sites

            def energy(self, x):
                return self.base.energy(x) + self.c

        base = SpinCouplingModel(3, [(0, 1), (1, 2)], [1.0, -0.5])
        sched = exp_schedule(2)
        policy = ConstantPolicy(3, 2, 0.5)
        paths = sample_reverse_path(policy, sched, 10, np.random.default_rng(7))
        beta = 0.6
        a, b = (path_log_p_hat(target, sched, paths, target.energy(paths.x0))
                for target in (BoltzmannTarget(base, beta),
                               BoltzmannTarget(Shifted(base, 2.5), beta)))
        assert np.allclose(b - a, -beta * 2.5, atol=1e-12)
