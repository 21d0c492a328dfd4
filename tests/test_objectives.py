import math
import tracemalloc

import numpy as np
import pytest

from bitdiff import autodiff as ad
from bitdiff.autodiff import tsum
from bitdiff.config import RunConfig
from bitdiff.diffusion import NoiseSchedule, exp_schedule, sample_reverse_path
from bitdiff.energies import BoltzmannTarget, SpinCouplingModel
from bitdiff.nets import MlpPolicy, MlpSpec
from bitdiff.objectives import (
    RewardNormalizer,
    build_buffer,
    diffuco_loss_grad,
    fkl_importance_weights,
    fkl_mc_grad,
    minibatch_plan,
    normalize_advantages,
    ppo_minibatch_grad,
    rl_rewards,
    td_lambda_targets,
)
from bitdiff.train import anneal_temperature
from bitdiff.unbiased import effective_sample_size, self_normalize

from oracles import (
    all_paths,
    exact_joint_kl,
    exact_policy_gradient,
    finite_diff_grads,
    grads_to_vec,
    rel_err,
    teacher_forced_batch,
)
from toy_policies import ConstantPolicy, KernelPolicy


def make_policy(n_bits, t_steps, seed=0, scale=0.4, value_head=False, hidden=(6,)):
    policy = MlpPolicy.init(MlpSpec(n_bits=n_bits, hidden=hidden, value_head=value_head),
                            t_steps, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for k in policy.params:
        if k.startswith(("wv", "bv")):
            continue  # keep the value head at its zero-output initialization
        policy.params[k] = policy.params[k] + scale * rng.standard_normal(
            policy.params[k].shape
        )
    return policy


def small_target(n_bits, beta=0.9):
    edges = [(i, i + 1) for i in range(n_bits - 1)]
    coups = [0.8 - 0.3 * i for i in range(len(edges))]
    return BoltzmannTarget(SpinCouplingModel(n_bits, edges, coups), beta)


def identity_normalizer():
    return RewardNormalizer(rate=0.0, mean=0.0, var=1.0, initialized=True)


class TestAnneal:
    def test_linear_hits_zero(self):
        cfg = RunConfig(anneal="linear_to_zero", epochs=10, t_start=3.0)
        assert anneal_temperature(cfg, 10) == 0.0
        assert anneal_temperature(cfg, 15) == 0.0
        assert anneal_temperature(cfg, 0) == 3.0

    def test_ising_decay_limit(self):
        beta_c = 0.4407
        cfg = RunConfig(anneal="ising_decay", epochs=100, anneal_h=5.0, beta=beta_c)
        assert anneal_temperature(cfg, 10 ** 7) == pytest.approx(1.0 / beta_c, rel=1e-9)

    def test_ising_decay_hand_value_at_zero(self):
        # T(n) = target / (1 - 0.998^(h*(n+1))): at n=0, h=1 the exponent is 1
        beta_c = 0.5
        cfg = RunConfig(anneal="ising_decay", epochs=10, anneal_h=1.0, beta=beta_c)
        assert anneal_temperature(cfg, 0) == pytest.approx((1 / beta_c) / (1 - 0.998))

    def test_temperature_non_increasing(self):
        cfg = RunConfig(anneal="ising_decay", epochs=50, anneal_h=3.0, beta=0.5)
        temps = [anneal_temperature(cfg, n) for n in range(200)]
        assert np.all(np.diff(temps) <= 0)


class TestRewards:
    def test_temperature_zero_terminal_only(self):
        n_bits, t_steps = 3, 4
        policy = make_policy(n_bits, t_steps)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=1.0)
        paths = sample_reverse_path(policy, sched, 6, np.random.default_rng(0))
        # annealed convention: temperature*beta == 1 even at temperature -> 0
        tiny = 1e-9
        r = rl_rewards(paths, target.energy(paths.x0), BoltzmannTarget(target.model, 1.0 / tiny),
                       sched, tiny)
        assert np.allclose(r[:, :-1], 0.0, atol=1e-7)
        assert np.allclose(r[:, -1], -target.model.energy(paths.x0), atol=1e-6)

    def test_matched_kernel_cancels_ratio(self):
        n_bits, t_steps = 3, 4
        sched = exp_schedule(t_steps)
        policy = KernelPolicy(n_bits, sched)
        target = BoltzmannTarget(SpinCouplingModel(n_bits, [], []), 1.0)
        paths = sample_reverse_path(policy, sched, 5, np.random.default_rng(1))
        r = rl_rewards(paths, target.energy(paths.x0), target, sched, temperature=0.7)
        assert np.allclose(r[:, :-1], 0.0, atol=1e-10)

    def test_single_step_hand_value(self):
        n_bits, t_steps = 1, 1
        sched = NoiseSchedule(np.array([0.3]))
        policy = ConstantPolicy(n_bits, t_steps, 0.6)
        paths = sample_reverse_path(policy, sched, 20, np.random.default_rng(2))
        model = SpinCouplingModel(1, [], [])

        class Field:
            n_sites = 1

            def energy(self, x):
                return 2.0 * np.asarray(x)[..., 0] - 1.0

        target = BoltzmannTarget(Field(), 2.0)
        temp = 0.5
        r = rl_rewards(paths, target.energy(paths.x0), target, sched, temp)
        for i in range(20):
            x1, x0 = paths.states[i, 1, 0], paths.states[i, 0, 0]
            logp = math.log(0.3) if x1 != x0 else math.log(0.7)
            logq = math.log(0.6) if x0 == 1 else math.log(0.4)
            h0 = 2.0 * x0 - 1.0
            assert r[i, 0] == pytest.approx(temp * (logp - logq) - temp * 2.0 * h0)

    def test_reward_count_is_t_steps(self):
        policy = make_policy(2, 5)
        sched = exp_schedule(5)
        paths = sample_reverse_path(policy, sched, 3, np.random.default_rng(3))
        target = small_target(2)
        r = rl_rewards(paths, target.energy(paths.x0), target, sched, 1.0)
        assert r.shape == (3, 5)

    @pytest.mark.parametrize("call", [
        lambda policy, target, sched, paths: rl_rewards(
            paths, target.energy(paths.x0), target, sched, 1.0),
        lambda policy, target, sched, paths: diffuco_loss_grad(
            policy, target, sched, paths, target.energy(paths.x0), 1.0),
    ], ids=["rl_rewards", "diffuco_loss_grad"])
    def test_schedule_longer_than_paths_rejected(self, call):
        policy = make_policy(2, 3)
        paths = sample_reverse_path(policy, exp_schedule(3), 4, np.random.default_rng(4))
        with pytest.raises(ValueError, match="number of steps"):
            call(policy, small_target(2), exp_schedule(5), paths)


class TestTdLambda:
    def test_lambda_one_full_return(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal((4, 6))
        values = rng.standard_normal((4, 6))
        returns, adv = td_lambda_targets(rewards, values, trace_decay=1.0)
        mc = np.cumsum(rewards[:, ::-1], axis=1)[:, ::-1]
        assert np.allclose(returns, mc, atol=1e-12)
        assert np.allclose(adv, mc - values, atol=1e-12)

    def test_lambda_zero_one_step(self):
        rng = np.random.default_rng(1)
        rewards = rng.standard_normal((3, 5))
        values = rng.standard_normal((3, 5))
        returns, _ = td_lambda_targets(rewards, values, trace_decay=0.0)
        for k in range(5):
            v_next = values[:, k + 1] if k < 4 else 0.0
            assert np.allclose(returns[:, k], rewards[:, k] + v_next, atol=1e-12)

    def test_three_step_hand_expansion(self):
        # constant reward r, zero values, lambda = 0.5:
        # G_0 = (1-l)(G1 + l*G2) + l^2*G3 = 0.5(r + 2*l*r) + 0.75*... = 1.75r
        r, lam = 2.0, 0.5
        rewards = np.full((1, 3), r)
        values = np.zeros((1, 3))
        returns, _ = td_lambda_targets(rewards, values, trace_decay=lam)
        g1, g2, g3 = r, 2 * r, 3 * r
        want0 = (1 - lam) * (g1 + lam * g2) + lam ** 2 * g3
        want1 = (1 - lam) * g1 + lam * g2
        assert returns[0, 0] == pytest.approx(want0)  # 1.75 r
        assert returns[0, 1] == pytest.approx(want1)  # 1.5 r
        assert returns[0, 2] == pytest.approx(r)

    def test_advantage_normalization(self):
        rng = np.random.default_rng(2)
        adv = rng.standard_normal((8, 7)) * 3 + 1
        n = normalize_advantages(adv)
        assert abs(n.mean()) < 1e-6
        assert abs(n.var() - 1.0) < 1e-6
        tiny = normalize_advantages(np.full((2, 2), 5.0))
        assert np.allclose(tiny, 0.0)

    def test_buffer_advantages_normalized(self):
        n_bits, t_steps = 3, 4
        policy = make_policy(n_bits, t_steps, value_head=True)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits)
        cfg = RunConfig()
        paths = sample_reverse_path(policy, sched, 24, np.random.default_rng(30))
        buf = build_buffer(policy, paths, target.energy(paths.x0), target, sched, 0.9, cfg,
                           RewardNormalizer(rate=0.01))
        assert buf.returns.shape == buf.advantages.shape == (24, t_steps)
        assert abs(buf.advantages.mean()) < 1e-6
        assert abs(buf.advantages.var() - 1.0) < 1e-6
        assert buf.path_weights.sum() == pytest.approx(1.0)

    def test_reward_scaling_invariance(self):
        # scaling all raw rewards by c > 0 leaves normalized advantages unchanged
        n_bits, t_steps = 3, 4
        policy = make_policy(n_bits, t_steps, value_head=True)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits)
        cfg = RunConfig()
        paths = sample_reverse_path(policy, sched, 16, np.random.default_rng(4))

        advs = []
        for c in (1.0, 7.3):
            raw = rl_rewards(paths, target.energy(paths.x0), target, sched, 0.8) * c
            normalizer = RewardNormalizer(rate=0.01)
            normalizer.update(raw)
            rew = normalizer.normalize(raw)
            values = np.zeros_like(rew)
            _, adv = td_lambda_targets(rew, values, cfg.trace_decay)
            advs.append(normalize_advantages(adv))
        assert np.allclose(advs[0], advs[1], atol=1e-10)


class TestMinibatchPlan:
    def test_partition_covers_all_pairs_once(self):
        rng = np.random.default_rng(0)
        plan = minibatch_plan(10, 8, n_path_mb=4, n_t_mb=3, rng=rng)
        seen = set()
        for group, t_idx in plan:
            for i, row in zip(group, t_idx):
                for k in row:
                    pair = (int(i), int(k))
                    assert pair not in seen
                    seen.add(pair)
        assert len(seen) == 10 * 8

    def test_minibatch_bound(self):
        with pytest.raises(ValueError):
            minibatch_plan(4, 3, 2, 5, np.random.default_rng(0))


class TestPpo:
    def _setup(self, n_bits=2, t_steps=2, beta=0.9, temp=0.7, seed=0):
        policy = make_policy(n_bits, t_steps, seed=seed, value_head=True)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=beta)
        return policy, sched, target, temp

    def test_fresh_ratio_clip_inactive(self):
        policy, sched, target, temp = self._setup()
        paths = sample_reverse_path(policy, sched, 12, np.random.default_rng(5))
        cfg = RunConfig()
        buf = build_buffer(policy, paths, target.energy(paths.x0), target, sched, temp, cfg,
                           identity_normalizer())
        _, _, stats = ppo_minibatch_grad(
            policy, buf, cfg, np.arange(12), np.tile(np.arange(2), (12, 1))
        )
        assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert stats["clip_fraction"] == 0.0

    def test_clipped_sample_contributes_no_policy_gradient(self):
        # positive advantage, ratio above 1+clip: the min picks the flat branch
        policy, sched, target, temp = self._setup(seed=3)
        paths = sample_reverse_path(policy, sched, 4, np.random.default_rng(6))
        cfg = RunConfig(clip=0.2, value_weight=0.0)
        buf = build_buffer(policy, paths, target.energy(paths.x0), target, sched, temp, cfg,
                           identity_normalizer())
        buf.advantages[:] = 1.0
        buf.paths.step_logq[:] = buf.paths.step_logq - 1.0  # inflate the ratio to e > 1.2
        _, grads, stats = ppo_minibatch_grad(
            policy, buf, cfg, np.arange(4), np.tile(np.arange(2), (4, 1))
        )
        assert stats["clip_fraction"] == 1.0
        assert max(np.abs(g).max() for g in grads.values()) < 1e-12

    def test_full_batch_matches_exact_policy_gradient(self):
        # enumerate every path, weight by its exact probability, use the raw
        # advantages (returns minus the sampling-time values): the update
        # equals the exact gradient
        policy, sched, target, temp = self._setup(n_bits=2, t_steps=2, seed=1)
        states = all_paths(2, 2)
        batch = teacher_forced_batch(policy, states)
        probs = np.exp(batch.log_q)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        cfg = RunConfig(clip=0.2, value_weight=0.0, trace_decay=1.0)
        buf = build_buffer(policy, batch, target.energy(batch.x0), target, sched, temp, cfg,
                           identity_normalizer())
        values = np.column_stack([policy.value(batch.states[:, 2 - k], 2 - k) for k in range(2)])
        buf.advantages[:] = buf.returns - values
        buf.path_weights[:] = probs
        m = batch.n_paths
        _, grads, _ = ppo_minibatch_grad(
            policy, buf, cfg, np.arange(m), np.tile(np.arange(2), (m, 1))
        )
        exact = exact_policy_gradient(policy, target, sched, temp)
        assert rel_err(grads_to_vec(grads), grads_to_vec(exact)) < 1e-6

    def test_buffer_takes_the_recorded_values(self):
        policy, sched, target, temp = self._setup(seed=2)
        rng = np.random.default_rng(10)
        for k in ("wv2", "bv2"):  # off the value head's zero output
            policy.params[k] = rng.standard_normal(policy.params[k].shape)
        paths = sample_reverse_path(policy, sched, 6, np.random.default_rng(9))
        cfg = RunConfig()
        buf = build_buffer(policy, paths, target.energy(paths.x0), target, sched, temp, cfg,
                           identity_normalizer())
        rewards = rl_rewards(paths, target.energy(paths.x0), target, sched, temp)
        values = np.column_stack([policy.value(paths.states[:, 2 - k], 2 - k) for k in range(2)])
        assert np.abs(values).min() > 0
        want, _ = td_lambda_targets(rewards, values, cfg.trace_decay)
        assert np.array_equal(buf.returns, want)

    def test_buffer_refuses_value_head_paths_without_values(self):
        policy, sched, target, temp = self._setup()
        paths = sample_reverse_path(policy, sched, 4, np.random.default_rng(5))
        paths.values = None
        with pytest.raises(ValueError, match="value head"):
            build_buffer(policy, paths, target.energy(paths.x0), target, sched, temp,
                         RunConfig(), identity_normalizer())

    def test_stale_buffer_ratio_guard(self):
        policy, sched, target, temp = self._setup(seed=7)
        paths = sample_reverse_path(policy, sched, 4, np.random.default_rng(8))
        cfg = RunConfig()
        buf = build_buffer(policy, paths, target.energy(paths.x0), target, sched, temp, cfg,
                           identity_normalizer())
        buf.paths.step_logq[:] = -np.inf
        with pytest.raises(FloatingPointError):
            ppo_minibatch_grad(policy, buf, cfg, np.arange(4),
                               np.tile(np.arange(2), (4, 1)))


class TestPolicyGradientIdentity:
    @pytest.mark.parametrize("n_bits,t_steps,seed", [(2, 1, 0), (2, 2, 1), (3, 2, 2)])
    def test_exact_expectation_matches_kl_finite_differences(self, n_bits, t_steps, seed):
        policy = make_policy(n_bits, t_steps, seed=seed, scale=0.5)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=0.8)
        temp = 0.9
        exact = exact_policy_gradient(policy, target, sched, temp)
        fd = finite_diff_grads(
            lambda: exact_joint_kl(policy, target, sched, temp), policy.params
        )
        assert rel_err(grads_to_vec(exact), grads_to_vec(fd)) < 1e-5

    def test_entropy_reward_term_has_zero_expected_gradient(self):
        # sum over paths of q(path) * grad log q(path) == 0
        for n_bits, t_steps in ((2, 2), (3, 1)):
            policy = make_policy(n_bits, t_steps, seed=9, scale=0.6)
            states = all_paths(n_bits, t_steps)
            batch = teacher_forced_batch(policy, states)
            w = np.exp(batch.log_q)
            leaves = ad.leaves(policy.params)
            total = None
            for t in range(t_steps, 0, -1):
                q = policy.probs_from(leaves, states[:, t], t)
                bits = states[:, t - 1].astype(np.float64)
                logq = tsum(bits * ad.log(q) + (1 - bits) * ad.log(1 - q), axis=-1)
                total = logq if total is None else total + logq
            tsum(total * w).backward()
            grads = ad.collect_grads(leaves)
            assert max(np.abs(g).max() for g in grads.values()) < 1e-10


class TestFklMc:
    def test_perfect_proposal_uniform_weights(self):
        n_bits, t_steps = 3, 4
        sched = exp_schedule(t_steps)
        policy = KernelPolicy(n_bits, sched)
        target = BoltzmannTarget(SpinCouplingModel(n_bits, [], []), 0.0)
        paths = sample_reverse_path(policy, sched, 64, np.random.default_rng(0))
        log_w, sums = fkl_importance_weights(paths, target.energy(paths.x0), target, sched)
        assert np.allclose(self_normalize(log_w), 1.0 / 64, atol=1e-12)
        assert effective_sample_size(sums) == pytest.approx(1.0, abs=1e-12)

    def test_two_weight_softmax(self):
        logw = np.array([0.0, math.log(3.0)])
        shifted = np.exp(logw - logw.max())
        w = shifted / shifted.sum()
        assert np.allclose(w, [0.25, 0.75])
        # and through the library path, via a crafted pair of paths
        n_bits, t_steps = 1, 1
        sched = NoiseSchedule(np.array([0.5]))
        policy = ConstantPolicy(n_bits, t_steps, 0.5)
        paths = sample_reverse_path(policy, sched, 2, np.random.default_rng(1))

        class Tilt:
            n_sites = 1

            def energy(self, x):
                return np.asarray(x, dtype=np.float64)[..., 0]

        target = BoltzmannTarget(Tilt(), math.log(3.0))
        paths.states[0, 0, 0] = 1
        paths.states[1, 0, 0] = 0
        log_w, sums = fkl_importance_weights(paths, target.energy(paths.x0), target, sched)
        assert np.allclose(self_normalize(log_w), [0.25, 0.75], atol=1e-12)
        # (1/4 + 3/4)^2 / (2 * (1/16 + 9/16)) = 0.8
        assert effective_sample_size(sums) == pytest.approx(0.8, rel=1e-12)

    def test_full_batch_equals_direct_weighted_gradient(self):
        n_bits, t_steps = 2, 3
        policy = make_policy(n_bits, t_steps, seed=4)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=0.7)
        paths = sample_reverse_path(policy, sched, 10, np.random.default_rng(2))
        log_w = fkl_importance_weights(paths, target.energy(paths.x0), target, sched).log_w
        all_k = np.tile(np.arange(t_steps), (10, 1))
        _, grads, weights = fkl_mc_grad(policy, paths, log_w, np.arange(10), all_k)

        # direct: gradient of -sum_i w_i log q(path_i), weights constant
        leaves = ad.leaves(policy.params)
        total = None
        for t in range(t_steps, 0, -1):
            q = policy.probs_from(leaves, paths.states[:, t], t)
            bits = paths.states[:, t - 1].astype(np.float64)
            logq = tsum(bits * ad.log(q) + (1 - bits) * ad.log(1 - q), axis=-1)
            total = logq if total is None else total + logq
        ((-1.0) * tsum(total * weights)).backward()
        direct = ad.collect_grads(leaves)
        assert rel_err(grads_to_vec(grads), grads_to_vec(direct)) < 1e-10

    def test_single_timestep_minibatches_average_to_full_gradient(self):
        n_bits, t_steps = 2, 3
        policy = make_policy(n_bits, t_steps, seed=5)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=0.6)
        paths = sample_reverse_path(policy, sched, 8, np.random.default_rng(3))
        log_w = fkl_importance_weights(paths, target.energy(paths.x0), target, sched).log_w
        all_k = np.tile(np.arange(t_steps), (8, 1))
        _, full, _ = fkl_mc_grad(policy, paths, log_w, np.arange(8), all_k)
        acc = None
        for t in range(1, t_steps + 1):
            k_idx = np.full((8, 1), t_steps - t)
            _, g, _ = fkl_mc_grad(policy, paths, log_w, np.arange(8), k_idx)
            acc = g if acc is None else {k: acc[k] + g[k] for k in g}
        avg = {k: v / t_steps for k, v in acc.items()}
        assert rel_err(grads_to_vec(avg), grads_to_vec(full)) < 1e-8

    def test_perfect_proposal_gradient_shrinks_with_m(self):
        n_bits, t_steps = 3, 3
        sched = exp_schedule(t_steps)
        target = BoltzmannTarget(SpinCouplingModel(n_bits, [], []), 0.0)
        norms = {}
        for m in (100, 1000, 10000):
            acc = 0.0
            for rep in range(3):
                policy = KernelPolicy(n_bits, sched)
                paths = sample_reverse_path(
                    policy, sched, m, np.random.default_rng(97 * m + rep)
                )
                log_w = fkl_importance_weights(paths, target.energy(paths.x0), target, sched).log_w
                all_k = np.tile(np.arange(t_steps), (m, 1))
                _, grads, _ = fkl_mc_grad(policy, paths, log_w, np.arange(m), all_k)
                acc += np.linalg.norm(grads_to_vec(grads))
            norms[m] = acc / 3
        assert norms[10000] < norms[100] / 3
        assert norms[1000] < norms[100]

    def test_all_weights_underflow_guard(self):
        n_bits, t_steps = 2, 1
        sched = NoiseSchedule(np.array([0.5]))
        policy = ConstantPolicy(n_bits, t_steps, 0.5)
        paths = sample_reverse_path(policy, sched, 3, np.random.default_rng(4))
        with pytest.raises(FloatingPointError):
            fkl_importance_weights(paths, np.full(3, np.inf), small_target(2), sched)


class TestRecordsInT:
    def test_step_objectives_flat_and_diffuco_linear_in_t(self):
        # at a fixed (4 paths x 2 steps) minibatch the step objectives store
        # the same tape at any number of diffusion steps; diffuco traces
        # every step, so each added step adds the same records and bytes
        m, tau = 4, 2
        path_idx, k_idx = np.arange(m), np.tile(np.arange(tau), (m, 1))
        cfg = RunConfig()
        records = {"fkl_mc": [], "ppo": [], "diffuco": []}
        n_bytes = {"fkl_mc": [], "ppo": [], "diffuco": []}

        def count(name, grad, *args):
            ad.reset_activation_records()
            grad(*args)
            records[name].append(ad.activation_records())
            n_bytes[name].append(ad.activation_bytes())

        for t_steps in (8, 32, 128, 512):
            policy = make_policy(4, t_steps, seed=1, value_head=True)
            sched = exp_schedule(t_steps)
            target = small_target(4)
            paths = sample_reverse_path(policy, sched, m, np.random.default_rng(2))
            energy = target.energy(paths.x0)
            log_w = fkl_importance_weights(paths, energy, target, sched).log_w
            count("fkl_mc", fkl_mc_grad, policy, paths, log_w, path_idx, k_idx)
            buf = build_buffer(policy, paths, energy, target, sched, 1.0, cfg,
                               identity_normalizer())
            count("ppo", ppo_minibatch_grad, policy, buf, cfg, path_idx, k_idx)
            count("diffuco", diffuco_loss_grad, policy, target, sched, paths, energy, 1.0)
        for counts in (records, n_bytes):
            assert len(set(counts["fkl_mc"])) == 1, counts
            assert len(set(counts["ppo"])) == 1, counts
            d8, d32, d128, d512 = counts["diffuco"]
            assert (d32 - d8) * 4 == d128 - d32 > 0, counts
            assert (d128 - d32) * 4 == d512 - d128, counts

    def test_tracemalloc_peak_holds_the_counted_bytes(self):
        # numpy reports its buffers to tracemalloc, and outside an Arena each
        # tape array is its own allocation: the peak around one gradient call
        # holds at least the bytes `activation_bytes` counts for its tape
        m, tau, t_steps = 64, 4, 16
        policy = make_policy(6, t_steps, seed=3, hidden=(32, 32))
        sched = exp_schedule(t_steps)
        target = small_target(6)
        paths = sample_reverse_path(policy, sched, m, np.random.default_rng(4))
        log_w = fkl_importance_weights(paths, target.energy(paths.x0), target, sched).log_w
        k_idx = np.tile(np.arange(tau), (m, 1))
        ad.reset_activation_records()
        tracemalloc.start()
        try:
            fkl_mc_grad(policy, paths, log_w, np.arange(m), k_idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= ad.activation_bytes() > m * tau * 32 * 8, (peak, ad.activation_bytes())


class TestDiffuco:
    def test_temperature_zero_reduces_to_energy_expectation(self):
        n_bits, t_steps = 2, 2
        policy = make_policy(n_bits, t_steps, seed=6)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=1.0)
        states = all_paths(n_bits, t_steps)
        batch = teacher_forced_batch(policy, states)
        probs = np.exp(batch.log_q)
        tiny = 1e-9
        _, grads, _ = diffuco_loss_grad(
            policy, BoltzmannTarget(target.model, 1.0 / tiny), sched, batch,
            target.energy(batch.x0), tiny, path_weights=probs,
        )

        def mean_energy():
            b = teacher_forced_batch(policy, states)
            return float(np.exp(b.log_q) @ target.model.energy(b.x0))

        fd = finite_diff_grads(mean_energy, policy.params, h=1e-4, order=4)
        assert rel_err(grads_to_vec(grads), grads_to_vec(fd)) < 1e-6

    def test_enumerated_estimator_matches_kl_gradient(self):
        n_bits, t_steps = 2, 2
        policy = make_policy(n_bits, t_steps, seed=7, scale=0.5)
        sched = exp_schedule(t_steps)
        target = small_target(n_bits, beta=1.25)
        temp = 0.8
        states = all_paths(n_bits, t_steps)
        batch = teacher_forced_batch(policy, states)
        probs = np.exp(batch.log_q)
        _, grads, _ = diffuco_loss_grad(policy, target, sched, batch, target.energy(batch.x0),
                                        temp, path_weights=probs)
        fd = finite_diff_grads(
            lambda: exact_joint_kl(policy, target, sched, temp),
            policy.params, h=1e-3, order=4,
        )
        assert rel_err(grads_to_vec(grads), grads_to_vec(fd)) < 1e-8

    def test_uniform_policy_entropy_term_gradient_vanishes(self):
        # dS/dq = 0 at q = 0.5, so the direct entropy-term gradient is zero
        # for a policy frozen at the uniform output
        n_bits, t_steps = 3, 2
        policy = MlpPolicy.init(MlpSpec(n_bits=n_bits, hidden=(6,)), t_steps, seed=8)
        sched = exp_schedule(t_steps)
        paths = sample_reverse_path(policy, sched, 32, np.random.default_rng(5))
        from bitdiff.nets import bernoulli_entropy

        leaves = ad.leaves(policy.params)
        total = None
        for t in range(t_steps, 0, -1):
            ent = bernoulli_entropy(policy.probs_from(leaves, paths.states[:, t], t))
            total = ent if total is None else total + ent
        tsum(total).backward()
        grads = ad.collect_grads(leaves)
        assert max(np.abs(g).max() for g in grads.values()) < 1e-12

    def test_enumerated_estimator_unbiased_at_beta_zero(self):
        # with the exact path weights the full estimator (entropy term plus
        # centered score term) matches the KL gradient at beta = 0 too
        n_bits, t_steps = 2, 2
        policy = make_policy(n_bits, t_steps, seed=11, scale=0.4)
        sched = exp_schedule(t_steps)
        target = BoltzmannTarget(SpinCouplingModel(n_bits, [], []), 0.0)
        states = all_paths(n_bits, t_steps)
        batch = teacher_forced_batch(policy, states)
        probs = np.exp(batch.log_q)
        _, grads, _ = diffuco_loss_grad(policy, target, sched, batch, target.energy(batch.x0),
                                        1.0, path_weights=probs)
        fd = finite_diff_grads(
            lambda: exact_joint_kl(policy, target, sched, 1.0),
            policy.params, h=1e-3, order=4,
        )
        assert rel_err(grads_to_vec(grads), grads_to_vec(fd)) < 1e-8
