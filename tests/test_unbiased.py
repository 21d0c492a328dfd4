import math

import numpy as np
import pytest
import scipy.signal

from bitdiff.diffusion import NoiseSchedule, exp_schedule, path_log_p_hat, sample_reverse_path
from bitdiff.energies import (
    BoltzmannTarget,
    IsingLattice2D,
    SpinCouplingModel,
    all_states,
    enumerate_observables,
)
from bitdiff.unbiased import (
    PROPOSAL_ROWS,
    ConvergenceError,
    autocorr_time,
    effective_sample_size,
    nmcmc_estimate,
    nmcmc_init,
    nmcmc_run,
    nmcmc_step,
    observable_estimates,
    snis_expectation,
    snis_sample,
    snis_weights,
    snis_weights_from_logs,
)

from oracles import all_paths, autocorr_time_direct, teacher_forced_batch
from toy_policies import ConstantPolicy, KernelPolicy


class FieldModel:
    """H(x) = -x_0 on a single bit."""

    n_sites = 1

    def energy(self, x):
        return -np.asarray(x, dtype=np.float64)[..., 0]


class TestSnisWeights:
    def test_perfect_proposal_uniform_weights_and_exact_log_z(self):
        n_bits, t_steps = 2, 1
        sched = exp_schedule(t_steps)
        policy = KernelPolicy(n_bits, sched)
        target = BoltzmannTarget(SpinCouplingModel(n_bits, [], []), 0.0)
        paths = sample_reverse_path(policy, sched, 32, np.random.default_rng(0))
        ws = snis_weights(paths, target, sched)
        assert np.allclose(ws.weights, 1 / 32, atol=1e-12)
        assert ws.log_z_hat == pytest.approx(n_bits * math.log(2), abs=1e-12)

    def test_single_sample(self):
        policy = ConstantPolicy(2, 1, 0.5)
        sched = NoiseSchedule(np.array([0.5]))
        target = BoltzmannTarget(SpinCouplingModel(2, [(0, 1)], [1.0]), 0.5)
        paths = sample_reverse_path(policy, sched, 1, np.random.default_rng(1))
        ws = snis_weights(paths, target, sched)
        assert ws.weights[0] == 1.0
        assert ws.log_z_hat == pytest.approx(ws.log_w[0])

    def test_z_estimate_unbiased_vs_enumeration(self):
        # uniform-policy proposal on the open 2-spin chain: the mean of Z-hat
        # over many independent estimates approaches the exact Z
        chain = SpinCouplingModel(2, [(0, 1)], [1.0])
        target = BoltzmannTarget(chain, 1.0)
        exact = enumerate_observables(target)
        t_steps, m, reps = 2, 8, 10000
        sched = exp_schedule(t_steps)
        policy = ConstantPolicy(2, t_steps, 0.5)
        rng = np.random.default_rng(2)
        paths = sample_reverse_path(policy, sched, m * reps, rng)
        log_w = path_log_p_hat(target, sched, paths) - paths.log_q
        z_hats = np.exp(log_w).reshape(reps, m).mean(axis=1)
        stderr = z_hats.std(ddof=1) / math.sqrt(reps)
        assert abs(z_hats.mean() - exact.z) < 3 * stderr

    def test_expected_z_exact_by_enumeration(self):
        # E[Z-hat] = sum_paths q * (p_hat / q) = Z, checked path by path
        for n_bits, t_steps in ((1, 1), (2, 1)):
            policy = ConstantPolicy(n_bits, t_steps, 0.7)
            sched = NoiseSchedule(np.full(t_steps, 0.3))
            model = SpinCouplingModel(n_bits, [], []) if n_bits == 1 else SpinCouplingModel(
                n_bits, [(0, 1)], [0.9]
            )
            target = BoltzmannTarget(model, 0.8)
            batch = teacher_forced_batch(policy, all_paths(n_bits, t_steps))
            q = np.exp(batch.log_q)
            w_hat = np.exp(path_log_p_hat(target, sched, batch) - batch.log_q)
            exact = enumerate_observables(target)
            assert float(q @ w_hat) == pytest.approx(exact.z, rel=1e-12)

    def test_extreme_log_weight_spread(self):
        log_w = np.array([0.0, -700.0, 350.0, -350.0])
        ws = snis_weights_from_logs(np.zeros((4, 1), dtype=np.int8), log_w, np.zeros(4))
        assert ws.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(ws.log_z_hat)


class TestSnisExpectation:
    def test_constant_observable(self):
        ws = snis_weights_from_logs(
            np.zeros((5, 1), dtype=np.int8), np.arange(5.0), np.zeros(5)
        )
        assert snis_expectation(ws, lambda x: np.ones(len(x))) == pytest.approx(1.0)

    def test_energy_under_perfect_proposal_is_sample_mean(self):
        n_bits, t_steps = 3, 2
        sched = exp_schedule(t_steps)
        policy = KernelPolicy(n_bits, sched)
        model = SpinCouplingModel(n_bits, [(0, 1)], [1.0])
        target = BoltzmannTarget(model, 0.0)
        paths = sample_reverse_path(policy, sched, 50, np.random.default_rng(3))
        ws = snis_weights(paths, target, sched)
        want = float(model.energy(paths.x0).mean())
        assert snis_expectation(ws, model.energy) == pytest.approx(want, abs=1e-10)

    def test_energy_matches_enumeration_within_3_sigma(self):
        chain = SpinCouplingModel(2, [(0, 1)], [1.0])
        target = BoltzmannTarget(chain, 0.8)
        exact = enumerate_observables(target)
        t_steps, m, reps = 2, 64, 400
        sched = exp_schedule(t_steps)
        policy = ConstantPolicy(2, t_steps, 0.5)
        rng = np.random.default_rng(4)
        estimates = []
        for _ in range(reps):
            paths = sample_reverse_path(policy, sched, m, rng)
            ws = snis_weights(paths, target, sched)
            estimates.append(snis_expectation(ws, chain.energy))
        estimates = np.array(estimates)
        stderr = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - exact.internal_energy) < 3 * stderr


class TestEffectiveSampleSize:
    def test_equal_weights(self):
        ws = snis_weights_from_logs(np.zeros((10, 1), dtype=np.int8), np.zeros(10), np.zeros(10))
        assert effective_sample_size(ws) == pytest.approx(1.0)

    def test_one_hot(self):
        log_w = np.full(8, -800.0)
        log_w[3] = 0.0
        ws = snis_weights_from_logs(np.zeros((8, 1), dtype=np.int8), log_w, np.zeros(8))
        assert effective_sample_size(ws) == pytest.approx(1 / 8, rel=1e-9)

    def test_hand_value(self):
        ws = snis_weights_from_logs(
            np.zeros((2, 1), dtype=np.int8), np.log([0.75, 0.25]), np.zeros(2)
        )
        assert effective_sample_size(ws) == pytest.approx(0.8)

    def test_bounds_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(10000):
            m = int(rng.integers(1, 40))
            log_w = rng.uniform(-700, 700, m)
            ws = snis_weights_from_logs(np.zeros((m, 1), dtype=np.int8), log_w, np.zeros(m))
            e = effective_sample_size(ws)
            assert 1.0 / m <= e <= 1.0


class TestObservableEstimates:
    def test_exhaustive_uniform_pseudo_sample_is_exact(self):
        lat = IsingLattice2D(3)
        beta = 0.3
        target = BoltzmannTarget(lat, beta)
        exact = enumerate_observables(target, with_probabilities=False)
        states = all_states(9)
        log_q = np.full(len(states), -9 * math.log(2))
        log_p = -beta * lat.energy(states)
        ws = snis_weights_from_logs(states, log_p, log_q)
        est = observable_estimates(ws, target)
        assert est.free_energy == pytest.approx(exact.free_energy, abs=1e-10)
        assert est.internal_energy == pytest.approx(exact.internal_energy, abs=1e-10)
        assert est.entropy == pytest.approx(exact.entropy, abs=1e-10)

    def test_entropy_identity_exact(self):
        rng = np.random.default_rng(6)
        ws = snis_weights_from_logs(
            rng.integers(0, 2, (20, 9), dtype=np.int8),
            rng.standard_normal(20),
            rng.standard_normal(20),
        )
        target = BoltzmannTarget(IsingLattice2D(3), 0.44)
        est = observable_estimates(ws, target)
        assert est.entropy == target.beta * (est.internal_energy - est.free_energy)

    def test_beta_zero_rejected(self):
        ws = snis_weights_from_logs(np.zeros((2, 9), dtype=np.int8), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            observable_estimates(ws, BoltzmannTarget(IsingLattice2D(3), 0.0))

    def test_snis_sample_chunking_deterministic_shape(self):
        policy = ConstantPolicy(4, 2, 0.5)
        sched = exp_schedule(2)
        target = BoltzmannTarget(SpinCouplingModel(4, [(0, 1)], [1.0]), 0.5)
        ws = snis_sample(policy, target, sched, 2500, np.random.default_rng(7), chunk=1000)
        assert ws.n_samples == 2500
        assert ws.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestNmcmc:
    def test_perfect_proposal_always_accepts(self):
        n_bits, t_steps = 2, 2
        sched = exp_schedule(t_steps)
        policy = KernelPolicy(n_bits, sched)
        target = BoltzmannTarget(SpinCouplingModel(n_bits, [], []), 0.0)
        rng = np.random.default_rng(8)
        chain = nmcmc_init(policy, target, sched, 16, rng)
        for _ in range(50):
            nmcmc_step(chain, policy, target, sched, rng)
        assert np.all(chain.n_accepted == 50)

    def test_cache_verification(self):
        policy = ConstantPolicy(3, 2, 0.6)
        sched = exp_schedule(2)
        target = BoltzmannTarget(SpinCouplingModel(3, [(0, 1)], [1.0]), 0.7)
        rng = np.random.default_rng(9)
        chain = nmcmc_init(policy, target, sched, 4, rng)
        chain.verify_cache(policy, target, sched)
        chain.log_q[0] += 1.0
        with pytest.raises(RuntimeError):
            chain.verify_cache(policy, target, sched)

    def test_cache_verification_catches_stale_step_log_q(self):
        # a chain whose stored per-step likelihoods no longer sum to its cached
        # log q, while its states and cached values still agree
        policy = ConstantPolicy(3, 2, 0.6)
        sched = exp_schedule(2)
        target = BoltzmannTarget(SpinCouplingModel(3, [(0, 1)], [1.0]), 0.7)
        chain = nmcmc_init(policy, target, sched, 4, np.random.default_rng(9))
        chain.paths.step_logq[1, 0] -= 0.5
        with pytest.raises(RuntimeError):
            chain.verify_cache(policy, target, sched)

    def test_two_state_chain_matches_target_distribution(self):
        # biased frozen proposal against a tilted single-bit target
        policy = ConstantPolicy(1, 1, 0.8)
        sched = NoiseSchedule(np.array([0.5]))
        target = BoltzmannTarget(FieldModel(), 1.0)
        rng = np.random.default_rng(10)
        n_chains, n_steps = 20, 6000
        series, chain = nmcmc_run(
            policy, target, sched, n_chains, n_steps, rng,
            observable=lambda x: np.asarray(x, dtype=np.float64)[:, 0],
        )
        occupancy = series[:, 500:].mean()
        p1 = math.e / (1 + math.e)  # p_B(x=1)
        tv = abs(occupancy - p1)  # two-state TV distance
        assert tv < 0.01

    def test_block_bookkeeping_with_ragged_blocks(self):
        # 7 chains do not divide the proposal block and 1,001 steps end on a
        # partial block
        n_chains, n_steps = 7, 1001
        assert PROPOSAL_ROWS % n_chains and n_steps % (PROPOSAL_ROWS // n_chains)
        policy = ConstantPolicy(3, 2, 0.6)
        sched = exp_schedule(2)
        target = BoltzmannTarget(SpinCouplingModel(3, [(0, 1), (1, 2)], [1.0, -0.5]), 0.7)
        observable = lambda x: np.asarray(target.model.energy(x), dtype=np.float64)
        series, chain = nmcmc_run(
            policy, target, sched, n_chains, n_steps, np.random.default_rng(16), observable
        )
        chain.verify_cache(policy, target, sched)
        assert np.allclose(chain.paths.log_q, chain.log_q, rtol=0, atol=1e-12)
        assert series.shape == (n_chains, n_steps)
        assert np.array_equal(series[:, -1], observable(chain.paths.x0))
        changes = (np.diff(series, axis=1) != 0).sum(axis=1)
        assert np.all(changes <= chain.n_accepted)
        assert chain.n_steps == n_steps
        assert 0 < chain.n_accepted.min() and chain.n_accepted.max() < n_steps

    def test_detailed_balance_enumerable(self):
        # build the full 4x4 transition matrix over single-bit, single-step
        # paths and check the target path distribution is stationary
        policy = ConstantPolicy(1, 1, 0.7)
        sched = NoiseSchedule(np.array([0.4]))
        target = BoltzmannTarget(FieldModel(), 0.9)
        batch = teacher_forced_batch(policy, all_paths(1, 1))
        q = np.exp(batch.log_q)
        p_hat = np.exp(path_log_p_hat(target, sched, batch))
        pi = p_hat / p_hat.sum()
        n = len(q)
        trans = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                alpha = min(1.0, (p_hat[b] * q[a]) / (p_hat[a] * q[b]))
                trans[a, b] = q[b] * alpha
            trans[a, a] = 1.0 - trans[a].sum()
        assert np.allclose(pi @ trans, pi, atol=1e-12)


class TestAutocorr:
    def test_iid_series(self):
        rng = np.random.default_rng(11)
        res = autocorr_time(rng.standard_normal(100000))
        assert 0.9 <= res.tau <= 1.1
        assert res.window >= 5 * res.tau

    def test_ar1_series(self):
        rho = 0.5
        rng = np.random.default_rng(12)
        eps = rng.standard_normal(1000000)
        series = scipy.signal.lfilter([1.0], [1.0, -rho], eps)
        res = autocorr_time(series)
        expected = (1 + rho) / (1 - rho)
        assert abs(res.tau - expected) / expected < 0.10

    def test_constant_series_degenerate(self):
        res = autocorr_time(np.full(1000, 3.7))
        assert res.degenerate
        assert res.tau is None

    @pytest.mark.parametrize("kind", ["iid", "ar1", "constant"])
    def test_fft_matches_direct_definition(self, kind):
        rng = np.random.default_rng(17)
        if kind == "iid":
            series = rng.standard_normal(20000)
        elif kind == "ar1":
            series = scipy.signal.lfilter([1.0], [1.0, -0.9], rng.standard_normal(20000))
        else:
            series = np.full(500, -2.5)
        got, want = autocorr_time(series), autocorr_time_direct(series)
        assert got.degenerate == want.degenerate
        assert got.window == want.window
        if want.tau is None:
            assert got.tau is None
        else:
            assert got.tau == pytest.approx(want.tau, rel=1e-9)
            assert np.allclose(got.rho, want.rho, rtol=0, atol=1e-12)

    def test_no_window_raises_like_direct_definition(self):
        # a non-finite sample leaves every tau(K) undefined, so no lag satisfies
        # K >= c * tau(K)
        series = np.r_[np.random.default_rng(18).standard_normal(99), np.nan]
        with pytest.raises(ConvergenceError):
            autocorr_time(series)
        with pytest.raises(ConvergenceError):
            autocorr_time_direct(series)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            autocorr_time(np.arange(10.0))


class TestNmcmcEstimate:
    def test_uniform_proposal_matches_enumeration(self):
        # single-step paths keep the forward-kernel term flat (beta_1 = 1/2),
        # so the uniform proposal mixes at a usable acceptance rate
        lat = IsingLattice2D(3)
        beta = 0.3
        target = BoltzmannTarget(lat, beta)
        exact = enumerate_observables(target, with_probabilities=False)
        policy = ConstantPolicy(9, 1, 0.5)
        sched = exp_schedule(1)
        res = nmcmc_estimate(
            policy, target, sched,
            n_chains=8, n_steps=8000, rng=np.random.default_rng(13),
        )
        assert res.stderr is not None
        assert abs(res.estimate - exact.internal_energy) < 3 * res.stderr
        assert res.acceptance_rate > 0.05

    def test_constant_observable_degenerate_flag(self):
        policy = ConstantPolicy(2, 1, 0.5)
        sched = NoiseSchedule(np.array([0.5]))
        target = BoltzmannTarget(SpinCouplingModel(2, [], []), 0.5)
        res = nmcmc_estimate(
            policy, target, sched, observable=lambda x: np.full(len(x), 4.2),
            n_chains=3, n_steps=300, rng=np.random.default_rng(14),
        )
        assert res.estimate == pytest.approx(4.2)
        assert res.stderr is None
        assert res.tau is None

    def test_burn_in_overflow_raises(self):
        policy = ConstantPolicy(2, 1, 0.5)
        sched = NoiseSchedule(np.array([0.5]))
        target = BoltzmannTarget(SpinCouplingModel(2, [(0, 1)], [1.0]), 0.6)
        with pytest.raises(ConvergenceError):
            nmcmc_estimate(policy, target, sched, n_chains=2, n_steps=90,
                           rng=np.random.default_rng(15))
