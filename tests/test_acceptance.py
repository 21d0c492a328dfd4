"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The training-based criteria (5, 6, 9) are marked
`slow`; they are part of the default run.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.signal

from bitdiff import autodiff as ad
from bitdiff.autodiff import tsum
from bitdiff.config import RunConfig, parse_config
from bitdiff.decode import conditional_expectation
from bitdiff.diffusion import exp_schedule, path_log_p_hat, sample_reverse_path
from bitdiff.energies import (
    BoltzmannTarget,
    IsingLattice2D,
    SpinCouplingModel,
    enumerate_observables,
)
from bitdiff.graphs import Graph, brute_force_co, gen_ba, is_feasible, solution_size
from bitdiff.nets import (
    GnnPolicy,
    GnnSpec,
    GraphCondition,
    MlpPolicy,
    MlpSpec,
    bernoulli_entropy,
    bernoulli_log_q,
)
from bitdiff.objectives import (
    RewardNormalizer,
    build_buffer,
    diffuco_loss_grad,
    fkl_importance_weights,
    fkl_mc_grad,
    ppo_minibatch_grad,
)
from bitdiff.train import anneal_temperature, load_checkpoint, train
from bitdiff.unbiased import (
    autocorr_time,
    effective_sample_size,
    nmcmc_estimate,
    observable_estimates,
    snis_sample,
    snis_weights_from_logs,
)

from oracles import (
    all_paths,
    exact_joint_kl,
    exact_policy_gradient,
    finite_diff_grads,
    grads_to_vec,
    rel_err,
    teacher_forced_batch,
)
from toy_policies import ConstantPolicy


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def perturbed_mlp(n_bits, t_steps, seed, hidden=(6, 5), value_head=False, scale=0.4):
    policy = MlpPolicy.init(MlpSpec(n_bits=n_bits, hidden=hidden, value_head=value_head),
                            t_steps, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for k in policy.params:
        if k.startswith(("wv", "bv")):
            continue
        policy.params[k] = policy.params[k] + scale * rng.standard_normal(
            policy.params[k].shape
        )
    return policy


def random_target(n_bits, seed, beta=0.9):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n_bits) for j in range(i + 1, n_bits)
             if rng.random() < 0.7]
    coups = rng.uniform(-1, 1, len(edges))
    return BoltzmannTarget(SpinCouplingModel(n_bits, edges, coups), beta)


class TestCriterion1GradientCorrectness:
    def test_gradients_match_finite_differences(self):
        t0 = time.time()
        worst = 0.0
        rng = np.random.default_rng(0)
        for case in range(20):
            seed = 100 + case
            if case % 2 == 0:
                n_bits = int(rng.integers(3, 6))
                spec = MlpSpec(n_bits=n_bits, hidden=(5, 4), value_head=case % 4 == 0)
                policy = MlpPolicy.init(spec, 4, seed=seed)
                condition = None
            else:
                spec = GnnSpec(n_hidden=5, n_message_passing=int(rng.integers(1, 3)),
                               value_head=case % 3 == 0)
                policy = GnnPolicy.init(spec, 4, seed=seed)
                n_bits = int(rng.integers(4, 7))
                condition = GraphCondition(gen_ba(n_bits, 2, seed))
            prng = np.random.default_rng(seed + 1)
            for k in policy.params:
                policy.params[k] = policy.params[k] + 0.4 * prng.standard_normal(
                    policy.params[k].shape
                )
            x_t = prng.integers(0, 2, (4, n_bits))
            x_prev = prng.integers(0, 2, (4, n_bits))
            has_value = policy.spec.value_head

            def loss_tensor(P):
                total = tsum(bernoulli_log_q(x_prev, policy.probs_from(P, x_t, 2, condition)))
                total = total + tsum(bernoulli_entropy(policy.probs_from(P, x_t, 3, condition)))
                if has_value:
                    v = policy.value_from(P, x_t, 1, condition)
                    total = total + tsum(v * v)
                return total

            leaves = ad.leaves(policy.params)
            loss = loss_tensor(leaves)
            loss.backward()
            got = ad.collect_grads(leaves)
            want = finite_diff_grads(
                lambda: float(ad.as_array(loss_tensor(policy.params))), policy.params
            )
            worst = max(worst, rel_err(grads_to_vec(got), grads_to_vec(want)))
        elapsed = time.time() - t0
        report(1, worst < 1e-4 and elapsed < 60,
               f"max relative error {worst:.2e} over 20 networks in {elapsed:.1f}s")


class TestCriterion2PolicyGradientIdentity:
    def test_exact_estimator_matches_kl_gradient(self):
        t0 = time.time()
        worst = 0.0
        cases = [(2, 1), (2, 2), (3, 1), (3, 2), (2, 2), (3, 2), (2, 1), (3, 1),
                 (2, 2), (3, 2)]
        for idx, (n_bits, t_steps) in enumerate(cases):
            policy = perturbed_mlp(n_bits, t_steps, seed=idx, scale=0.5)
            target = random_target(n_bits, seed=idx + 50, beta=0.7 + 0.1 * (idx % 3))
            sched = exp_schedule(t_steps)
            temp = 0.6 + 0.15 * (idx % 4)
            exact = exact_policy_gradient(policy, target, sched, temp)
            fd = finite_diff_grads(
                lambda: exact_joint_kl(policy, target, sched, temp), policy.params
            )
            worst = max(worst, rel_err(grads_to_vec(exact), grads_to_vec(fd)))
        elapsed = time.time() - t0
        report(2, worst < 1e-5 and elapsed < 120,
               f"max relative error {worst:.2e} over 10 instances in {elapsed:.1f}s")


class TestCriterion3FklFullBatchEquivalence:
    def test_full_batch_and_minibatch_average(self):
        t0 = time.time()
        n_bits, t_steps, m = 3, 4, 12
        policy = perturbed_mlp(n_bits, t_steps, seed=7)
        target = random_target(n_bits, seed=8, beta=0.8)
        sched = exp_schedule(t_steps)
        paths = sample_reverse_path(policy, sched, m, np.random.default_rng(9))
        log_w = fkl_importance_weights(paths, target.energy(paths.x0), target, sched).log_w
        _, full, weights = fkl_mc_grad(policy, paths, log_w, np.arange(m),
                                       np.tile(np.arange(t_steps), (m, 1)))

        # direct weighted-log-likelihood gradient, weights constant
        leaves = ad.leaves(policy.params)
        total = None
        for t in range(t_steps, 0, -1):
            logq = bernoulli_log_q(paths.states[:, t - 1],
                                   policy.probs_from(leaves, paths.states[:, t], t))
            total = logq if total is None else total + logq
        ((-1.0) * tsum(total * weights)).backward()
        direct = ad.collect_grads(leaves)
        err_full = rel_err(grads_to_vec(full), grads_to_vec(direct))

        acc = None
        for t in range(1, t_steps + 1):
            _, g, _ = fkl_mc_grad(policy, paths, log_w, np.arange(m),
                                  np.full((m, 1), t_steps - t))
            acc = g if acc is None else {k: acc[k] + g[k] for k in g}
        avg = {k: v / t_steps for k, v in acc.items()}
        err_avg = rel_err(grads_to_vec(avg), grads_to_vec(full))
        elapsed = time.time() - t0
        report(3, err_full < 1e-10 and err_avg < 1e-8 and elapsed < 60,
               f"full-batch err {err_full:.2e}, minibatch-average err {err_avg:.2e} "
               f"in {elapsed:.1f}s")


class TestCriterion4PathLikelihoodExactness:
    def test_normalizations(self):
        t0 = time.time()
        worst_q = 0.0
        for n_bits, t_steps, seed in ((2, 2, 0), (3, 2, 1), (4, 3, 2)):
            policy = perturbed_mlp(n_bits, t_steps, seed=seed, hidden=(5,))
            batch = teacher_forced_batch(policy, all_paths(n_bits, t_steps))
            worst_q = max(worst_q, abs(float(np.exp(batch.log_q).sum()) - 1.0))

        # forward-kernel normalization: sum over X_{1:T} of p(X_{1:T}|X_0) = 1
        from bitdiff.diffusion import PathBatch, forward_step_logp

        worst_p = 0.0
        for n_bits, t_steps in ((2, 3), (4, 2)):
            sched = exp_schedule(t_steps)
            paths = all_paths(n_bits, t_steps)
            batch = PathBatch(paths.astype(np.int8), np.zeros((len(paths), t_steps)),
                              np.zeros(len(paths)))
            logp = np.zeros(len(paths))
            for logp_t in forward_step_logp(batch, sched).T:
                logp += logp_t
            x0_ids = (paths[:, 0].astype(np.int64) << np.arange(n_bits)).sum(axis=1)
            for x0 in range(1 << n_bits):
                total = float(np.exp(logp[x0_ids == x0]).sum())
                worst_p = max(worst_p, abs(total - 1.0))
        elapsed = time.time() - t0
        report(4, worst_q < 1e-10 and worst_p < 1e-10 and elapsed < 60,
               f"path normalization err {worst_q:.2e}, kernel err {worst_p:.2e} "
               f"in {elapsed:.1f}s")


ISING4_FKL_CFG = """
[problem]
kind = ising
lattice_size = 4
beta = 0.4407

[train]
objective = fkl_mc
t_steps = 20
epochs = 600
n_paths = 512
t_minibatch = 5
path_minibatch = 256
lr_max = 3e-3
seed = 0
out_dir = {out_dir}
anneal = ising_decay
anneal_h = 8
"""

ISING4_RKL_CFG = """
[problem]
kind = ising
lattice_size = 4
beta = 0.4407

[train]
objective = rkl_rl
t_steps = 20
epochs = 600
n_paths = 256
t_minibatch = 5
path_minibatch = 128
lr_max = 1e-3
seed = 0
out_dir = {out_dir}
anneal = ising_decay
anneal_h = 8
"""

CO_CFG = """
[problem]
kind = co
problem = mis
dataset_dir = {dataset}

[model]
arch = gnn
n_hidden = 32
message_passing = 3

[train]
objective = {objective}
t_steps = 8
epochs = 350
n_paths = 16
n_instances = 8
t_minibatch = 4
path_minibatch = 16
lr_max = 1e-2
seed = 0
out_dir = {out_dir}
anneal = linear_to_zero
t_start = 0.5
"""


@pytest.fixture(scope="module")
def ising4_exact():
    target = BoltzmannTarget(IsingLattice2D(4), 0.4407)
    return target, enumerate_observables(target, with_probabilities=False)


@pytest.fixture(scope="module")
def ising4_fkl_policy(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ising4_fkl")
    train(parse_config(ISING4_FKL_CFG.format(out_dir=out_dir)))
    policy, *_ = load_checkpoint(out_dir / "checkpoint.npz")
    return policy


@pytest.fixture(scope="module")
def ba_mis_datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("ba_mis")
    rng = np.random.default_rng(11)
    sets = {}
    for name, count, seed0 in (("train", 200, 0), ("test", 50, 10 ** 6)):
        d = root / name
        d.mkdir()
        files = []
        for i in range(count):
            g = gen_ba(int(rng.integers(10, 15)), 4, seed0 + i)
            fname = f"graph_{i:05d}.txt"
            (d / fname).write_text(g.to_text(), encoding="utf-8")
            files.append(fname)
        (d / "manifest.json").write_text(json.dumps({"files": files}), encoding="utf-8")
        sets[name] = d
    return sets


def _best_of_eval(policy, graphs, n_samples, rng):
    """Per instance: feasible sizes of CE-decoded samples, nested best-of."""
    sched = exp_schedule(policy.n_steps)
    out = []
    for g in graphs:
        cond = GraphCondition(g)
        co = g.co_problem("mis", 1.0, 1.1)
        paths = sample_reverse_path(policy, sched, n_samples, rng, cond)
        sols = conditional_expectation(paths.x0_probs, co.energy)
        sizes = np.array([
            solution_size("mis", g, s) if is_feasible("mis", g, s) else -1
            for s in sols
        ])
        out.append(sizes)
    return out


@pytest.mark.slow
class TestCriterion5IsingDeskScale:
    def test_fkl_model_estimates(self, ising4_fkl_policy, ising4_exact):
        target, exact = ising4_exact
        sched = exp_schedule(ising4_fkl_policy.n_steps)
        ws = snis_sample(ising4_fkl_policy, target, sched, 100000,
                         np.random.default_rng(123))
        est = observable_estimates(ws, target)
        rel_f = abs(est.free_energy / exact.free_energy - 1)
        rel_u = abs(est.internal_energy / exact.internal_energy - 1)
        rel_s = abs(est.entropy / exact.entropy - 1)
        ok = (rel_f < 0.02 and rel_u < 0.05 and rel_s < 0.05
              and est.ess_per_sample > 0.01)
        report(5, ok,
               f"fkl_mc: relF {rel_f:.5f} (<0.02), relU {rel_u:.5f} (<0.05), "
               f"relS {rel_s:.5f} (<0.05), ESS/M {est.ess_per_sample:.4f} (>0.01)")

    def test_rkl_model_free_energy(self, tmp_path, ising4_exact):
        target, exact = ising4_exact
        out = train(parse_config(ISING4_RKL_CFG.format(out_dir=tmp_path / "rkl")))
        policy, *_ = load_checkpoint(out["checkpoint"])
        sched = exp_schedule(policy.n_steps)
        ws = snis_sample(policy, target, sched, 100000, np.random.default_rng(321))
        est = observable_estimates(ws, target)
        rel_f = abs(est.free_energy / exact.free_energy - 1)
        report(5, rel_f < 0.02,
               f"rkl_rl: relF {rel_f:.5f} (<0.02), ESS/M {est.ess_per_sample:.4f}")


@pytest.mark.slow
class TestCriterion6Nmcmc:
    def test_internal_energy_and_acceptance(self, ising4_fkl_policy, ising4_exact):
        target, exact = ising4_exact
        sched = exp_schedule(ising4_fkl_policy.n_steps)
        res = nmcmc_estimate(ising4_fkl_policy, target, sched,
                             n_chains=16, n_steps=3000, rng=np.random.default_rng(7))
        err = abs(res.estimate - exact.internal_energy)
        ok = err < 3 * res.stderr and res.acceptance_rate > 0.05 and res.tau is not None
        report(6, ok,
               f"U err {err:.4f} vs 3*stderr {3 * res.stderr:.4f}; acceptance "
               f"{res.acceptance_rate:.3f} (>0.05); tau {res.tau:.2f}")


@pytest.mark.slow
class TestCriterion9CoDeskScale:
    def test_rkl_and_fkl_solution_quality(self, tmp_path, ba_mis_datasets):
        graphs = [Graph.from_text(p.read_text(encoding="utf-8"))
                  for p in sorted(ba_mis_datasets["test"].glob("graph_*.txt"))]
        optima = [brute_force_co("mis", g).optimal_size for g in graphs]

        results = {}
        for objective in ("rkl_rl", "fkl_mc"):
            out = train(parse_config(CO_CFG.format(
                dataset=ba_mis_datasets["train"], objective=objective,
                out_dir=tmp_path / objective)))
            policy, *_ = load_checkpoint(out["checkpoint"])
            sizes = _best_of_eval(policy, graphs, 150, np.random.default_rng(5))
            best30 = np.array([s[:30].max() for s in sizes])
            best150 = np.array([s.max() for s in sizes])
            results[objective] = (best30, best150)

        rkl30, _ = results["rkl_rl"]
        fkl30, fkl150 = results["fkl_mc"]
        rkl_hits = int((rkl30 == np.array(optima)).sum())
        fkl_hits = int((fkl150 == np.array(optima)).sum())
        monotone = bool((fkl150 >= fkl30).all())
        ok = rkl_hits >= 45 and fkl_hits >= 45 and monotone
        report(9, ok,
               f"rkl_rl best-of-30 optimum on {rkl_hits}/50; fkl_mc best-of-150 "
               f"optimum on {fkl_hits}/50; best-of-150 >= best-of-30 on all: {monotone}")


class TestCriterion7EstimatorSanity:
    def test_z_hat_mean_and_ess_bounds(self):
        chain = SpinCouplingModel(2, [(0, 1)], [1.0])
        target = BoltzmannTarget(chain, 1.0)
        exact = enumerate_observables(target, with_probabilities=False)
        t_steps, m, reps = 2, 8, 10000
        sched = exp_schedule(t_steps)
        policy = ConstantPolicy(2, t_steps, 0.5)
        rng = np.random.default_rng(77)
        paths = sample_reverse_path(policy, sched, m * reps, rng)
        log_w = path_log_p_hat(target, sched, paths, target.energy(paths.x0)) - paths.log_q
        z_hats = np.exp(log_w).reshape(reps, m).mean(axis=1)
        stderr = z_hats.std(ddof=1) / math.sqrt(reps)
        z_ok = abs(z_hats.mean() - exact.z) < 3 * stderr

        fuzz_rng = np.random.default_rng(78)
        bounds_ok = True
        for _ in range(10000):
            size = int(fuzz_rng.integers(1, 50))
            lw = fuzz_rng.uniform(-700, 700, size)
            ws = snis_weights_from_logs(np.zeros(size), lw, np.zeros(size))
            e = effective_sample_size(ws)
            if not (1.0 / size <= e <= 1.0):
                bounds_ok = False
                break
        report(7, z_ok and bounds_ok,
               f"Z-hat mean {z_hats.mean():.4f} vs exact {exact.z:.4f} "
               f"(3*stderr {3 * stderr:.4f}); ESS bounds held on 10^4 vectors")


class TestCriterion8CoFeasibility:
    def test_ce_feasibility_and_better_than_average(self):
        rng = np.random.default_rng(79)
        kinds = ("mis", "mds", "maxcl")
        n_checked = 0
        for trial in range(1002):
            n = int(rng.integers(3, 13))
            g = gen_ba(n, int(rng.integers(1, min(4, n))), seed=trial)
            kind = kinds[trial % 3]
            co = g.co_problem(kind, 1.0, 1.1)
            v = rng.uniform(0, 1, n)
            out = conditional_expectation(v, co.energy)
            assert is_feasible(kind, g, out), (kind, trial)
            assert co.energy(out.astype(np.float64)) <= co.energy(v) + 1e-12, (kind, trial)
            n_checked += 1
        report(8, n_checked >= 1000,
               f"{n_checked} random instances: all CE outputs feasible and "
               f"better than average")


class TestCriterion10MemoryScaling:
    def test_activation_records_ratio(self):
        n_bits, t_steps, tau, m = 16, 32, 4, 8
        sched = exp_schedule(t_steps)
        target = BoltzmannTarget(IsingLattice2D(4), 0.4407)

        policy = perturbed_mlp(n_bits, t_steps, seed=11, hidden=(64, 64),
                               value_head=True, scale=0.1)
        paths = sample_reverse_path(policy, sched, m, np.random.default_rng(12))
        energy = target.energy(paths.x0)

        ad.reset_activation_records()
        diffuco_loss_grad(policy, target, sched, paths, energy, temperature=1.0)
        n_diffuco = ad.activation_records()

        log_w = fkl_importance_weights(paths, energy, target, sched).log_w
        k_idx = t_steps - np.tile(np.arange(1, tau + 1), (m, 1))
        ad.reset_activation_records()
        fkl_mc_grad(policy, paths, log_w, np.arange(m), k_idx)
        n_fkl = ad.activation_records()

        cfg = RunConfig()
        buf = build_buffer(policy, paths, energy, target, sched, 1.0, cfg,
                           RewardNormalizer(rate=0.0, mean=0.0, var=1.0, initialized=True))
        ad.reset_activation_records()
        ppo_minibatch_grad(policy, buf, cfg, np.arange(m),
                           np.tile(np.arange(tau), (m, 1)))
        n_ppo = ad.activation_records()

        ratio_fkl = n_fkl / n_diffuco
        ratio_ppo = n_ppo / n_diffuco
        report(10, ratio_fkl <= 1 / 6 and ratio_ppo <= 1 / 6,
               f"activation records: diffuco {n_diffuco}, fkl {n_fkl} "
               f"({ratio_fkl:.3f}), ppo {n_ppo} ({ratio_ppo:.3f}); bound 1/6")


class TestCriterion11MicroChecks:
    def test_schedule_autocorr_anneal(self):
        sched = exp_schedule(10)
        sched_ok = sched.beta(10) == 0.5 and sched.beta(5) == 0.0625

        rho = 0.5
        eps = np.random.default_rng(80).standard_normal(1000000)
        series = scipy.signal.lfilter([1.0], [1.0, -rho], eps)
        res = autocorr_time(series)
        tau_ok = abs(res.tau - 3.0) / 3.0 < 0.10

        beta_c = 0.4407
        decay = RunConfig(anneal="ising_decay", epochs=10, anneal_h=2.0, beta=beta_c)
        want = (1.0 / beta_c) / (1.0 - 0.998 ** 2.0)
        linear = RunConfig(anneal="linear_to_zero", epochs=10, t_start=2.5)
        anneal_ok = (anneal_temperature(decay, 0) == pytest.approx(want, rel=1e-12)
                     and anneal_temperature(linear, 0) == 2.5
                     and anneal_temperature(linear, 10) == 0.0)
        report(11, sched_ok and tau_ok and anneal_ok,
               f"schedule endpoints exact; AR(1) tau {res.tau:.3f} (want 3 +/- 10%); "
               f"anneal hand values match")
