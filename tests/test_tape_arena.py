"""The tape arena's contract: inside an `autodiff.Arena` each tape reuses the
previous tape's arrays, which changes no number; gradients from
`collect_grads` stay valid after later tapes; outside it, tapes share no
memory."""

import contextlib

import numpy as np
import pytest

import bitdiff.train
from bitdiff import autodiff as ad
from bitdiff import cli
from bitdiff.config import RunConfig, parse_config
from bitdiff.diffusion import exp_schedule, sample_reverse_path
from bitdiff.energies import BoltzmannTarget, SpinCouplingModel
from bitdiff.nets import MlpPolicy, MlpSpec, bernoulli_log_q
from bitdiff.objectives import (
    RewardNormalizer,
    build_buffer,
    fkl_importance_weights,
    fkl_mc_grad,
    minibatch_plan,
    ppo_minibatch_grad,
)
from bitdiff.train import load_checkpoint, train

ISING = """
[problem]
kind = ising
lattice_size = 3

[model]
hidden = 12 12

[train]
objective = {objective}
t_steps = 6
epochs = 1
n_paths = 16
t_minibatch = 3
path_minibatch = 8
seed = 5
out_dir = {out_dir}
"""

BA_MIS = """
[problem]
kind = co
problem = mis
dataset_dir = {dataset}

[model]
arch = gnn
n_hidden = 8
message_passing = 2

[train]
objective = {objective}
t_steps = 4
epochs = 1
n_paths = 8
n_instances = 3
t_minibatch = 2
path_minibatch = 4
seed = 5
out_dir = {out_dir}
"""


def trained_params(text: str) -> dict:
    cfg = parse_config(text)
    train(cfg)
    return load_checkpoint(f"{cfg.out_dir}/checkpoint.npz")[0].params


@pytest.mark.parametrize("objective", ["fkl_mc", "rkl_rl", "diffuco"])
@pytest.mark.parametrize("problem", ["ising", "ba_mis"])
def test_epoch_params_equal_to_grads_outside_the_arena(problem, objective, tmp_path,
                                                       monkeypatch):
    if problem == "ising":
        template, fields = ISING, {}
    else:
        dataset = tmp_path / "graphs"
        assert cli.main(["gen-graphs", "--kind", "ba", "--out", str(dataset), "--count", "4",
                         "--min-nodes", "6", "--max-nodes", "9", "--ba-m", "2",
                         "--seed", "3"]) == 0
        template, fields = BA_MIS, {"dataset": dataset}
    in_arena = trained_params(template.format(objective=objective, out_dir=tmp_path / "a",
                                              **fields))
    monkeypatch.setattr(bitdiff.train, "Arena", contextlib.nullcontext)
    fresh = trained_params(template.format(objective=objective, out_dir=tmp_path / "b",
                                           **fields))
    assert in_arena.keys() == fresh.keys()
    for k in fresh:
        assert np.array_equal(in_arena[k], fresh[k]), k


def make_policy(seed: int, value_head: bool = False):
    spec = MlpSpec(n_bits=4, hidden=(6,), value_head=value_head)
    policy = MlpPolicy.init(spec, 6, seed=seed)
    rng = np.random.default_rng(seed)
    for k, v in policy.params.items():  # off the zero initialization of the heads
        policy.params[k] = v + 0.4 * rng.standard_normal(v.shape)
    return policy


def lattice_setup(m=8):
    policy = make_policy(1, value_head=True)
    sched = exp_schedule(6)
    target = BoltzmannTarget(SpinCouplingModel(4, [(0, 1), (1, 2), (2, 3)], [0.8, 0.5, 0.2]),
                             0.9)
    paths = sample_reverse_path(policy, sched, m, np.random.default_rng(2))
    energy = target.energy(paths.x0)
    return policy, sched, target, paths, energy


def two_minibatches(m, t_steps):
    plan = minibatch_plan(m, t_steps, m // 2, 2, np.random.default_rng(4))
    return plan[:2]


def test_collected_grads_survive_the_next_tape():
    policy, sched, target, paths, energy = lattice_setup()
    log_w = fkl_importance_weights(paths, energy, target, sched).log_w
    (p1, k1), (p2, k2) = two_minibatches(paths.n_paths, paths.n_steps)
    want = fkl_mc_grad(policy, paths, log_w, p1, k1)[1]
    with ad.Arena():
        fkl_mc_grad(policy, paths, log_w, p2, k2)  # sizes the block
        first = fkl_mc_grad(policy, paths, log_w, p1, k1)[1]
        kept = {k: v.copy() for k, v in first.items()}
        for _ in range(2):
            fkl_mc_grad(policy, paths, log_w, p2, k2)
        for k in want:
            assert np.array_equal(first[k], kept[k]), k
            assert np.array_equal(first[k], want[k]), k


def test_ppo_stats_equal_in_and_out_of_the_arena():
    policy, sched, target, paths, energy = lattice_setup()
    buf = build_buffer(policy, paths, energy, target, sched, 1.0, RunConfig(),
                       RewardNormalizer(rate=0.0, initialized=True))
    minibatches = two_minibatches(paths.n_paths, paths.n_steps)
    cfg = RunConfig(clip=0.05)
    want = [ppo_minibatch_grad(policy, buf, cfg, p, k) for p, k in minibatches]
    with ad.Arena():
        got = [ppo_minibatch_grad(policy, buf, cfg, p, k) for p, k in minibatches]
    for (loss_w, grads_w, stats_w), (loss_g, grads_g, stats_g) in zip(want, got):
        assert loss_g == loss_w
        assert stats_g == stats_w
        for key in ("clip_fraction", "mean_ratio", "policy_loss", "value_loss"):
            assert key in stats_g
        for k in grads_w:
            assert np.array_equal(grads_g[k], grads_w[k]), k


def tape_arrays(root) -> list:
    """Every output and gradient array a tape holds."""
    out, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            out.append(node.data)
        if node.grad is not None and node.grad.ndim:
            out.append(node.grad)
        stack.extend(node._parents)
    return out


def lattice_tape(policy, x_t):
    leaves = ad.leaves(policy.params)
    loss = ad.tsum(policy.probs_from(leaves, x_t, 3))
    loss.backward()
    return loss


def shared_pairs(first, second) -> int:
    return sum(np.shares_memory(a, b) for a in tape_arrays(first) for b in tape_arrays(second))


def test_tapes_share_memory_only_inside_the_arena():
    policy = make_policy(1)
    x_t = np.random.default_rng(0).integers(0, 2, (5, 4))
    assert shared_pairs(lattice_tape(policy, x_t), lattice_tape(policy, x_t)) == 0
    with ad.Arena():
        first = lattice_tape(policy, x_t)
        second = lattice_tape(policy, x_t)
        third = lattice_tape(policy, x_t)
    assert shared_pairs(first, second) == 0  # the first tape sizes the block
    assert shared_pairs(second, third) > 0


def test_fixed_shape_loop_allocates_one_block():
    policy, sched, target, paths, energy = lattice_setup()
    log_w = fkl_importance_weights(paths, energy, target, sched).log_w
    (p1, k1), _ = two_minibatches(paths.n_paths, paths.n_steps)
    with ad.Arena() as arena:
        fkl_mc_grad(policy, paths, log_w, p1, k1)
        assert arena.blocks == 0  # the first tape takes fresh arrays
        for _ in range(4):
            fkl_mc_grad(policy, paths, log_w, p1, k1)
        assert arena.blocks == 1


def test_untraced_forwards_inside_a_tape_leave_its_gradients():
    policy = make_policy(1, value_head=True)
    rng = np.random.default_rng(0)
    x_t, x_prev = rng.integers(0, 2, (5, 4)), rng.integers(0, 2, (5, 4))

    def grads(untraced_between: bool) -> dict:
        leaves = ad.leaves(policy.params)
        probs, value = policy.probs_and_value_from(leaves, x_t, 3)
        loss = ad.tsum(bernoulli_log_q(x_prev, probs) * value)
        if untraced_between:  # the policy's own arena, not the caller's
            policy.probs(x_t, 2)
            policy.value(x_prev, 4)
        loss.backward()
        return ad.collect_grads(leaves)

    want = grads(False)
    with ad.Arena():
        for untraced_between in (False, True, True):
            got = grads(untraced_between)
            for k in want:
                assert np.array_equal(got[k], want[k]), k


def test_rewind_gives_back_and_the_next_block_fits_the_peak():
    arena = ad.Arena()
    with arena:
        for _ in range(2):  # the first tape sizes the block
            ad.leaves({})
            kept = ad.scratch((4, 4))
            mark = arena.mark()
            big = ad.scratch((100, 8))
            arena.rewind(mark)
            small = ad.scratch((10, 8))
    assert arena.blocks == 1  # sized by the rewound 100 x 8, not the final fill
    assert np.shares_memory(small, big) and not np.shares_memory(small, kept)
