"""Training drivers for the three objectives, with per-epoch metrics and
bit-exact resumable checkpoints.

One epoch collects fresh on-policy paths for a batch of problem instances
(lattice problems have a single unconditioned instance), then applies the
selected objective:

- ``diffuco``: one full-path gradient step per epoch.
- ``fkl_mc``: importance-weighted updates over (path, timestep) minibatches.
- ``rkl_rl``: PPO passes over the frozen buffer.

Checkpoints carry parameters, optimizer moments, reward-normalizer state and
the RNG state, so resuming reproduces the uninterrupted run byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .diffusion import exp_schedule, sample_reverse_path
from .energies import BoltzmannTarget, build_lattice, write_instance_text
from .graphs import Graph
from .nets import GnnSpec, GraphCondition, MlpSpec, make_policy, param_shapes
from .objectives import (
    AnnealSchedule,
    PpoConfig,
    RewardNormalizer,
    build_buffer,
    diffuco_loss_grad,
    fkl_importance_weights,
    fkl_mc_grad,
    minibatch_plan,
    ppo_minibatch_grad,
)
from .optim import AdamState, LrSchedule, adam_step
from .unbiased import effective_sample_size

__all__ = [
    "Instance",
    "build_instances",
    "build_policy_spec",
    "build_anneal",
    "load_dataset",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "METRICS_HEADER",
]

METRICS_HEADER = "epoch,temperature,loss,mean_energy,entropy_estimate,ess_per_sample"

TEMPERATURE_FLOOR = 1e-9  # keeps temperature*beta == 1 when annealing reaches zero


@dataclass
class Instance:
    """One training problem: an energy model plus the policy conditioning."""

    energy_model: object
    condition: GraphCondition | None = None
    name: str = ""


def _lattice_model(cfg: RunConfig):
    text = ""
    if cfg.kind == "ea" and cfg.instance_file:
        with open(cfg.instance_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    return build_lattice(cfg.kind, cfg.lattice_size, cfg.coupling, cfg.ea_dist, cfg.ea_seed, text)


def load_dataset(dataset_dir: str) -> list[Graph]:
    root = Path(dataset_dir)
    manifest = root / "manifest.json"
    if manifest.exists():
        with open(manifest, "r", encoding="utf-8") as fh:
            files = json.load(fh)["files"]
        paths = [root / f for f in files]
    else:
        paths = sorted(root.glob("graph_*.txt"))
    if not paths:
        raise ConfigError(f"no graphs found in {dataset_dir}")
    graphs = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            graphs.append(Graph.from_text(fh.read()))
    return graphs


def build_instances(cfg: RunConfig) -> list[Instance]:
    if cfg.kind in ("ising", "ea"):
        return [Instance(_lattice_model(cfg), None, cfg.kind)]
    graphs = load_dataset(cfg.dataset_dir)
    out = []
    for i, g in enumerate(graphs):
        co = g.co_problem(cfg.problem, cfg.penalty_a, cfg.penalty_b)
        out.append(Instance(co, GraphCondition(g), f"graph_{i:05d}"))
    return out


def build_policy_spec(cfg: RunConfig):
    value_head = cfg.objective == "rkl_rl"
    if cfg.arch == "mlp":
        return MlpSpec(n_bits=cfg.lattice_size ** 2, hidden=tuple(cfg.hidden),
                       value_head=value_head, kernel_start=cfg.kernel_start)
    return GnnSpec(n_hidden=cfg.n_hidden, n_message_passing=cfg.message_passing,
                   value_head=value_head, kernel_start=cfg.kernel_start)


def build_anneal(cfg: RunConfig) -> AnnealSchedule:
    if cfg.anneal == "linear_to_zero":
        return AnnealSchedule("linear_to_zero", max(1, cfg.epochs), t_start=cfg.t_start)
    return AnnealSchedule(
        "ising_decay",
        max(1, cfg.epochs),
        decay_rate=cfg.anneal_h,
        target_temperature=1.0 / cfg.beta,
    )


def _ppo_config(cfg: RunConfig) -> PpoConfig:
    return PpoConfig(
        clip=cfg.clip,
        value_weight=cfg.value_weight,
        trace_decay=cfg.trace_decay,
        reward_ma_rate=cfg.reward_ma_rate,
        n_path_minibatch=cfg.path_minibatch,
        n_timestep_minibatch=cfg.t_minibatch,
        epochs_per_buffer=cfg.epochs_per_buffer,
    )


def updates_per_epoch(cfg: RunConfig) -> int:
    if cfg.objective == "diffuco":
        return 1
    n_path_chunks = -(-cfg.n_paths // cfg.path_minibatch)
    n_t_chunks = -(-cfg.t_steps // cfg.t_minibatch)
    per_pass = n_path_chunks * n_t_chunks
    if cfg.objective == "fkl_mc":
        return per_pass
    return per_pass * cfg.epochs_per_buffer


def _problem_meta(cfg: RunConfig) -> dict:
    meta = {"kind": cfg.kind, "beta": cfg.beta}
    if cfg.kind == "ising":
        meta.update(lattice_size=cfg.lattice_size, coupling=cfg.coupling)
    elif cfg.kind == "ea":
        meta.update(lattice_size=cfg.lattice_size,
                    instance_text=write_instance_text(_lattice_model(cfg)))
    else:
        meta.update(problem=cfg.problem, penalty_a=cfg.penalty_a,
                    penalty_b=cfg.penalty_b, dataset_dir=cfg.dataset_dir)
    return meta


def save_checkpoint(
    path,
    cfg: RunConfig,
    policy,
    adam: AdamState,
    normalizer: RewardNormalizer,
    rng,
    epoch_next: int,
) -> None:
    meta = {
        "version": 1,
        "arch": cfg.arch,
        "t_steps": cfg.t_steps,
        "epoch_next": epoch_next,
        "adam_step": adam.step,
        "normalizer": normalizer.state(),
        "rng_state": rng.bit_generator.state,
        "config": dataclasses.asdict(cfg),
        "problem": _problem_meta(cfg),
    }
    arrays = {f"param::{k}": v for k, v in policy.params.items()}
    arrays.update(adam.state_arrays())
    np.savez(path, meta=json.dumps(meta), **arrays)


def load_checkpoint(path):
    """Returns (policy, cfg, adam, normalizer, rng, epoch_next, problem_meta).

    Raises ConfigError when the file cannot be read, or lacks a metadata
    field or an array the architecture needs."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            meta = json.loads(str(blob["meta"]))
            arrays = {k: blob[k] for k in blob.files if k != "meta"}
        cfg = RunConfig(**meta["config"])
        cfg.hidden = tuple(cfg.hidden)
        spec = build_policy_spec(cfg)
        adam = AdamState.from_arrays(
            {k: v for k, v in arrays.items() if k.startswith(("m::", "v::"))},
            step=meta["adam_step"],
        )
        normalizer = RewardNormalizer.from_state(meta["normalizer"])
        rng = np.random.default_rng(0)
        state = meta["rng_state"]
        state["state"] = {k: int(v) for k, v in state["state"].items()}
        rng.bit_generator.state = state
        n_steps, epoch_next, problem = meta["t_steps"], meta["epoch_next"], meta["problem"]
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise ConfigError(f"cannot read checkpoint {path}: {err}") from err
    params = {k[len("param::"):]: arrays[k] for k in arrays if k.startswith("param::")}
    shapes = param_shapes(spec)
    moments_ok = set(adam.m) == set(adam.v) == set(shapes)
    if {k: v.shape for k, v in params.items()} != shapes or not moments_ok:
        raise ConfigError(f"checkpoint {path} does not hold the arrays its architecture needs")
    policy = make_policy(spec, n_steps, params=params)
    return policy, cfg, adam, normalizer, rng, epoch_next, problem


def _select_instances(instances, n: int, rng) -> list:
    if len(instances) <= n:
        return list(instances)
    idx = rng.choice(len(instances), size=n, replace=False)
    return [instances[i] for i in idx]


def _fmt(value) -> str:
    return f"{value:.17g}"


def _rollouts(policy, inst_batch, schedule, beta_eff, cfg, rng, energies=True):
    """Fresh on-policy paths for each instance in batch order: a list of
    (instance, tempered target, paths), and the batch sums of the mean
    energy (0.0 without `energies`) and the entropy estimate."""
    rollouts, energy_acc, ent_acc = [], 0.0, 0.0
    for inst in inst_batch:
        target = BoltzmannTarget(inst.energy_model, beta_eff)
        paths = sample_reverse_path(policy, schedule, cfg.n_paths, rng, inst.condition)
        rollouts.append((inst, target, paths))
        if energies:
            energy_acc += float(np.mean(inst.energy_model.energy(paths.x0)))
        ent_acc += -float(paths.log_q.mean())
    return rollouts, energy_acc, ent_acc


def _mean_grads(per_instance: list) -> dict:
    """Mean of per-instance gradient dicts, summed in instance order."""
    total = per_instance[0]
    for grads in per_instance[1:]:
        total = {k: total[k] + grads[k] for k in grads}
    return {k: v / len(per_instance) for k, v in total.items()}


def _epoch_diffuco(policy, inst_batch, schedule, beta_eff, temperature, cfg, adam, lr, rng):
    # the mean energy comes from the gradient's own weighted energy mean
    rollouts, _, ent_acc = _rollouts(policy, inst_batch, schedule, beta_eff, cfg, rng,
                                     energies=False)
    grads, loss_acc, energy_acc = [], 0.0, 0.0
    for inst, target, paths in rollouts:
        loss, g, stats = diffuco_loss_grad(
            policy, target, schedule, paths, temperature, inst.condition
        )
        loss_acc += loss
        energy_acc += stats["mean_energy"]
        grads.append(g)
    adam_step(policy.params, _mean_grads(grads), adam, lr())
    n = len(inst_batch)
    return {"loss": loss_acc / n, "mean_energy": energy_acc / n,
            "entropy": ent_acc / n, "ess": None}


def _epoch_fkl(policy, inst_batch, schedule, beta_eff, cfg, adam, lr, rng):
    rollouts, energy_acc, ent_acc = _rollouts(policy, inst_batch, schedule, beta_eff, cfg, rng)
    ess_acc = 0.0
    for _, target, paths in rollouts:
        ess_acc += effective_sample_size(
            fkl_importance_weights(paths, paths.log_q, target, schedule)
        )
    loss_acc, n_updates = 0.0, 0
    plan = minibatch_plan(cfg.n_paths, cfg.t_steps, cfg.path_minibatch, cfg.t_minibatch, rng)
    for group, k_idx in plan:
        t_idx = cfg.t_steps - k_idx  # episode index -> diffusion time
        grads = []
        for inst, target, paths in rollouts:
            loss, g, _ = fkl_mc_grad(
                policy, paths.select(group), paths.log_q[group], target, schedule,
                t_idx, inst.condition,
            )
            loss_acc += loss
            grads.append(g)
        adam_step(policy.params, _mean_grads(grads), adam, lr())
        n_updates += 1
    n = len(inst_batch)
    return {"loss": loss_acc / max(1, n_updates * n), "mean_energy": energy_acc / n,
            "entropy": ent_acc / n, "ess": ess_acc / n}


def _epoch_ppo(policy, inst_batch, schedule, beta_eff, temperature, cfg, ppo_cfg,
               normalizer, adam, lr, rng):
    rollouts, energy_acc, ent_acc = _rollouts(policy, inst_batch, schedule, beta_eff, cfg, rng)
    buffers = [
        (inst, build_buffer(policy, paths, target, schedule, temperature, ppo_cfg,
                            normalizer, inst.condition))
        for inst, target, paths in rollouts
    ]
    loss_acc, n_updates = 0.0, 0
    for _ in range(ppo_cfg.epochs_per_buffer):
        plan = minibatch_plan(cfg.n_paths, cfg.t_steps, cfg.path_minibatch,
                              cfg.t_minibatch, rng)
        for group, k_idx in plan:
            grads = []
            for inst, buf in buffers:
                loss, g, _ = ppo_minibatch_grad(
                    policy, buf, ppo_cfg, group, k_idx, inst.condition
                )
                loss_acc += loss
                grads.append(g)
            adam_step(policy.params, _mean_grads(grads), adam, lr())
            n_updates += 1
    n = len(inst_batch)
    return {"loss": loss_acc / max(1, n_updates * n), "mean_energy": energy_acc / n,
            "entropy": ent_acc / n, "ess": None}


def train(cfg: RunConfig, resume: str | None = None, stop_after: int | None = None) -> dict:
    """Run the configured training loop; writes metrics.csv and checkpoint.npz
    into cfg.out_dir and returns a summary dict.

    `stop_after` interrupts the run after that many epochs (checkpoint and
    metrics reflect the partial run); resuming from the checkpoint continues
    the uninterrupted schedule bit-exactly."""
    cfg.validate()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.npz"
    metrics_path = out_dir / "metrics.csv"

    instances = build_instances(cfg)
    schedule = exp_schedule(cfg.t_steps)
    anneal = build_anneal(cfg)
    ppo_cfg = _ppo_config(cfg)
    total_updates = max(1, cfg.epochs * updates_per_epoch(cfg))
    lr_sched = LrSchedule(cfg.lr_max, total_updates)

    if resume is not None:
        policy, loaded_cfg, adam, normalizer, rng, start_epoch, _ = load_checkpoint(resume)
        if dataclasses.asdict(loaded_cfg) != dataclasses.asdict(cfg):
            raise ConfigError("resume checkpoint was produced by a different config")
    else:
        policy = make_policy(build_policy_spec(cfg), cfg.t_steps, cfg.seed)
        adam = AdamState.for_params(policy.params)
        normalizer = RewardNormalizer(cfg.reward_ma_rate)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        start_epoch = 0

    end_epoch = cfg.epochs if stop_after is None else min(cfg.epochs, start_epoch + stop_after)
    mode = "a" if (resume is not None and metrics_path.exists()) else "w"
    save_checkpoint(ckpt_path, cfg, policy, adam, normalizer, rng, start_epoch)
    last_row = None
    with open(metrics_path, mode, encoding="utf-8") as metrics:
        if mode == "w":
            metrics.write(METRICS_HEADER + "\n")
            metrics.flush()
        for epoch in range(start_epoch, end_epoch):
            temperature = max(anneal.temperature(epoch), TEMPERATURE_FLOOR)
            beta_eff = 1.0 / temperature
            inst_batch = _select_instances(instances, cfg.n_instances, rng)
            lr = lambda: lr_sched.lr(adam.step)
            if cfg.objective == "diffuco":
                row = _epoch_diffuco(policy, inst_batch, schedule, beta_eff,
                                     temperature, cfg, adam, lr, rng)
            elif cfg.objective == "fkl_mc":
                row = _epoch_fkl(policy, inst_batch, schedule, beta_eff, cfg, adam, lr, rng)
            else:
                row = _epoch_ppo(policy, inst_batch, schedule, beta_eff, temperature,
                                 cfg, ppo_cfg, normalizer, adam, lr, rng)
            if not math.isfinite(row["loss"]):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}; last-good checkpoint kept"
                )
            ess_txt = "" if row["ess"] is None else _fmt(row["ess"])
            metrics.write(
                f"{epoch},{_fmt(temperature)},{_fmt(row['loss'])},"
                f"{_fmt(row['mean_energy'])},{_fmt(row['entropy'])},{ess_txt}\n"
            )
            metrics.flush()
            save_checkpoint(ckpt_path, cfg, policy, adam, normalizer, rng, epoch + 1)
            last_row = row
    return {
        "checkpoint": str(ckpt_path),
        "metrics": str(metrics_path),
        "epochs_run": end_epoch - start_epoch,
        "final": last_row,
    }
