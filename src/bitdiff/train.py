"""Training drivers for the three objectives, with per-epoch metrics and
bit-exact resumable checkpoints.

One epoch collects fresh on-policy paths for a batch of problem instances
(lattice problems have a single unconditioned instance), then applies the
selected objective:

- ``diffuco``: one full-path gradient step per epoch.
- ``fkl_mc``: importance-weighted updates over (path, timestep) minibatches.
- ``rkl_rl``: PPO passes over the frozen buffer.

Checkpoints carry the run config, parameters, optimizer moments,
reward-normalizer state and the RNG state, so resuming reproduces the
uninterrupted run byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Arena
from .config import ConfigError, RunConfig, check_types, is_int
from .diffusion import exp_schedule, sample_reverse_path
from .energies import BoltzmannTarget, build_lattice, write_instance_text
from .graphs import Graph
from .nets import GnnSpec, GraphCondition, MlpSpec, make_policy, param_shapes
from .objectives import (
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
    "anneal_temperature",
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
    """One training problem: the energy model `make` builds and, for graph
    problems, the graph the policy is conditioned on. The model and the
    conditioning are built on first use: an epoch trains on a few graphs."""

    make: Callable[[], object]
    graph: Graph | None = None

    @functools.cached_property
    def energy_model(self):
        return self.make()

    @functools.cached_property
    def condition(self) -> GraphCondition | None:
        return None if self.graph is None else GraphCondition(self.graph)


def load_dataset(dataset_dir: str) -> list[Graph]:
    root = Path(dataset_dir)
    manifest = root / "manifest.json"
    if manifest.exists():
        meta = json.loads(manifest.read_text(encoding="utf-8"))
        files = meta.get("files") if isinstance(meta, dict) else None
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise ConfigError(f"{manifest} must be an object whose 'files' is a list of "
                              "graph file names")
        paths = [root / f for f in files]
    else:
        paths = sorted(root.glob("graph_*.txt"))
    if not paths:
        raise ConfigError(f"no graphs found in {dataset_dir}")
    return [Graph.from_text(p.read_text(encoding="utf-8")) for p in paths]


def build_instances(cfg: RunConfig, instance_text: str) -> list[Instance]:
    """The run's problem: one instance per dataset graph for `co`, else the
    one lattice. An EA lattice comes from `instance_text`, a checkpoint's
    stored instance, when given; otherwise from the config, which reads
    `instance_file` here."""
    if cfg.kind == "co":
        return [Instance(functools.partial(g.co_problem, cfg.problem, cfg.penalty_a,
                                           cfg.penalty_b), g)
                for g in load_dataset(cfg.dataset_dir)]
    if cfg.kind == "ea" and not instance_text and cfg.instance_file:
        instance_text = Path(cfg.instance_file).read_text(encoding="utf-8")
    model = build_lattice(cfg.kind, cfg.lattice_size, cfg.coupling, cfg.ea_dist, cfg.ea_seed,
                          instance_text)
    return [Instance(lambda: model)]


def build_policy_spec(cfg: RunConfig):
    value_head = cfg.objective == "rkl_rl"
    if cfg.arch == "mlp":
        return MlpSpec(n_bits=cfg.lattice_size ** 2, hidden=tuple(cfg.hidden),
                       value_head=value_head, kernel_start=cfg.kernel_start)
    return GnnSpec(n_hidden=cfg.n_hidden, n_message_passing=cfg.message_passing,
                   value_head=value_head, kernel_start=cfg.kernel_start)


def anneal_temperature(cfg: RunConfig, epoch: int) -> float:
    """The temperature of `epoch` under the config's anneal.

    `linear_to_zero`: t_start * (1 - epoch / epochs), floored at zero.
    `ising_decay`: (1 / beta) / (1 - 0.998^(anneal_h * (epoch + 1))), which
    decays from above toward the target temperature 1 / beta.
    """
    if cfg.anneal == "linear_to_zero":
        return cfg.t_start * max(0.0, 1.0 - epoch / max(1, cfg.epochs))
    return (1.0 / cfg.beta) / (1.0 - 0.998 ** (cfg.anneal_h * (epoch + 1)))


def updates_per_epoch(cfg: RunConfig) -> int:
    if cfg.objective == "diffuco":
        return 1
    n_path_chunks = -(-cfg.n_paths // cfg.path_minibatch)
    n_t_chunks = -(-cfg.t_steps // cfg.t_minibatch)
    per_pass = n_path_chunks * n_t_chunks
    if cfg.objective == "fkl_mc":
        return per_pass
    return per_pass * cfg.epochs_per_buffer


def save_checkpoint(path, cfg: RunConfig, policy, adam: AdamState, normalizer: RewardNormalizer,
                    rng, epoch_next: int, instance_text: str = "") -> None:
    meta = {
        "version": 1,
        "epoch_next": epoch_next,
        "adam_step": adam.step,
        # the running statistics; the rate is the config's
        "normalizer": {"mean": normalizer.mean, "var": normalizer.var,
                       "initialized": normalizer.initialized},
        "rng_state": rng.bit_generator.state,
        "config": dataclasses.asdict(cfg),
    }
    if cfg.kind == "ea":  # the config only names the instance file, which may change
        if not instance_text:
            raise ValueError("an ea checkpoint must hold its instance text")
        meta["problem"] = {"instance_text": instance_text}
    arrays = {f"param::{k}": v for k, v in policy.params.items()}
    arrays.update(adam.state_arrays())
    # written beside `path` and renamed over it, so a kill mid-write leaves
    # the previous checkpoint whole
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta), **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Returns (policy, cfg, adam, normalizer, rng, epoch_next, instance_text).

    A checkpoint holds the run config, parameters, Adam moments, normalizer
    statistics, RNG state, `epoch_next` and an EA run's instance text (""
    otherwise). The config and counters, validated here, are the one record
    of the run; older layouts' `arch`, `t_steps`, other `problem` fields and
    normalizer `rate` are ignored. Raises ConfigError when the file cannot be
    read or is invalid, or lacks a field or array the architecture needs."""
    try:
        with np.load(path, allow_pickle=False) as blob:
            meta = json.loads(str(blob["meta"]))
            arrays = {k: blob[k] for k in blob.files if k != "meta"}
        cfg = RunConfig(**meta["config"])
        cfg.hidden = tuple(cfg.hidden)
        cfg.validate()
        spec = build_policy_spec(cfg)
        adam = AdamState.from_arrays(arrays, step=meta["adam_step"])
        norm = meta["normalizer"]
        normalizer = RewardNormalizer(cfg.reward_ma_rate, norm["mean"], norm["var"],
                                      norm["initialized"])
        rng = np.random.default_rng(0)
        state = meta["rng_state"]
        state["state"] = {k: int(v) for k, v in state["state"].items()}
        rng.bit_generator.state = state
        epoch_next = meta["epoch_next"]
        check_types(normalizer)
        if not (is_int(epoch_next) and 0 <= epoch_next <= cfg.epochs and is_int(adam.step)
                and adam.step >= 0 and math.isfinite(normalizer.mean + normalizer.var)):
            raise ValueError("epoch_next must be an int in 0..epochs, adam_step an int >= 0 "
                             "and the normalizer statistics finite")
        text = meta["problem"]["instance_text"] if cfg.kind == "ea" else ""
        if cfg.kind == "ea" and not (isinstance(text, str) and text):
            raise ValueError("an ea checkpoint must hold its instance text")
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise ConfigError(f"cannot read checkpoint {path}: {err}") from err
    params = {k[len("param::"):]: arrays[k] for k in arrays if k.startswith("param::")}
    want = {k: (shape, np.dtype(np.float64)) for k, shape in param_shapes(spec).items()}
    if any({k: (a.shape, a.dtype) for k, a in group.items()} != want
           for group in (params, adam.m, adam.v)):
        raise ConfigError(f"checkpoint {path} does not hold the float64 arrays of the shapes "
                          "its architecture needs")
    policy = make_policy(spec, cfg.t_steps, params=params)
    return policy, cfg, adam, normalizer, rng, epoch_next, text


def _select_instances(instances, n: int, rng) -> list:
    if len(instances) <= n:
        return list(instances)
    idx = rng.choice(len(instances), size=n, replace=False)
    return [instances[i] for i in idx]


def _fmt(value) -> str:
    return f"{value:.17g}"


def _mean_grads(per_instance: list) -> dict:
    """Mean of per-instance gradient dicts, summed in instance order."""
    total = per_instance[0]
    for grads in per_instance[1:]:
        total = {k: total[k] + grads[k] for k in grads}
    return {k: v / len(per_instance) for k, v in total.items()}


def _epoch_diffuco(policy, rollouts, schedule, temperature, cfg, normalizer, adam, lr, rng):
    grads, loss_acc = [], 0.0
    with Arena():
        for inst, target, paths, energy in rollouts:
            loss, g, _ = diffuco_loss_grad(
                policy, target, schedule, paths, energy, temperature, inst.condition
            )
            loss_acc += loss
            grads.append(g)
    adam_step(policy.params, _mean_grads(grads), adam, lr())
    return loss_acc / len(rollouts), None


def _minibatch_updates(policy, grad, items, plans, adam, lr) -> float:
    """One Adam step per (path_idx, k_idx) of each plan, on the mean over the
    (a, b, condition) `items` of `grad(policy, a, b, path_idx, k_idx,
    condition)`, summed in item order. Returns the mean loss over all
    updates and items. The gradient calls share one `Arena`, freed when the
    updates end."""
    loss_acc, n_updates = 0.0, 0
    with Arena():
        for plan in plans:
            for path_idx, k_idx in plan:
                grads = []
                for a, b, condition in items:
                    loss, g, _ = grad(policy, a, b, path_idx, k_idx, condition)
                    loss_acc += loss
                    grads.append(g)
                adam_step(policy.params, _mean_grads(grads), adam, lr())
                n_updates += 1
    return loss_acc / max(1, n_updates * len(items))


def _epoch_fkl(policy, rollouts, schedule, temperature, cfg, normalizer, adam, lr, rng):
    # each rollout is scored once: its log-weights give the ESS here and
    # every minibatch's self-normalized weights in fkl_mc_grad
    items, ess_acc = [], 0.0
    for inst, target, paths, energy in rollouts:
        log_w, sums = fkl_importance_weights(paths, energy, target, schedule)
        ess_acc += effective_sample_size(sums)
        items.append((paths, log_w, inst.condition))
    plans = [minibatch_plan(cfg.n_paths, cfg.t_steps, cfg.path_minibatch, cfg.t_minibatch, rng)]
    return (_minibatch_updates(policy, fkl_mc_grad, items, plans, adam, lr),
            ess_acc / len(rollouts))


def _epoch_ppo(policy, rollouts, schedule, temperature, cfg, normalizer, adam, lr, rng):
    items = [
        (build_buffer(policy, paths, energy, target, schedule, temperature, cfg, normalizer),
         cfg, inst.condition)
        for inst, target, paths, energy in rollouts
    ]
    # one plan per pass over the buffers, drawn when the pass starts
    plans = (minibatch_plan(cfg.n_paths, cfg.t_steps, cfg.path_minibatch, cfg.t_minibatch, rng)
             for _ in range(cfg.epochs_per_buffer))
    return _minibatch_updates(policy, ppo_minibatch_grad, items, plans, adam, lr), None


# Each objective's epoch body: it takes the epoch's rollouts, (instance, tempered
# target, paths, energies) in batch order, and returns (mean loss, mean ESS or
# None). Looked up by name every epoch, so a wrapper set on the module is called.
_EPOCH_BODIES = {"diffuco": "_epoch_diffuco", "fkl_mc": "_epoch_fkl", "rkl_rl": "_epoch_ppo"}


def train(cfg: RunConfig | None, resume: str | None = None, stop_after: int | None = None) -> dict:
    """Run the configured training loop; writes metrics.csv and checkpoint.npz
    into cfg.out_dir and returns a summary dict.

    `resume` continues from a checkpoint, whose stored config the run uses
    when `cfg` is None and must equal otherwise. `stop_after` interrupts the
    run after that many epochs (checkpoint and metrics reflect the partial
    run); resuming from the checkpoint continues the uninterrupted schedule
    bit-exactly."""
    if cfg is not None:
        cfg.validate()
    if resume is not None:
        # a resumed run trains on its stored instance, whatever its file now holds
        policy, loaded_cfg, adam, normalizer, rng, start_epoch, text = load_checkpoint(resume)
        if cfg is not None and dataclasses.asdict(loaded_cfg) != dataclasses.asdict(cfg):
            raise ConfigError("resume checkpoint was produced by a different config")
        cfg = loaded_cfg
    else:
        policy = make_policy(build_policy_spec(cfg), cfg.t_steps, cfg.seed)
        adam = AdamState.for_params(policy.params)
        normalizer = RewardNormalizer(cfg.reward_ma_rate)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        start_epoch, text = 0, ""
    instances = build_instances(cfg, text)
    if cfg.kind == "ea" and not text:
        text = write_instance_text(instances[0].energy_model)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.npz"
    metrics_path = out_dir / "metrics.csv"
    schedule = exp_schedule(cfg.t_steps)
    total_updates = max(1, cfg.epochs * updates_per_epoch(cfg))
    lr_sched = LrSchedule(cfg.lr_max, total_updates)

    end_epoch = cfg.epochs if stop_after is None else min(cfg.epochs, start_epoch + stop_after)
    mode = "w"
    if resume is not None and metrics_path.exists():
        # a kill between a row's flush and its checkpoint leaves rows past
        # epoch_next; keep the header and the rows the checkpoint covers
        with open(metrics_path, "r+b") as fh:
            for _ in range(1 + start_epoch):
                fh.readline()
            fh.truncate(fh.tell())
        mode = "a"
    save_checkpoint(ckpt_path, cfg, policy, adam, normalizer, rng, start_epoch, text)
    last_row = None
    with open(metrics_path, mode, encoding="utf-8") as metrics:
        if mode == "w":
            metrics.write(METRICS_HEADER + "\n")
            metrics.flush()
        for epoch in range(start_epoch, end_epoch):
            temperature = max(anneal_temperature(cfg, epoch), TEMPERATURE_FLOOR)
            # fresh on-policy paths for each instance in batch order, each batch scored once
            rollouts, energy_acc, ent_acc = [], 0.0, 0.0
            for inst in _select_instances(instances, cfg.n_instances, rng):
                target = BoltzmannTarget(inst.energy_model, 1.0 / temperature)
                paths = sample_reverse_path(policy, schedule, cfg.n_paths, rng, inst.condition)
                energy = target.energy(paths.x0)
                rollouts.append((inst, target, paths, energy))
                energy_acc += float(np.mean(energy))
                ent_acc += -float(paths.log_q.mean())
            lr = lambda: lr_sched.lr(adam.step)
            loss, ess = globals()[_EPOCH_BODIES[cfg.objective]](
                policy, rollouts, schedule, temperature, cfg, normalizer, adam, lr, rng)
            n = len(rollouts)
            row = {"loss": loss, "mean_energy": energy_acc / n, "entropy": ent_acc / n, "ess": ess}
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
            save_checkpoint(ckpt_path, cfg, policy, adam, normalizer, rng, epoch + 1, text)
            last_row = row
    return {
        "checkpoint": str(ckpt_path),
        "metrics": str(metrics_path),
        "epochs_run": end_epoch - start_epoch,
        "final": last_row,
    }
