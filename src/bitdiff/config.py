"""Run configuration: flat key-value text with sections, fully validated up
front. Unknown sections or keys are errors, as are inconsistent field values
(for example a timestep minibatch larger than the step count)."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


_KNOWN = {
    "problem": {
        "kind", "problem", "lattice_size", "coupling", "beta",
        "ea_seed", "ea_dist", "instance_file", "dataset_dir",
        "penalty_a", "penalty_b",
    },
    "model": {"arch", "hidden", "n_hidden", "message_passing", "kernel_start"},
    "train": {
        "objective", "t_steps", "epochs", "n_paths", "n_instances",
        "t_minibatch", "path_minibatch", "lr_max", "seed", "out_dir",
        "anneal", "t_start", "anneal_h",
    },
    "ppo": {"clip", "value_weight", "trace_decay", "reward_ma_rate", "epochs_per_buffer"},
}

OBJECTIVES = ("diffuco", "rkl_rl", "fkl_mc")
PROBLEM_KINDS = ("ising", "ea", "co")
CO_KINDS = ("mis", "mds", "maxcl", "maxcut")


@dataclass
class RunConfig:
    # problem
    kind: str = "ising"
    problem: str = "mis"  # co only
    lattice_size: int = 4
    coupling: float = 1.0
    beta: float = 0.4407
    ea_seed: int = 0
    ea_dist: str = "normal"
    instance_file: str = ""
    dataset_dir: str = ""
    penalty_a: float = 1.0
    penalty_b: float = 1.1
    # model
    arch: str = "mlp"
    hidden: tuple = (64, 64)
    n_hidden: int = 64
    message_passing: int = 3
    kernel_start: bool = True
    # train
    objective: str = "fkl_mc"
    t_steps: int = 24
    epochs: int = 200
    n_paths: int = 256
    n_instances: int = 8
    t_minibatch: int = 6
    path_minibatch: int = 128
    lr_max: float = 5e-3
    seed: int = 0
    out_dir: str = "run"
    anneal: str = "ising_decay"
    t_start: float = 2.0
    anneal_h: float = 8.0
    # ppo
    clip: float = 0.2
    value_weight: float = 0.5
    trace_decay: float = 0.95
    reward_ma_rate: float = 0.01
    epochs_per_buffer: int = 2

    def validate(self) -> "RunConfig":
        for name in sorted(_FLOAT_FIELDS):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")
        if self.kind == "co":
            if self.problem not in CO_KINDS:
                raise ConfigError(f"problem.problem must be one of {CO_KINDS}")
            if not self.dataset_dir:
                raise ConfigError("co problems require problem.dataset_dir")
            if self.arch != "gnn":
                raise ConfigError("co problems require model.arch = gnn")
        else:
            if self.arch != "mlp":
                raise ConfigError("lattice problems require model.arch = mlp")
            if self.lattice_size < 3:
                raise ConfigError("lattice_size must be >= 3")
            if self.beta <= 0:
                raise ConfigError("beta must be > 0")
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigError("model.hidden must list one or more widths, each >= 1")
        if self.n_hidden < 1:
            raise ConfigError("model.n_hidden must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"train.objective must be one of {OBJECTIVES}")
        if self.t_steps < 1:
            raise ConfigError("t_steps must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.n_instances < 1:
            raise ConfigError("n_instances must be >= 1")
        if not 1 <= self.t_minibatch <= self.t_steps:
            raise ConfigError("t_minibatch must be in 1..t_steps")
        if self.path_minibatch < 1:
            raise ConfigError("path_minibatch must be >= 1")
        if self.lr_max <= 0:
            raise ConfigError("lr_max must be > 0")
        if self.anneal not in ("linear_to_zero", "ising_decay"):
            raise ConfigError("train.anneal must be linear_to_zero or ising_decay")
        if self.ea_dist not in ("normal", "uniform"):
            raise ConfigError("problem.ea_dist must be normal or uniform")
        if not self.penalty_a < self.penalty_b:
            raise ConfigError("penalty_a must be < penalty_b")
        if not 0 < self.clip < 1:
            raise ConfigError("ppo.clip must be in (0, 1)")
        if not 0 <= self.value_weight <= 1:
            raise ConfigError("ppo.value_weight must be in [0, 1]")
        if not 0 <= self.trace_decay <= 1:
            raise ConfigError("ppo.trace_decay must be in [0, 1]")
        if self.epochs_per_buffer < 1:
            raise ConfigError("ppo.epochs_per_buffer must be >= 1")
        return self


_INT_FIELDS = {
    "lattice_size", "ea_seed", "t_steps", "epochs", "n_paths", "n_instances",
    "t_minibatch", "path_minibatch", "seed", "n_hidden", "message_passing",
    "epochs_per_buffer",
}
_FLOAT_FIELDS = {
    "coupling", "beta", "penalty_a", "penalty_b", "lr_max", "t_start", "anneal_h",
    "clip", "value_weight", "trace_decay", "reward_ma_rate",
}


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from err
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                if key == "hidden":
                    value = tuple(int(v) for v in raw.replace(",", " ").split())
                elif key == "kernel_start":
                    if raw.strip().lower() not in ("true", "false"):
                        raise ValueError(raw)
                    value = raw.strip().lower() == "true"

                elif key in _INT_FIELDS:
                    value = int(raw)
                elif key in _FLOAT_FIELDS:
                    value = float(raw)
                else:
                    value = raw.strip()
            except ValueError as err:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from err
            setattr(cfg, key, value)
    return cfg.validate()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
