"""Run configuration: flat key-value text with sections, fully validated up
front. Unknown sections or keys are errors, as are inconsistent field values
(for example a timestep minibatch larger than the step count)."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

from .energies import CO_PROBLEMS

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "check_types", "is_int"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


OBJECTIVES = ("diffuco", "rkl_rl", "fkl_mc")
PROBLEM_KINDS = ("ising", "ea", "co")


@dataclass
class RunConfig:
    """Every config key; the field order sets the sections (`_SECTION_STARTS`)."""

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
        check_types(self)
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}")
        if self.kind == "co":
            if self.problem not in CO_PROBLEMS:
                raise ConfigError(f"problem.problem must be one of {CO_PROBLEMS}")
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
        if self.t_start < 0:
            raise ConfigError("train.t_start must be >= 0")
        if self.anneal_h <= 0:
            raise ConfigError("train.anneal_h must be > 0")
        if self.ea_dist not in ("normal", "uniform"):
            raise ConfigError("problem.ea_dist must be normal or uniform")
        if not 0 < self.penalty_a < self.penalty_b:
            raise ConfigError("penalties must satisfy 0 < penalty_a < penalty_b")
        if not 0 < self.clip < 1:
            raise ConfigError("ppo.clip must be in (0, 1)")
        if not 0 <= self.value_weight <= 1:
            raise ConfigError("ppo.value_weight must be in [0, 1]")
        if not 0 <= self.trace_decay <= 1:
            raise ConfigError("ppo.trace_decay must be in [0, 1]")
        if not 0 < self.reward_ma_rate <= 1:
            raise ConfigError("ppo.reward_ma_rate must be in (0, 1]")
        if self.epochs_per_buffer < 1:
            raise ConfigError("ppo.epochs_per_buffer must be >= 1")
        return self


def _parse_widths(raw: str) -> tuple:
    return tuple(int(v) for v in raw.replace(",", " ").split())


def _parse_bool(raw: str) -> bool:
    if raw.strip().lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.strip().lower() == "true"


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_types(record) -> None:
    """Raise ConfigError unless each field of the dataclass `record` holds its
    annotated type: a bool only where annotated, ints in a tuple (`hidden`)."""
    for f in fields(record):
        value = getattr(record, f.name)
        if not _TYPE_CHECKS[f.type](value):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


# a key's parser and a field's value check follow its RunConfig field type
# (annotations are strings here)
_PARSERS = {"int": int, "float": float, "str": str.strip, "tuple": _parse_widths,
            "bool": _parse_bool}
_TYPE_CHECKS = {"bool": lambda v: isinstance(v, bool), "int": is_int,
                "float": lambda v: is_int(v) or isinstance(v, float),
                "str": lambda v: isinstance(v, str),
                "tuple": lambda v: isinstance(v, tuple) and all(map(is_int, v))}
_SECTION_STARTS = {"kind": "problem", "arch": "model", "objective": "train", "clip": "ppo"}


def _section_parsers() -> dict:
    """Section -> {key: value parser}: a section holds the RunConfig fields
    from its `_SECTION_STARTS` key up to the next section's."""
    known, section = {}, None
    for f in fields(RunConfig):
        section = _SECTION_STARTS.get(f.name, section)
        known.setdefault(section, {})[f.name] = _PARSERS[f.type]
    return known


_KNOWN = _section_parsers()


def parse_config(text: str) -> RunConfig:
    """Values are read literally (no `%` interpolation). No header can name
    the parser's default section, so `[DEFAULT]` is an unknown section."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
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
                value = _KNOWN[section][key](raw)
            except ValueError as err:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from err
            setattr(cfg, key, value)
    return cfg.validate()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
