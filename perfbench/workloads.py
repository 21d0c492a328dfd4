"""The benchmark workloads: inputs from a seed, one timed stage, checks.

Each workload times one use of `bitdiff`: training one objective, one
estimator, CE decoding, or the exact oracle. Its operation is one `bitdiff`
CLI call made in-process through `bitdiff.cli.main`, so the benchmark
measures what a user runs. A workload's inputs (configs, graph datasets,
seed-only checkpoints, brute-force optima, coupling seeds, call arguments)
are a pure function of the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bitdiff.energies
import bitdiff.graphs
import bitdiff.train
import bitdiff.unbiased
from bitdiff import cli
from bitdiff.config import parse_config
from bitdiff.diffusion import exp_schedule, path_log_q, sample_reverse_path
from bitdiff.energies import BoltzmannTarget, EAInstance, IsingLattice2D, write_instance_text
from bitdiff.nets import GnnPolicy, GraphCondition, MlpPolicy
from bitdiff.objectives import RewardNormalizer
from bitdiff.optim import AdamState

BETA_C = 0.4407
GOLDEN_4X4 = Path("tests/data/ising4x4_beta0.4407_golden.json")


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def repeat_cli(argv: list[str], first: dict) -> dict:
    """Run a stage's call and parse its JSON report. Every repeat has the
    same inputs and seed, so it must print exactly what the first printed."""
    out = run_cli(argv)
    check(first.setdefault("stdout", out) == out,
          f"a repeated bitdiff {argv[0]} printed another result")
    return json.loads(out)


def run_cli(argv: list[str]) -> str:
    """One in-process `bitdiff` call; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    check(code == 0, f"bitdiff {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def all_finite(payload: dict) -> bool:
    return all(math.isfinite(v) for v in payload.values()
               if isinstance(v, float))


def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31 - 1, n)]


def write_argv(root: Path, argv: list[str]) -> list[str]:
    """Keep a call's arguments with the inputs, so they are part of the digest."""
    (root / "argv.json").write_text(json.dumps(argv), encoding="utf-8")
    return argv


@dataclass
class Stage:
    """The timed operation of a workload.

    `op()` makes the one CLI call, checks its output and returns the
    per-layer facts it reports (tau, ESS, ...). Every operation is the same
    call on the same inputs, so every operation is the same work:
    `work_per_op` of `work_unit`, reported as `rate_metric` per second.
    `tick` is a function `(owner, attr)` that returns many times in an
    operation: on its returns the run times the host's speed. A training
    call also splits into its `epochs` epochs on the returns of its tick,
    `bitdiff.train.save_checkpoint` (one before the first epoch, one after
    each)."""

    name: str
    op: object
    work_per_op: float
    work_unit: str
    rate_metric: str
    tick: tuple | None = None
    epochs: int = 0


# ---------------------------------------------------------------------------
# shared pieces


def train_stage(objective: str, config_path: Path, out_dir: Path, n_epochs: int) -> Stage:
    """`bitdiff train` calls. Every call trains the same config, so each
    metrics.csv must be byte-identical to the first one."""
    first: dict = {}

    def op():
        run_cli(["train", "--config", str(config_path)])
        metrics = (out_dir / "metrics.csv").read_bytes()
        rows = list(csv.reader(io.StringIO(metrics.decode())))[1:]
        check(len(rows) == n_epochs, "metrics.csv row count")
        check(all(math.isfinite(float(v)) for row in rows for v in row if v),
              "non-finite training metric")
        digest = hashlib.sha256(metrics).hexdigest()
        first.setdefault("sha256", digest)
        check(first["sha256"] == digest, "metrics.csv differs between identical runs")
        return {"metrics_sha256": digest}

    return Stage(objective, op, float(n_epochs), "epochs", "epochs_per_s",
                 tick=(bitdiff.train, "save_checkpoint"), epochs=n_epochs)


def seed_only_checkpoint(path: Path, cfg_text: str) -> None:
    """A checkpoint that depends on the seed alone: fresh parameters, fresh
    optimizer and normalizer state, epoch 0."""
    cfg = parse_config(cfg_text)
    spec = bitdiff.train.build_policy_spec(cfg)
    policy_cls = MlpPolicy if cfg.arch == "mlp" else GnnPolicy
    policy = policy_cls.init(spec, cfg.t_steps, cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    bitdiff.train.save_checkpoint(
        path, cfg, policy, AdamState.for_params(policy.params),
        RewardNormalizer(cfg.reward_ma_rate), rng, 0,
    )


def teacher_forced_check(checkpoint: Path, condition=None) -> None:
    """Teacher-forced `path_log_q` equals the sampling-time log-likelihood."""
    policy, *_ = bitdiff.train.load_checkpoint(checkpoint)
    sched = exp_schedule(policy.n_steps)
    paths = sample_reverse_path(policy, sched, 64, np.random.default_rng(0), condition)
    check(bool(np.allclose(path_log_q(policy, paths, condition), paths.log_q,
                           rtol=0.0, atol=1e-9)), "path_log_q != sampling log_q")


def inputs_digest(root: Path) -> str:
    """Hash of every generated input under `root`, independent of where
    `root` is: paths inside files are relative to it, and checkpoints are
    hashed by content (their zip headers carry a write time)."""
    here = str(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        h.update(p.relative_to(root).as_posix().encode())
        if p.suffix == ".npz":
            with np.load(p) as blob:
                for k in sorted(blob.files):
                    arr = blob[k]
                    data = (str(arr).replace(here, "").encode() if arr.dtype.kind == "U"
                            else np.ascontiguousarray(arr).tobytes())
                    h.update(data)
        else:
            h.update(p.read_bytes().replace(here.encode(), b""))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# lattice: periodic 4x4 ferromagnet at the critical beta, MLP (64, 64), T = 20


LATTICE_TRAIN = {
    # objective: (n_paths, path_minibatch, t_minibatch, lr_max)
    "fkl_mc": (512, 256, 5, 3e-3),
    "rkl_rl": (256, 128, 5, 1e-3),
    "diffuco": (256, 256, 5, 1e-3),
}
LATTICE_EPOCHS = 6
T_STEPS = 20
SNIS_SAMPLES = 20000
NMCMC_CHAINS, NMCMC_STEPS = 16, 3000


def lattice_config(objective: str, seed: int, out_dir: Path, epochs: int) -> str:
    n_paths, path_mb, t_mb, lr = LATTICE_TRAIN[objective]
    return f"""[problem]
kind = ising
lattice_size = 4
beta = {BETA_C}

[model]
arch = mlp
hidden = 64 64
kernel_start = true

[train]
objective = {objective}
t_steps = {T_STEPS}
epochs = {epochs}
n_paths = {n_paths}
t_minibatch = {t_mb}
path_minibatch = {path_mb}
lr_max = {lr}
seed = {seed}
out_dir = {out_dir}
anneal = ising_decay
anneal_h = 8
"""


class LatticeTrain:
    """`bitdiff train` of one objective on the 4x4 lattice."""

    def __init__(self, objective: str):
        self.objective = objective
        self.name = f"lattice-{objective}"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        train_seed, _ = sub_seeds(seed, 2)
        out_dir = root / "out"
        config = root / "train.cfg"
        config.write_text(lattice_config(self.objective, train_seed, out_dir, LATTICE_EPOCHS),
                          encoding="utf-8")
        return {"config": config, "out_dir": out_dir}

    def stage(self, inputs: dict) -> Stage:
        return train_stage(self.objective, inputs["config"], inputs["out_dir"], LATTICE_EPOCHS)

    def post_checks(self, inputs: dict) -> list:
        return [("teacher_forced",
                 lambda: teacher_forced_check(inputs["out_dir"] / "checkpoint.npz"))]


class LatticeEstimate:
    """`bitdiff estimate` with one method from a seed-only 4x4 checkpoint.
    The set-up also enumerates the exact 4x4 reference."""

    def __init__(self, method: str):
        self.method = method
        self.name = f"lattice-{method}"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        train_seed, estimate_seed = sub_seeds(seed, 2)
        snis_seed, nmcmc_seed = sub_seeds(estimate_seed, 2)
        checkpoint = root / "seed_checkpoint.npz"
        seed_only_checkpoint(checkpoint, lattice_config("fkl_mc", train_seed, root, 1))
        target = BoltzmannTarget(IsingLattice2D(4), BETA_C)
        exact = bitdiff.energies.enumerate_observables(target, with_probabilities=False)
        argv = ["estimate", "--checkpoint", str(checkpoint), "--method", self.method]
        if self.method == "snis":
            argv += ["--n-samples", str(SNIS_SAMPLES), "--seed", str(snis_seed)]
        else:
            argv += ["--chains", str(NMCMC_CHAINS), "--chain-steps", str(NMCMC_STEPS),
                     "--seed", str(nmcmc_seed)]
        return {"checkpoint": checkpoint, "exact": exact, "argv": write_argv(root, argv)}

    def stage(self, inputs: dict) -> Stage:
        first: dict = {}

        def snis():
            rep = repeat_cli(inputs["argv"], first)
            check(all_finite(rep), "non-finite SNIS estimate")
            ess = rep["ess_per_sample"]
            check(1.0 / SNIS_SAMPLES <= ess <= 1.0, f"ESS per sample {ess} outside [1/M, 1]")
            s_identity = rep["beta"] * (rep["U_per_site"] - rep["F_per_site"])
            check(abs(rep["S_per_site"] - s_identity) <= 1e-9 * max(1.0, abs(s_identity)),
                  "S != beta * (U - F)")
            return {"unbiased.ess_per_sample": ess}

        def nmcmc():
            rep = repeat_cli(inputs["argv"], first)
            check(all_finite(rep) and rep["tau"] is not None, "NMCMC report not finite")
            check(0.0 < rep["acceptance_rate"] <= 1.0, "acceptance rate outside (0, 1]")
            check(rep["burn_in"] < NMCMC_STEPS, "burn-in longer than the chains")
            return {"unbiased.tau": rep["tau"],
                    "unbiased.acceptance_rate": rep["acceptance_rate"]}

        if self.method == "snis":
            # ticks on each reverse step of the 20,000-path chunk
            return Stage("snis", snis, float(SNIS_SAMPLES), "paths", "snis_paths_per_s",
                         tick=(MlpPolicy, "probs"))
        # chains x steps, diagnostics included; ticks on each chain step
        return Stage("nmcmc", nmcmc, float(NMCMC_CHAINS * NMCMC_STEPS), "proposals",
                     "nmcmc_props_per_s", tick=(bitdiff.unbiased, "sample_reverse_path"))

    def post_checks(self, inputs: dict) -> list:
        def golden():
            want = json.loads(GOLDEN_4X4.read_text(encoding="utf-8"))
            got = inputs["exact"]
            check(abs(got.log_z - want["log_z"]) <= 1e-9 * abs(want["log_z"])
                  and abs(got.internal_energy - want["internal_energy"])
                  <= 1e-9 * abs(want["internal_energy"]),
                  "4x4 enumeration does not match the golden file")

        return [("golden_4x4", golden),
                ("teacher_forced", lambda: teacher_forced_check(inputs["checkpoint"]))]


# ---------------------------------------------------------------------------
# graph: MIS on preferential-attachment graphs (10-14 nodes, m = 4) with a GNN


GRAPH_EPOCHS = 2
SOLVE_SAMPLES = 30


def graph_config(objective: str, seed: int, dataset: Path, out_dir: Path, epochs: int) -> str:
    return f"""[problem]
kind = co
problem = mis
dataset_dir = {dataset}

[model]
arch = gnn
n_hidden = 32
message_passing = 3
kernel_start = true

[train]
objective = {objective}
t_steps = 8
epochs = {epochs}
n_paths = 16
n_instances = 8
t_minibatch = 4
path_minibatch = 16
lr_max = 1e-2
seed = {seed}
out_dir = {out_dir}
anneal = linear_to_zero
t_start = 0.5
"""


def graph_seeds(seed: int) -> list[int]:
    """(train graphs, test graphs, training, solve) seeds."""
    return sub_seeds(seed, 4)


def gen_graphs(root: Path, split: str, count: int, seed: int) -> Path:
    run_cli(["gen-graphs", "--kind", "ba", "--out", str(root / split),
             "--count", str(count), "--min-nodes", "10", "--max-nodes", "14",
             "--ba-m", "4", "--seed", str(seed), "--problem", "mis"])
    return root / split


class GraphTrain:
    """`bitdiff train` of one objective on 200 BA graphs."""

    def __init__(self, objective: str):
        self.objective = objective
        self.name = f"graph-{objective}"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        graphs_seed, _, train_seed, _ = graph_seeds(seed)
        dataset = gen_graphs(root, "train", 200, graphs_seed)
        out_dir = root / "out"
        config = root / "train.cfg"
        config.write_text(graph_config(self.objective, train_seed, dataset, out_dir,
                                       GRAPH_EPOCHS), encoding="utf-8")
        return {"config": config, "out_dir": out_dir, "dataset": dataset}

    def stage(self, inputs: dict) -> Stage:
        return train_stage(self.objective, inputs["config"], inputs["out_dir"], GRAPH_EPOCHS)

    def post_checks(self, inputs: dict) -> list:
        def teacher_forced():
            graph = bitdiff.train.load_dataset(str(inputs["dataset"]))[0]
            teacher_forced_check(inputs["out_dir"] / "checkpoint.npz", GraphCondition(graph))

        return [("teacher_forced", teacher_forced)]


class GraphSolve:
    """`bitdiff solve --ce` from a seed-only GNN checkpoint on 50 held-out BA
    graphs whose optima the set-up finds by brute force."""

    name = "graph-solve"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        _, graphs_seed, train_seed, solve_seed = graph_seeds(seed)
        dataset = gen_graphs(root, "test", 50, graphs_seed)
        graphs = bitdiff.train.load_dataset(str(dataset))
        optima = [bitdiff.graphs.brute_force_co("mis", g).optimal_size for g in graphs]
        (root / "optima.json").write_text(json.dumps(optima), encoding="utf-8")
        checkpoint = root / "seed_checkpoint.npz"
        seed_only_checkpoint(checkpoint, graph_config("fkl_mc", train_seed, dataset, root, 1))
        argv = ["solve", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                "--n-samples", str(SOLVE_SAMPLES), "--ce", "--seed", str(solve_seed)]
        return {"checkpoint": checkpoint, "graphs": graphs, "optima": optima,
                "argv": write_argv(root, argv)}

    def stage(self, inputs: dict) -> Stage:
        optima = inputs["optima"]
        first: dict = {}

        def solve():
            rep = repeat_cli(inputs["argv"], first)
            check(len(rep["instances"]) == len(optima), "solve skipped instances")
            for entry, best in zip(rep["instances"], optima):
                check(entry["n_feasible"] == SOLVE_SAMPLES,
                      f"infeasible CE output on instance {entry['instance']}")
                check(entry["best_size"] <= best,
                      f"CE beat the brute-force optimum on instance {entry['instance']}")
                check(all_finite(entry), "non-finite solve field")
            feasible = sum(e["n_feasible"] for e in rep["instances"])
            return {"decode.feasible_share": feasible / (SOLVE_SAMPLES * len(optima))}

        # ticks on each graph's path sample
        return Stage("solve", solve, float(len(optima)), "graphs", "solve_graphs_per_s",
                     tick=(cli, "sample_reverse_path"))

    def post_checks(self, inputs: dict) -> list:
        return [("teacher_forced",
                 lambda: teacher_forced_check(inputs["checkpoint"],
                                              GraphCondition(inputs["graphs"][0])))]


# ---------------------------------------------------------------------------
# oracle-ea4


ORACLE_BETA = 1.0


def independent_ea_energy(instance_text: str, states: np.ndarray) -> np.ndarray:
    """EA energy -sum_b J_b s_i s_j straight from the instance text's bond lines."""
    bonds = [line.split() for line in instance_text.splitlines()
             if len(line.split()) == 3 and line.split()[0].isdigit()]
    spins = 2.0 * states.astype(np.float64) - 1.0
    energy = np.zeros(len(states))
    for i, j, w in bonds:
        energy -= float(w) * spins[:, int(i)] * spins[:, int(j)]
    return energy


class OracleEa4:
    """`bitdiff oracle` on a 4x4 Edwards-Anderson instance with normal
    couplings: exact enumeration of 2^16 states in one energy call."""

    name = "oracle-ea4"

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        (ea_seed,) = sub_seeds(seed, 1)
        argv = ["oracle", "--problem", "ea", "--lattice-size", "4", "--ea-dist", "normal",
                "--ea-seed", str(ea_seed), "--beta", str(ORACLE_BETA)]
        return {"ea_seed": ea_seed, "argv": write_argv(root, argv)}

    def stage(self, inputs: dict) -> Stage:
        first: dict = {}

        def oracle():
            rep = repeat_cli(inputs["argv"], first)
            check(all_finite(rep), "non-finite oracle output")
            s_identity = rep["beta"] * (rep["U"] - rep["F"])
            check(abs(rep["S"] - s_identity) <= 1e-9 * max(1.0, abs(s_identity)),
                  "S != beta * (U - F)")
            return {}

        return Stage("oracle", oracle, float(1 << 16), "states", "oracle_states_per_s")

    def post_checks(self, inputs: dict) -> list:
        def independent():
            model = EAInstance.normal(4, inputs["ea_seed"])
            mine = independent_ea_energy(write_instance_text(model),
                                         bitdiff.energies.all_states(16))
            check(np.allclose(model.energy(bitdiff.energies.all_states(16)), mine,
                              rtol=0, atol=1e-9),
                  "EA energy differs from the bond-list formula")
            log_z = float(np.logaddexp.reduce(-ORACLE_BETA * mine))
            rep = json.loads(run_cli(inputs["argv"]))
            check(abs(rep["log_z"] - log_z) <= 1e-9 * abs(log_z),
                  "oracle log Z differs from independent enumeration")

        return [("independent_ea", independent)]


WORKLOADS = {w.name: w for w in (
    LatticeTrain("fkl_mc"), LatticeTrain("rkl_rl"), LatticeTrain("diffuco"),
    LatticeEstimate("snis"), LatticeEstimate("nmcmc"),
    GraphTrain("rkl_rl"), GraphTrain("fkl_mc"), GraphSolve(), OracleEa4(),
)}
