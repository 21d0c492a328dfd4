"""The benchmark in perfbench/ times bitdiff from outside the package: a traced
run wraps module functions and class methods with `spans.Tracer`, and a plain
run marks the returns of one function per stage with `spans.UnitClock`.
These checks fail within seconds when a change renames, moves or stops
calling a wrapped name, which would otherwise only show in the minutes-long
perfbench/test_perfbench.py."""

import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

import bitdiff.energies  # noqa: E402
import bitdiff.graphs  # noqa: E402
import bitdiff.objectives  # noqa: E402
import bitdiff.train  # noqa: E402
import bitdiff.unbiased  # noqa: E402
from bitdiff import cli  # noqa: E402
from bitdiff.autodiff import Tensor  # noqa: E402
from bitdiff.energies import CoProblem, EAInstance, IsingLattice2D  # noqa: E402
from bitdiff.graphs import Graph  # noqa: E402
from bitdiff.nets import GnnPolicy, MlpPolicy  # noqa: E402

LATTICE_CFG = """[problem]
kind = ising
lattice_size = 3
beta = 0.5
[model]
hidden = 8
[train]
objective = {objective}
t_steps = 4
epochs = {epochs}
n_paths = 16
t_minibatch = 2
path_minibatch = 8
lr_max = 1e-3
seed = 0
out_dir = {out_dir}
"""

GNN_CFG = """[problem]
kind = co
problem = mis
dataset_dir = {dataset}
[model]
arch = gnn
n_hidden = 8
message_passing = 1
[train]
objective = {objective}
t_steps = 4
epochs = {epochs}
n_paths = 8
n_instances = 2
t_minibatch = 2
path_minibatch = 8
lr_max = 1e-3
seed = 0
out_dir = {out_dir}
anneal = linear_to_zero
"""


def write_config(root: Path, text: str) -> str:
    path = root / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A lattice and a graph checkpoint after zero epochs, and the graph dataset."""
    root = tmp_path_factory.mktemp("hooks")
    dataset = root / "dataset"
    dataset.mkdir()
    for i, graph in enumerate((Graph(3, [(0, 1), (1, 2)]),
                               Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))):
        (dataset / f"graph_{i:05d}.txt").write_text(graph.to_text())
    for name, text in (("lattice", LATTICE_CFG), ("graph", GNN_CFG)):
        (root / name).mkdir()
        cfg = text.format(objective="fkl_mc", epochs=0, out_dir=root / name / "out",
                          dataset=dataset)
        assert cli.main(["train", "--config", write_config(root / name, cfg)]) == 0
    return root


# the workloads whose post-checks read only what their set-up wrote
SETUP_CHECKED = ("lattice-snis", "lattice-nmcmc", "graph-solve", "oracle-ea4")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_and_its_post_checks(name, tmp_path, monkeypatch):
    """Each set-up calls the library the way a benchmark run does (seed-only
    checkpoints, graph datasets, enumeration keywords), and the post-checks
    that need no stage output pass on what it wrote."""
    monkeypatch.chdir(Path(__file__).resolve().parents[1])  # the golden file path is relative
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(1, tmp_path / name)
    if name in SETUP_CHECKED:
        for _, post_check in workload.post_checks(inputs):
            post_check()


def stage_ticks() -> set:
    """Every (owner, attribute) a benchmark stage marks its units on."""
    ticks = {workload.stage(defaultdict(list)).tick for workload in workloads.WORKLOADS.values()}
    ticks.discard(None)
    return ticks


def tick_command(tick, runs: Path, tmp_path: Path) -> list:
    """A small CLI call of the kind the stage marking `tick` times."""
    lattice_ckpt = str(runs / "lattice" / "out" / "checkpoint.npz")
    commands = {
        (bitdiff.train, "save_checkpoint"): ["train", "--config", write_config(
            tmp_path, LATTICE_CFG.format(objective="fkl_mc", epochs=2, out_dir=tmp_path))],
        (MlpPolicy, "probs"): ["estimate", "--checkpoint", lattice_ckpt,
                               "--method", "snis", "--n-samples", "20"],
        (bitdiff.unbiased, "sample_reverse_path"): [
            "estimate", "--checkpoint", lattice_ckpt, "--method", "nmcmc",
            "--chains", "2", "--chain-steps", "300"],
        (cli, "sample_reverse_path"): [
            "solve", "--checkpoint", str(runs / "graph" / "out" / "checkpoint.npz"),
            "--dataset", str(runs / "dataset"), "--n-samples", "4", "--ce",
            "--out", str(tmp_path / "solve.json")],
    }
    assert tick in commands, f"no check for the benchmark tick {tick}"
    return commands[tick]


def saved(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@pytest.mark.parametrize("tick", sorted(stage_ticks(), key=repr), ids=repr)
def test_unit_clock_marks_each_stage_tick(tick, runs, tmp_path, capsys):
    original = saved(*tick)
    clock = spans.UnitClock()
    clock.install(*tick)
    try:
        assert saved(*tick) is not original
        code = cli.main(tick_command(tick, runs, tmp_path))
    finally:
        clock.uninstall()
    assert saved(*tick) is original
    assert code in (0, 4), capsys.readouterr().err  # short chains may not converge
    if tick == (bitdiff.train, "save_checkpoint"):
        assert len(clock.ticks) == 2 + 1  # before the first epoch and after each
    else:
        assert clock.ticks


OWNERS = [bitdiff.train, bitdiff.unbiased, bitdiff.objectives, cli, bitdiff.energies,
          bitdiff.graphs, Tensor, MlpPolicy, GnnPolicy, IsingLattice2D, EAInstance, CoProblem]


def traced(argv) -> tuple:
    """Run one CLI call under a Tracer: (exit code, tracer, span names, whether
    every wrapped attribute was restored afterwards)."""
    before = [dict(owner.__dict__) for owner in OWNERS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    after = [dict(owner.__dict__) for owner in OWNERS]
    restored = all(a.keys() == b.keys() and all(a[k] is b[k] for k in a)
                   for a, b in zip(before, after))
    return code, tracer, [tracer.names[i] for i in tracer.name_id], restored


@pytest.mark.parametrize("method,argv,method_spans", [
    ("snis", ["--n-samples", "300"], ("unbiased.snis", "unbiased.observables")),
    ("nmcmc", ["--chains", "4", "--chain-steps", "3000"], ("unbiased.chain", "unbiased.diag")),
])
def test_tracer_wraps_an_estimate_and_restores(method, argv, method_spans, runs, tmp_path):
    code, _, names, restored = traced([
        "estimate", "--checkpoint", str(runs / "lattice" / "out" / "checkpoint.npz"),
        "--method", method, *argv, "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert restored
    for span in (*method_spans, "diffusion.log_p_hat", "diffusion.sample", "energies.energy"):
        assert span in names, span


@pytest.mark.parametrize("arch,objective", [
    ("lattice", "diffuco"), ("lattice", "rkl_rl"), ("lattice", "fkl_mc"),
    ("graph", "rkl_rl"), ("graph", "fkl_mc"),
])
def test_tracer_wraps_a_training_run_and_restores(arch, objective, runs, tmp_path):
    text = (LATTICE_CFG if arch == "lattice" else GNN_CFG).format(
        objective=objective, epochs=1, out_dir=tmp_path / "out", dataset=runs / "dataset")
    code, tracer, names, restored = traced(["train", "--config", write_config(tmp_path, text)])
    assert code == 0
    assert restored
    for span in ("objectives.grad", "train.epoch", "diffusion.sample",
                 "nets.forward_traced", "optim.adam", "train.checkpoint",
                 "energies.energy", "autodiff.backward"):
        assert span in names, span
    # an rkl_rl rollout takes probabilities and values from one untraced
    # forward inside diffusion.sample, and the buffer reuses those values
    assert ("nets.value" not in names if objective == "rkl_rl" else "nets.forward" in names)
    assert names.count("train.checkpoint") == 1 + 1
    grads = [i for i, n in enumerate(tracer.name_id) if tracer.names[n] == "objectives.grad"]
    assert all(tracer.count[i] > 0 for i in grads)  # each gradient recorded tape nodes
