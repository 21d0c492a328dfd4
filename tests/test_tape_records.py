"""Activation records per gradient call, as the benchmark pins them.

perfbench/test_perfbench.py traces whole benchmark runs and checks how many
tape records one gradient call of each training workload stores (its
`EXPECTED` table). A change that fuses, splits or adds tape nodes moves those
counts; this check finds that in seconds, by training one small epoch with
each workload's own model configuration."""

import ast
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

import bitdiff.train  # noqa: E402
from bitdiff import autodiff as ad  # noqa: E402
from bitdiff.config import parse_config  # noqa: E402
from bitdiff.graphs import Graph  # noqa: E402

GRAD_FUNCTIONS = ("fkl_mc_grad", "ppo_minibatch_grad", "diffuco_loss_grad")


def pinned_records_per_grad() -> dict:
    """Workload name -> records per gradient, read from the benchmark's
    self-test so the two cannot drift apart."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] \
                == ["EXPECTED"]:
            return {name: records for name, (_, records) in ast.literal_eval(node.value).items()}
    raise AssertionError("perfbench/test_perfbench.py has no EXPECTED table")


def workload_config(name: str, root: Path):
    """The benchmark's configuration for `name`, on fewer paths and graphs
    (the tape of one gradient call does not depend on its row count)."""
    kind, objective = name.split("-")
    if kind == "lattice":
        text = workloads.lattice_config(objective, 0, root / "out", 1)
    else:
        dataset = root / "dataset"
        dataset.mkdir()
        for i, graph in enumerate((Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]),
                                   Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))):
            (dataset / f"graph_{i:05d}.txt").write_text(graph.to_text())
        text = workloads.graph_config(objective, 0, dataset, root / "out", 1)
    return replace(parse_config(text), n_paths=8, path_minibatch=8, n_instances=2)


@pytest.mark.parametrize("name", ["lattice-fkl_mc", "lattice-rkl_rl", "lattice-diffuco",
                                  "graph-fkl_mc", "graph-rkl_rl"])
def test_records_per_gradient_match_the_benchmark(name, tmp_path, monkeypatch):
    records = []
    for attr in GRAD_FUNCTIONS:
        def counted(*args, _grad=getattr(bitdiff.train, attr), **kwargs):
            before = ad.activation_records()
            out = _grad(*args, **kwargs)
            records.append(ad.activation_records() - before)
            return out

        monkeypatch.setattr(bitdiff.train, attr, counted)
    bitdiff.train.train(workload_config(name, tmp_path))
    assert records, "no gradient call in one epoch"
    assert set(records) == {pinned_records_per_grad()[name]}
