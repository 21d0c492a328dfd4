import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitdiff.objectives
import bitdiff.train
from bitdiff import cli
from bitdiff import config, nets
from bitdiff.config import ConfigError, RunConfig, parse_config
from bitdiff.diffusion import exp_schedule, sample_reverse_path
from bitdiff.energies import CO_PROBLEMS, CoProblem, EAInstance, IsingLattice2D, write_instance_text
from bitdiff.graphs import Graph, gen_ba
from bitdiff.nets import GraphCondition
from bitdiff.train import load_checkpoint, load_dataset, train

from oracles import conditional_expectation_direct, is_feasible_direct, solution_size_direct

ISING_CFG = """
[problem]
kind = ising
lattice_size = 3
beta = 0.5

[train]
objective = {objective}
t_steps = 6
epochs = {epochs}
n_paths = 32
t_minibatch = 3
path_minibatch = 16
lr_max = 3e-3
seed = {seed}
out_dir = {out_dir}
anneal = ising_decay
anneal_h = 20
"""


# a 6-node path plus a leaf whose MIS has 3 nodes
PATH_PLUS_LEAF = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])


def write_single_edge_dataset(root: Path) -> Path:
    ds = root / "dataset"
    ds.mkdir()
    g = Graph(2, [(0, 1)])
    (ds / "graph_00000.txt").write_text(g.to_text(), encoding="utf-8")
    (ds / "manifest.json").write_text(
        json.dumps({"files": ["graph_00000.txt"]}), encoding="utf-8"
    )
    return ds


def write_two_graph_dataset(root: Path) -> Path:
    ds = root / "dataset"
    ds.mkdir()
    for i, g in enumerate((Graph(3, [(0, 1), (1, 2)]), Graph(4, [(0, 1), (2, 3)]))):
        (ds / f"graph_{i:05d}.txt").write_text(g.to_text(), encoding="utf-8")
    return ds


def co_cfg(dataset: Path, out_dir: Path, objective="rkl_rl", epochs=120) -> str:
    return f"""
[problem]
kind = co
problem = mis
dataset_dir = {dataset}

[model]
arch = gnn
n_hidden = 16
message_passing = 2

[train]
objective = {objective}
t_steps = 4
epochs = {epochs}
n_paths = 32
n_instances = 1
t_minibatch = 2
path_minibatch = 16
lr_max = 2e-2
seed = 1
out_dir = {out_dir}
anneal = linear_to_zero
t_start = 0.3
"""


# config text: sections under known and unknown headers (the parser's default
# section among them), holding key-value lines and free text with `%`, `(` and `[`
_CONFIG_HEADERS = ["[problem]", "[model]", "[train]", "[ppo]", "[DEFAULT]", "[experiment]",
                   "[", "[]"]
_CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig)) + ["bogus"]
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["1", "0", "-1", "2.5", "1e999", "nan", "true", "ising", "co", "gnn",
                     "rkl_rl", "64 64", "%", "100%", "%(seed)s", "%%", "(", "[DEFAULT]"]),
    st.text(alphabet="%()[]=:;#0123456789.e-+ abxyz\t\n", max_size=12),
)
_CONFIG_LINES = st.lists(
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", ":"]), _CONFIG_VALUES),
    max_size=5, unique_by=lambda line: line[0],
)


def _config_section(header, lines, tail):
    return "\n".join([header, *(" ".join(line) for line in lines), tail])


_CONFIG_TEXT = st.lists(
    st.builds(_config_section, st.sampled_from(_CONFIG_HEADERS), _CONFIG_LINES,
              st.one_of(st.just(""), st.text(max_size=8))),
    max_size=4, unique_by=lambda section: section.split("\n", 1)[0],
).map("\n".join)


class TestConfig:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_CONFIG_TEXT)
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            assert isinstance(parse_config(text), RunConfig)
        except ConfigError:
            pass

    @pytest.mark.parametrize("raw", ["runs/100%", "%(seed)s"])
    def test_values_are_read_literally(self, raw):
        assert parse_config(f"[train]\nseed = 3\nout_dir = {raw}\n").out_dir == raw

    def test_default_section_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[DEFAULT]\nepochs = 5\n")
        assert cli.main(["train", "--config", str(cfg_file)]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nobjective = fkl_mc\nbogus_key = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nname = x\n")

    def test_minibatch_bound(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nt_steps = 4\nt_minibatch = 5\n")

    def test_co_requires_dataset(self):
        with pytest.raises(ConfigError):
            parse_config("[problem]\nkind = co\n[model]\narch = gnn\n")

    @pytest.mark.parametrize("text", [
        "[train]\nlr_max = nan\n",
        "[problem]\nbeta = inf\n",
        "[model]\nhidden = 0\n",
        "[model]\nhidden = 64 0\n",
        "[model]\nhidden =\n",
        "[model]\nn_hidden = 0\n",
        "[train]\nn_instances = 0\n",
        "[problem]\npenalty_a = 0\n",
        "[problem]\npenalty_a = -1\n",
    ])
    def test_out_of_range_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_sections_partition_the_fields(self):
        # each field is set from exactly one section, and each key names a field
        keys = [key for section in config._KNOWN.values() for key in section]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))

    @pytest.mark.parametrize("field,value,ok", [
        ("lattice_size", 3.0, False), ("lattice_size", True, False), ("epochs", 2.5, False),
        ("kernel_start", "no", False), ("kernel_start", 1, False), ("beta", True, False),
        ("objective", 1, False), ("hidden", (64, 1.5), False), ("hidden", [64, 64], False),
        ("beta", 1, True), ("kernel_start", False, True), ("hidden", (8,), True),
    ], ids=["lattice_size_float", "lattice_size_bool", "epochs_float", "kernel_start_text",
            "kernel_start_int", "beta_bool", "objective_int", "hidden_float_width",
            "hidden_list", "beta_int", "kernel_start_false", "hidden_one_width"])
    def test_field_types_checked(self, field, value, ok):
        cfg = dataclasses.replace(RunConfig(), **{field: value})
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match=f"{field} must be of type"):
                cfg.validate()

    def test_valid_round_trip(self):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=3, seed=0,
                                            out_dir="/tmp/x"))
        assert cfg.objective == "fkl_mc"
        assert cfg.t_steps == 6


class TestTraining:
    def test_zero_epochs_writes_header_and_checkpoint(self, tmp_path):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                            out_dir=tmp_path / "run"))
        out = train(cfg)
        lines = Path(out["metrics"]).read_text().splitlines()
        assert lines == ["epoch,temperature,loss,mean_energy,entropy_estimate,ess_per_sample"]
        policy, *_ = load_checkpoint(out["checkpoint"])
        assert np.allclose(policy.params["w_out"], 0.0)

    @pytest.mark.parametrize("objective", ["diffuco", "rkl_rl", "fkl_mc"])
    def test_each_objective_runs_and_is_deterministic(self, tmp_path, objective):
        texts = []
        for tag in ("a", "b"):
            cfg = parse_config(ISING_CFG.format(objective=objective, epochs=4, seed=7,
                                                out_dir=tmp_path / f"{objective}_{tag}"))
            out = train(cfg)
            texts.append(Path(out["metrics"]).read_bytes())
        assert texts[0] == texts[1]

    def test_resume_is_bit_exact(self, tmp_path):
        full_cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=6, seed=3,
                                                 out_dir=tmp_path / "full"))
        full = train(full_cfg)

        # same run interrupted after 3 epochs, then resumed from its checkpoint
        half_cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=6, seed=3,
                                                 out_dir=tmp_path / "half"))
        half = train(half_cfg, stop_after=3)
        assert half["epochs_run"] == 3
        resume_cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=6, seed=3,
                                                   out_dir=tmp_path / "half"))
        train(resume_cfg, resume=half["checkpoint"])

        assert (tmp_path / "half" / "metrics.csv").read_bytes() == Path(
            full["metrics"]
        ).read_bytes()
        p_full, *_ = load_checkpoint(full["checkpoint"])
        p_half, *_ = load_checkpoint(tmp_path / "half" / "checkpoint.npz")
        for k in p_full.params:
            assert np.array_equal(p_full.params[k], p_half.params[k])

    def test_resume_config_mismatch_rejected(self, tmp_path):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=2, seed=0,
                                            out_dir=tmp_path / "r"))
        out = train(cfg)
        other = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=2, seed=1,
                                              out_dir=tmp_path / "r"))
        with pytest.raises(ConfigError):
            train(other, resume=out["checkpoint"])

    def test_resume_after_a_lost_checkpoint_rewrites_metrics_exactly(self, tmp_path):
        text = ISING_CFG.format(objective="rkl_rl", epochs=4, seed=5, out_dir="{out}")
        full = train(parse_config(text.format(out=tmp_path / "full")))
        cfg = parse_config(text.format(out=tmp_path / "run"))
        ckpt = Path(train(cfg, stop_after=1)["checkpoint"])
        after_epoch_1 = ckpt.read_bytes()
        # epoch 2 flushes its metrics row, then the run dies before the
        # checkpoint it would have written survives
        train(cfg, resume=str(ckpt), stop_after=1)
        ckpt.write_bytes(after_epoch_1)
        train(cfg, resume=str(ckpt))
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == Path(
            full["metrics"]).read_bytes()

    def test_killed_runs_resume_to_the_uninterrupted_bytes(self, tmp_path):
        # `bitdiff train` in a subprocess, killed by SIGKILL at seeded random
        # instants and resumed (restarted from its config while it has no
        # checkpoint) until it ends, leaves the metrics and checkpoint of an
        # uninterrupted run; about 10 s on 2 vCPUs
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(bitdiff.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        log, starts = open(tmp_path / "stderr.txt", "ab"), []

        def start(name):
            ckpt = tmp_path / name / "checkpoint.npz"
            source = ["--resume", str(ckpt)] if ckpt.exists() else \
                ["--config", str(tmp_path / f"{name}.cfg")]
            starts.append(source[0])
            return subprocess.Popen([sys.executable, "-m", "bitdiff.cli", "train", *source],
                                    env=env, stdout=subprocess.DEVNULL, stderr=log)

        for name in ("full", "killed"):
            (tmp_path / f"{name}.cfg").write_text(ISING_CFG.format(
                objective="rkl_rl", epochs=100, seed=4, out_dir=tmp_path / name))
        with log:
            began = time.perf_counter()
            assert start("full").wait(timeout=300) == 0
            wall = time.perf_counter() - began
            rng, kills = np.random.default_rng(12), 0
            while True:
                proc = start("killed")
                try:
                    code = proc.wait(timeout=rng.uniform(0.05, 0.45) * wall if kills < 6 else 300)
                    break
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    kills += 1
        assert code == 0, (tmp_path / "stderr.txt").read_text()
        assert kills >= 3 and starts.count("--resume") >= 2, starts
        assert (tmp_path / "killed" / "metrics.csv").read_bytes() == \
            (tmp_path / "full" / "metrics.csv").read_bytes()
        saved = []
        for name in ("full", "killed"):
            with np.load(tmp_path / name / "checkpoint.npz", allow_pickle=False) as blob:
                arrays = {k: blob[k] for k in blob.files}
            meta = json.loads(str(arrays.pop("meta")))
            meta["config"].pop("out_dir")
            saved.append((meta, arrays))
        (meta_full, full), (meta_killed, killed) = saved
        assert meta_killed == meta_full and full.keys() == killed.keys()
        assert all(full[k].dtype == killed[k].dtype and np.array_equal(full[k], killed[k])
                   for k in full)

    def test_failed_checkpoint_save_keeps_the_previous_one(self, tmp_path, monkeypatch):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=1, seed=0,
                                            out_dir=tmp_path / "r"))
        ckpt = Path(train(cfg)["checkpoint"])
        before = ckpt.read_bytes()
        policy, cfg, adam, normalizer, rng, epoch_next, problem = load_checkpoint(ckpt)

        def torn_savez(fh, **arrays):
            fh.write(before[: len(before) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError):
            bitdiff.train.save_checkpoint(ckpt, cfg, policy, adam, normalizer, rng,
                                          epoch_next + 1, problem)
        monkeypatch.undo()
        assert ckpt.read_bytes() == before
        assert load_checkpoint(ckpt)[5] == epoch_next
        assert sorted(p.name for p in ckpt.parent.iterdir()) == ["checkpoint.npz",
                                                                "metrics.csv"]

    @pytest.mark.parametrize("path_minibatch,t_minibatch", [(32, 4), (8, 1)])
    def test_fkl_scores_each_rollout_once(self, tmp_path, monkeypatch, path_minibatch,
                                          t_minibatch):
        # every minibatch update reuses its rollout's log-weights, so the
        # target scores each selected instance once per epoch, however many
        # updates the epoch makes
        ds = write_two_graph_dataset(tmp_path)
        cfg = dataclasses.replace(
            parse_config(co_cfg(ds, tmp_path / "run", objective="fkl_mc", epochs=2)),
            n_instances=2, path_minibatch=path_minibatch, t_minibatch=t_minibatch)
        scored = []
        log_p_hat = bitdiff.objectives.path_log_p_hat
        monkeypatch.setattr(bitdiff.objectives, "path_log_p_hat",
                            lambda *args: scored.append(1) or log_p_hat(*args))
        train(cfg)
        assert len(scored) == cfg.epochs * cfg.n_instances, bitdiff.train.updates_per_epoch(cfg)

    @pytest.mark.parametrize("objective", ["diffuco", "rkl_rl", "fkl_mc"])
    @pytest.mark.parametrize("kind", ["ising", "co"])
    def test_each_rollout_is_scored_once(self, tmp_path, monkeypatch, objective, kind):
        # the energies a rollout draws feed its metrics row, weights, rewards
        # and costs; no step evaluates them again
        if kind == "co":
            ds = write_two_graph_dataset(tmp_path)
            text, model = co_cfg(ds, tmp_path / "run", objective=objective, epochs=1), CoProblem
        else:
            text = ISING_CFG.format(objective=objective, epochs=1, seed=0, out_dir=tmp_path / "run")
            model = IsingLattice2D
        cfg = dataclasses.replace(parse_config(text), n_instances=2)
        rows = []
        energy = model.energy
        monkeypatch.setattr(model, "energy",
                            lambda self, x: rows.append(len(x)) or energy(self, x))
        train(cfg)
        n_rollouts = 2 if kind == "co" else 1
        assert rows == [cfg.n_paths] * n_rollouts

    def test_only_the_drawn_graphs_build_their_problems(self, tmp_path, monkeypatch):
        # an epoch trains on n_instances of the dataset's graphs; the others
        # never build their CoProblem or GraphCondition
        ds = tmp_path / "dataset"
        ds.mkdir()
        for i in range(12):
            (ds / f"graph_{i:05d}.txt").write_text(Graph(3 + i % 4, [(0, 1), (1, 2)]).to_text())
        cfg = dataclasses.replace(
            parse_config(co_cfg(ds, tmp_path / "run", objective="rkl_rl", epochs=2)),
            n_instances=2)
        built, made = [], []
        build_instances = bitdiff.train.build_instances
        monkeypatch.setattr(bitdiff.train, "build_instances",
                            lambda *args: built.extend(build_instances(*args)) or built)
        co_problem = Graph.co_problem
        monkeypatch.setattr(Graph, "co_problem",
                            lambda self, *args: made.append(self) or co_problem(self, *args))
        train(cfg)
        problems = [inst for inst in built if "energy_model" in vars(inst)]
        assert problems == [inst for inst in built if "condition" in vars(inst)]
        assert 2 <= len(problems) <= cfg.epochs * cfg.n_instances < len(built)
        assert sorted(map(id, made)) == sorted(id(inst.graph) for inst in problems)

    def test_single_edge_mis_reaches_optimum(self, tmp_path):
        ds = write_single_edge_dataset(tmp_path)
        cfg = parse_config(co_cfg(ds, tmp_path / "co_run"))
        out = train(cfg)
        rows = Path(out["metrics"]).read_text().splitlines()[1:]
        mean_energy = [float(r.split(",")[3]) for r in rows]
        # brute-force optimum is -1.0; the clipped policy updates approach the
        # deterministic limit asymptotically, so assert a tight neighborhood
        assert min(mean_energy) < -0.99
        assert np.mean(mean_energy[-10:]) < -0.95


class TestCli:
    def test_gen_graphs_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = cli.main([
            "gen-graphs", "--kind", "ba", "--out", str(out), "--count", "5",
            "--min-nodes", "8", "--max-nodes", "10", "--ba-m", "2", "--seed", "3",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["files"]) == 5
        g = Graph.from_text((out / manifest["files"][0]).read_text())
        assert 8 <= g.n_nodes <= 10

    def test_gen_graphs_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cli.main(["gen-graphs", "--kind", "rb", "--out", str(out), "--count", "3",
                      "--min-nodes", "6", "--max-nodes", "20", "--seed", "9"])
            outs.append((out / "graph_00000.txt").read_text())
        assert outs[0] == outs[1]

    def test_oracle_ising(self, tmp_path):
        out = tmp_path / "o.json"
        rc = cli.main(["oracle", "--problem", "ising", "--lattice-size", "3",
                       "--beta", "1.0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["S"] == pytest.approx(
            payload["beta"] * (payload["U"] - payload["F"]), abs=1e-10
        )

    def test_oracle_mis_triangle(self, tmp_path):
        gfile = tmp_path / "k3.txt"
        gfile.write_text(Graph(3, [(0, 1), (1, 2), (0, 2)]).to_text())
        out = tmp_path / "o.json"
        rc = cli.main(["oracle", "--problem", "mis", "--graph", str(gfile),
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["optimal_size"] == 1
        assert payload["optimal_energy"] == pytest.approx(-1.0)

    def test_oracle_beta_zero_per_site_nulls(self, tmp_path):
        out = tmp_path / "o.json"
        assert cli.main(["oracle", "--problem", "ising", "--lattice-size", "3",
                         "--beta", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["F"] is None and payload["F_per_site"] is None
        assert payload["U_per_site"] == payload["U"] / 9
        assert payload["S_per_site"] == payload["S"] / 9

    def test_train_solve_estimate_pipeline(self, tmp_path):
        # tiny end-to-end: train a co model, solve with and without rounding
        ds = write_single_edge_dataset(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(co_cfg(ds, tmp_path / "run", epochs=30))
        assert cli.main(["train", "--config", str(cfg_file)]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.npz")
        out = tmp_path / "solve.json"
        rc = cli.main(["solve", "--checkpoint", ckpt, "--dataset", str(ds),
                       "--n-samples", "20", "--ce", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["instances"][0]["n_feasible"] == 20
        assert payload["instances"][0]["best_size"] == 1

        # best-of-n monotone in n
        out1 = tmp_path / "solve1.json"
        cli.main(["solve", "--checkpoint", ckpt, "--dataset", str(ds),
                  "--n-samples", "1", "--ce", "--out", str(out1)])
        one = json.loads(out1.read_text())
        assert payload["instances"][0]["best_size"] >= one["instances"][0]["best_size"]

    def test_estimate_snis_report(self, tmp_path):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=5, seed=0,
                                            out_dir=tmp_path / "ising"))
        out = train(cfg)
        report = tmp_path / "est.json"
        rc = cli.main(["estimate", "--checkpoint", out["checkpoint"], "--method", "snis",
                       "--n-samples", "2000", "--seed", "5", "--out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["method"] == "snis"
        assert payload["F_per_site"] is not None
        assert 0 < payload["ess_per_sample"] <= 1
        assert payload["S_per_site"] == pytest.approx(
            payload["beta"] * 9 * (payload["U_per_site"] - payload["F_per_site"]) / 9,
            rel=1e-9,
        )

    def test_estimate_nmcmc_report(self, tmp_path):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=5, seed=0,
                                            out_dir=tmp_path / "ising2"))
        out = train(cfg)
        report = tmp_path / "est.json"
        rc = cli.main(["estimate", "--checkpoint", out["checkpoint"], "--method", "nmcmc",
                       "--chains", "4", "--chain-steps", "1500", "--seed", "5",
                       "--out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["U_per_site"] is not None
        assert payload["acceptance_rate"] > 0
        assert payload["tau"] is not None

    def test_estimate_nmcmc_constant_energy_nulls(self, tmp_path):
        # a zero coupling makes every energy 0: the series is constant, so
        # the estimate is exact and its error bar and tau are undefined
        text = ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0, out_dir=tmp_path / "free")
        out = train(parse_config(text.replace("beta = 0.5", "beta = 0.5\ncoupling = 0.0")))
        report = tmp_path / "est.json"
        assert cli.main(["estimate", "--checkpoint", out["checkpoint"], "--method", "nmcmc",
                         "--chains", "4", "--chain-steps", "300", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["U_per_site"] == 0.0
        assert payload["U_stderr_per_site"] is None
        assert payload["tau"] is None

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nbogus = 1\n")
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_exit_code_missing_file(self):
        assert cli.main(["train", "--config", "/does/not/exist.cfg"]) == 2

    def test_exit_code_non_finite_config_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(ISING_CFG.format(objective="fkl_mc", epochs=1, seed=0,
                                             out_dir=tmp_path / "r").replace("3e-3", "nan"))
        assert cli.main(["train", "--config", str(cfg_file)]) == 2
        assert "lr_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--method", "snis", "--n-samples", "10"],
        ["train"],
    ])
    def test_exit_code_truncated_checkpoint(self, tmp_path, capsys, argv):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                            out_dir=tmp_path / "run"))
        ckpt = Path(train(cfg)["checkpoint"])
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        flag = "--checkpoint" if argv[0] == "estimate" else "--resume"
        assert cli.main([*argv, flag, str(ckpt)]) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", ["both", "neither"])
    def test_train_takes_exactly_one_of_config_and_resume(self, tmp_path, capsys, flags):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                             out_dir=tmp_path / "run"))
        assert cli.main(["train", "--config", str(cfg_file)]) == 0
        capsys.readouterr()
        argv = {"both": ["--config", str(cfg_file), "--resume",
                         str(tmp_path / "run" / "checkpoint.npz")],
                "neither": []}[flags]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["train", *argv])
        assert exit_info.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_resume_loads_the_checkpoint_once(self, tmp_path, monkeypatch):
        cfg = parse_config(ISING_CFG.format(objective="rkl_rl", epochs=2, seed=0,
                                            out_dir=tmp_path / "run"))
        ckpt = train(cfg, stop_after=1)["checkpoint"]
        loads = []

        def counted(path):
            loads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", counted)
        monkeypatch.setattr(bitdiff.train, "load_checkpoint", counted)
        assert cli.main(["train", "--resume", ckpt]) == 0
        assert loads == [ckpt]

    def test_exit_code_ea_oracle_on_ising_instance(self, tmp_path, capsys):
        inst = tmp_path / "ising.txt"
        inst.write_text("kind ising\nL 3\nJ 1\n")
        assert cli.main(["oracle", "--problem", "ea", "--instance", str(inst)]) == 2
        assert "not an EA instance" in capsys.readouterr().err

    def test_exit_code_ea_instance_of_another_size(self, tmp_path, capsys):
        inst = tmp_path / "ea5.txt"
        inst.write_text(write_instance_text(EAInstance.normal(5, seed=0)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ISING_CFG.format(objective="fkl_mc", epochs=1, seed=0,
                                        out_dir=tmp_path / "r")
                       .replace("kind = ising", f"kind = ea\ninstance_file = {inst}")
                       .replace("lattice_size = 3", "lattice_size = 4"))
        assert cli.main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "L = 5" in err and "lattice_size = 4" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("problem", ["ising", "mis"])
    def test_exit_code_oracle_instance_outside_ea(self, tmp_path, capsys, problem):
        inst = tmp_path / "ea3.txt"
        inst.write_text(write_instance_text(EAInstance.normal(3, seed=0)))
        out = tmp_path / "o.json"
        argv = ["oracle", "--problem", problem, "--instance", str(inst), "--out", str(out)]
        assert cli.main(argv) == 2
        assert "--instance applies to --problem ea" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_instance_sets_the_lattice_size(self, tmp_path, capsys):
        inst = tmp_path / "ea3.txt"
        inst.write_text(write_instance_text(EAInstance.normal(3, seed=0)))
        argv = ["oracle", "--problem", "ea", "--instance", str(inst)]
        assert cli.main([*argv, "--lattice-size", "5"]) == 2
        err = capsys.readouterr().err
        assert "L = 3" in err and "lattice_size = 5" in err
        out = tmp_path / "o.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_sites"] == 9

    @pytest.mark.parametrize("key, edit", [
        ("anneal_h", lambda t: t.replace("anneal_h = 20", "anneal_h = -1")),
        ("anneal_h", lambda t: t.replace("anneal_h = 20", "anneal_h = 0")),
        ("t_start", lambda t: t.replace("anneal = ising_decay", "anneal = linear_to_zero")
                              .replace("anneal_h = 20", "t_start = -1")),
        ("reward_ma_rate", lambda t: t + "\n[ppo]\nreward_ma_rate = 5\n"),
        ("beta", None),
    ], ids=["anneal_h_negative", "anneal_h_zero", "t_start_negative", "reward_ma_rate_above_1",
            "co_beta_zero"])
    def test_exit_code_schedule_and_normalizer_values(self, tmp_path, capsys, key, edit):
        out_dir = tmp_path / "r"
        if edit is None:
            text = (co_cfg(write_single_edge_dataset(tmp_path), out_dir, epochs=1)
                    .replace("kind = co", "kind = co\nbeta = 0")
                    .replace("anneal = linear_to_zero", "anneal = ising_decay"))
        else:
            text = edit(ISING_CFG.format(objective="rkl_rl", epochs=1, seed=0, out_dir=out_dir))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        assert cli.main(["train", "--config", str(cfg_file)]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", ["config_dir", "graph_dir", "out_under_file",
                                      "out_dir_is_file"])
    def test_exit_code_os_errors(self, tmp_path, capsys, case):
        a_file = tmp_path / "a_file"
        a_file.write_text("x")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(ISING_CFG.format(objective="fkl_mc", epochs=1, seed=0,
                                             out_dir=a_file))
        argv = {
            "config_dir": ["train", "--config", str(tmp_path)],
            "graph_dir": ["oracle", "--problem", "mis", "--graph", str(tmp_path)],
            "out_under_file": ["gen-graphs", "--kind", "ba", "--out", str(a_file / "x")],
            "out_dir_is_file": ["train", "--config", str(cfg_file)],
        }[case]
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "kind ea\nbonds 0\n",
        "kind\n",
        "kind ea\nL 3\nbonds 18\n" + "0 1\n" * 18,
        "kind ea\nL 3\nbonds 18\n" + "0 1 x\n" * 18,
        "kind ea\nL 3\nbonds 19\n" + "0 1 1.0\n" * 19,
        "kind ea\nL 100000\nbonds 1\n0 1 1.0\n",  # rejected before building its bonds
    ], ids=["no_L", "bare_header", "short_bond", "non_numeric_bond", "too_many_bonds",
            "huge_L"])
    def test_exit_code_malformed_instance(self, tmp_path, capsys, text):
        inst = tmp_path / "ea.txt"
        inst.write_text(text)
        assert cli.main(["oracle", "--problem", "ea", "--instance", str(inst)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["mis", "mds", "maxcl", "maxcut"])
    def test_exit_code_co_oracle_without_graph(self, capsys, problem):
        assert cli.main(["oracle", "--problem", problem]) == 2
        assert "requires --graph" in capsys.readouterr().err

    @pytest.mark.parametrize("penalties", [["--penalty-b", "inf"]], ids=["non_finite_energy"])
    def test_exit_code_degenerate_penalties(self, tmp_path, capsys, penalties):
        # a non-finite energy: found by the argv fuzz below as a traceback
        graph = tmp_path / "g.txt"
        graph.write_text(PATH_PLUS_LEAF.to_text())
        assert cli.main(["oracle", "--problem", "mis", "--graph", str(graph), *penalties]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,line", [
        (["--problem", "ising", "--lattice-size", "3", "--beta", "1e308"],
         "numerical failure: non-finite log-weight"),
        (["--problem", "mis", "--graph", "{graph}", "--penalty-b", "inf"],
         "numerical failure: energy is not finite"),
    ], ids=["overflowing_log_weight", "non_finite_energy"])
    def test_numerical_failure_prints_one_stderr_line(self, tmp_path, argv, line):
        # in a child process, whose stderr numpy's RuntimeWarning would reach
        graph = tmp_path / "g.txt"
        graph.write_text(PATH_PLUS_LEAF.to_text())
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(bitdiff.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "bitdiff.cli", "oracle",
                               *(a.format(graph=graph) for a in argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == line + "\n"

    @pytest.mark.parametrize("problem", ["mis", "mds", "maxcl"])
    @pytest.mark.parametrize("reward", ["0", "-1"], ids=["zero", "negative"])
    def test_exit_code_non_positive_reward(self, tmp_path, capsys, problem, reward):
        # with A <= 0 the empty set can tie or beat every feasible optimum:
        # A = -1 gave the MIS of this graph as size 0
        graph = tmp_path / "g.txt"
        graph.write_text(PATH_PLUS_LEAF.to_text())
        assert cli.main(["oracle", "--problem", problem, "--graph", str(graph),
                         f"--penalty-a={reward}"]) == 2
        assert "0 < penalty_a < penalty_b" in capsys.readouterr().err

    def test_exit_code_failed_allocation(self, tmp_path, capsys):
        # the first array of 10^15 chains' paths cannot be allocated, so the
        # allocation fails at once, before any memory is touched
        out = train(parse_config(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                                  out_dir=tmp_path / "ising0")))
        assert cli.main(["estimate", "--checkpoint", out["checkpoint"], "--method", "nmcmc",
                         "--chains", "1000000000000000", "--chain-steps", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1

    def test_exit_code_memory_error_without_text(self, monkeypatch, capsys):
        # a failed Python allocation raises a MemoryError that carries no text
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_oracle", out_of_memory)
        assert cli.main(["oracle", "--problem", "ising"]) == 2
        assert capsys.readouterr().err == "config error: out of memory\n"

    def test_snis_memory_does_not_grow_with_the_sample_count(self, tmp_path):
        # 10^13 samples under a 192 MB address-space cap: the running sums keep
        # the child drawing blocks; a list of 3.9e10 block sizes ran out of
        # memory and exited 2 after about 2 s (2 vCPUs). About 4 s of wall time.
        out = train(parse_config(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                                  out_dir=tmp_path / "ising0")))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(bitdiff.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (192 << 20, 192 << 20))\n"
                 "from bitdiff import cli\n"
                 "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.Popen([sys.executable, "-c", child, "estimate", "--checkpoint",
                                 out["checkpoint"], "--method", "snis",
                                 "--n-samples", "10000000000000"],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            code = proc.wait(timeout=3)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            proc.kill()
            _, err = proc.communicate()
        assert code is None, err.decode()

    def test_exit_code_convergence(self, tmp_path):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=3, seed=0,
                                            out_dir=tmp_path / "ising3"))
        out = train(cfg)
        rc = cli.main(["estimate", "--checkpoint", out["checkpoint"], "--method", "nmcmc",
                       "--chains", "2", "--chain-steps", "90", "--seed", "1"])
        assert rc == 4

    @pytest.mark.parametrize("counts", [
        ["--method", "nmcmc", "--chains", "0"],
        ["--method", "nmcmc", "--chain-steps", "0"],
        ["--method", "snis", "--n-samples", "0"],
    ])
    def test_exit_code_non_positive_estimate_counts(self, tmp_path, capsys, counts):
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                            out_dir=tmp_path / "ising0"))
        out = train(cfg)
        assert cli.main(["estimate", "--checkpoint", out["checkpoint"], *counts]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_exit_code_non_positive_graph_count(self, tmp_path, capsys, count):
        out = tmp_path / "ds"
        assert cli.main(["gen-graphs", "--kind", "ba", "--out", str(out), "--count", count]) == 2
        assert "--count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--kind", "ba", "--min-nodes", "4", "--max-nodes", "14", "--ba-m", "4"],
        ["--kind", "ba", "--ba-m", "0"],
        ["--kind", "ba", "--min-nodes", "9", "--max-nodes", "8", "--ba-m", "2"],
        ["--kind", "rb", "--min-nodes", "12", "--max-nodes", "6"],
        ["--kind", "rb", "--rb-min-cliques", "4", "--rb-max-cliques", "3"],
        ["--kind", "rb", "--rb-min-cliques", "1"],
        ["--kind", "rb", "--rb-min-k", "5", "--rb-max-k", "4"],
        ["--kind", "rb", "--rb-min-k", "1"],
        ["--kind", "rb", "--rb-min-p", "0"],
        ["--kind", "rb", "--rb-min-p", "0.9", "--rb-max-p", "0.5"],
        ["--kind", "rb", "--rb-max-p", "1.5"],
    ], ids=["ba_m_reaches_min_nodes", "ba_m_zero", "ba_nodes_reversed", "rb_nodes_reversed",
            "rb_cliques_reversed", "rb_one_clique", "rb_k_reversed", "rb_k_one", "rb_p_zero",
            "rb_p_reversed", "rb_p_above_one"])
    def test_exit_code_graph_ranges(self, tmp_path, capsys, flags):
        # checked before any draw, so every seed fails alike and nothing is written
        for seed in range(6):
            out = tmp_path / f"ds{seed}"
            argv = ["gen-graphs", "--out", str(out), "--count", "5", "--seed", str(seed), *flags]
            assert cli.main(argv) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n-samples", "0"), ("--n-samples", "-3"),
        ("--steps-multiplier", "0"), ("--steps-multiplier", "-1"),
    ], ids=["0", "-3", "steps_multiplier_0", "steps_multiplier_-1"])
    def test_exit_code_non_positive_solve_samples(self, tmp_path, capsys, flag, value):
        ds = write_single_edge_dataset(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(co_cfg(ds, tmp_path / "run", epochs=0))
        assert cli.main(["train", "--config", str(cfg_file)]) == 0
        for ce in ("--ce", "--no-ce"):
            assert cli.main(["solve", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                             "--dataset", str(ds), flag, value, ce]) == 2
            assert f"config error: {flag} must be >= 1, got {value}\n" == capsys.readouterr().err
        # the flag is checked before the checkpoint is read
        assert cli.main(["solve", "--checkpoint", str(tmp_path / "missing.npz"),
                         "--dataset", str(ds), flag, value]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        "{}", "[]", '"graph_00000.txt"', '{"files": "graph_00000.txt"}',
        '{"files": [1]}', '{"files": null}',
    ], ids=["empty_object", "list", "string", "files_string", "files_int", "files_null"])
    def test_exit_code_malformed_manifest(self, tmp_path, capsys, manifest):
        ds = write_single_edge_dataset(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(co_cfg(ds, tmp_path / "run", epochs=0))
        assert cli.main(["train", "--config", str(cfg_file)]) == 0
        (ds / "manifest.json").write_text(manifest, encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg_file)]) == 2
        assert "manifest.json must be an object" in capsys.readouterr().err
        assert cli.main(["solve", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                         "--dataset", str(ds)]) == 2
        assert "manifest.json must be an object" in capsys.readouterr().err

    def test_exit_code_weighted_graph(self, tmp_path, capsys):
        ds = write_single_edge_dataset(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(co_cfg(ds, tmp_path / "run", epochs=0))
        weighted = ds / "graph_00000.txt"
        weighted.write_text("3 2\n0 1 2.5\n1 2 -7\n", encoding="utf-8")
        assert cli.main(["oracle", "--problem", "mis", "--graph", str(weighted)]) == 2
        assert "third column must be 1" in capsys.readouterr().err
        assert cli.main(["train", "--config", str(cfg_file)]) == 2
        assert "third column must be 1" in capsys.readouterr().err

    def test_exit_code_numerical(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(ISING_CFG.format(objective="fkl_mc", epochs=1, seed=0,
                                             out_dir=tmp_path / "r"))

        def explode(cfg, resume=None, stop_after=None):
            raise FloatingPointError("non-finite loss at epoch 0")

        monkeypatch.setattr(cli, "train", explode)
        assert cli.main(["train", "--config", str(cfg_file)]) == 3

    def test_solve_steps_multiplier(self, tmp_path):
        ds = write_single_edge_dataset(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(co_cfg(ds, tmp_path / "run", epochs=10))
        assert cli.main(["train", "--config", str(cfg_file)]) == 0
        out = tmp_path / "s3.json"
        rc = cli.main(["solve", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                       "--dataset", str(ds), "--n-samples", "5", "--ce",
                       "--steps-multiplier", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["steps_multiplier"] == 3
        assert payload["instances"][0]["n_feasible"] == 5

    def test_ea_training_smoke(self, tmp_path):
        cfg = parse_config(f"""
[problem]
kind = ea
lattice_size = 3
beta = 1.0
ea_seed = 4
ea_dist = uniform

[train]
objective = fkl_mc
t_steps = 4
epochs = 3
n_paths = 16
t_minibatch = 2
path_minibatch = 8
lr_max = 1e-3
seed = 0
out_dir = {tmp_path / "ea"}
anneal = ising_decay
anneal_h = 10
""")
        out = train(cfg)
        assert Path(out["checkpoint"]).exists()
        # estimate runs against the instance embedded in the checkpoint
        report = tmp_path / "ea.json"
        rc = cli.main(["estimate", "--checkpoint", out["checkpoint"], "--method", "snis",
                       "--n-samples", "500", "--out", str(report)])
        assert rc == 0
        assert json.loads(report.read_text())["beta"] == 1.0

    def test_checkpoint_keeps_the_trained_instance(self, tmp_path, monkeypatch):
        inst = tmp_path / "ea.txt"
        first = write_instance_text(EAInstance.normal(3, seed=1))
        inst.write_text(first)
        cfg = parse_config(ISING_CFG.format(objective="fkl_mc", epochs=3, seed=0,
                                            out_dir=tmp_path / "r")
                           .replace("kind = ising", f"kind = ea\ninstance_file = {inst}"))
        saves = []
        save = bitdiff.train.save_checkpoint

        def save_then_edit(*args, **kwargs):
            save(*args, **kwargs)
            saves.append(args)
            inst.write_text(write_instance_text(EAInstance.normal(3, seed=len(saves) + 1)))

        monkeypatch.setattr(bitdiff.train, "save_checkpoint", save_then_edit)
        train(cfg)
        assert len(saves) == 3 + 1
        *_, text = load_checkpoint(tmp_path / "r" / "checkpoint.npz")
        assert text == first


# `oracle` and `gen-graphs` argv: each option absent or given a value its
# type parses (`--flag=value`, so "-inf" is no flag), in any order, and now and
# then one junk token. Every size is bounded, so no draw computes or
# allocates much: lattice sides come from {-1, 0, 1, 2, 3, 6, 7, 11}, where 6
# and 7 take the transfer matrix (2^L x 2^L) and 11 passes its cap of 10 and is
# refused; counts stay <= 3, nodes <= 20, and RB cliques and sizes <= 4, which
# keeps gen-graphs' 1,000 redraws short when no size fits
_ARGV_FLOATS = st.one_of(st.floats(0, 3), st.floats()).map(repr)
_ARGV_SEEDS = st.one_of(st.integers(-2, 9), st.sampled_from([2**63, 2**70])).map(str)
_ARGV_JUNK = st.sampled_from(["", "x", "nan", "-1", "--", "-h", "--count", "--bogus=1"])


def _argv(draw, command: str, required: dict, optional: dict) -> list:
    options = list(required.items()) + [opt for opt in optional.items() if opt[0] not in required
                                        and draw(st.sampled_from([False, False, True]))]
    argv = [flag if values is None else f"{flag}={draw(values)}"
            for flag, values in draw(st.permutations(options))]
    if draw(st.sampled_from([False] * 7 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), draw(_ARGV_JUNK))
    return [command, *argv]


@st.composite
def oracle_argv(draw, root: Path):
    def files(*names):
        return st.sampled_from([str(root / n) for n in (*names, "missing.txt", "")])

    graphs, instances = files("g6.txt", "g16.txt", "weighted.txt", "ea3.txt"), \
        files("ea3.txt", "ising.txt", "g6.txt")
    problem = draw(st.sampled_from(["ising", "ea", *CO_PROBLEMS]))
    return _argv(draw, "oracle", {
        "--problem": st.just(problem),
        "--out": st.sampled_from([str(root / "o.json"), str(root), str(root / "no" / "o.json")]),
        **({} if problem in ("ising", "ea") else {"--graph": graphs}),
    }, {
        "--lattice-size": st.sampled_from(["-1", "0", "1", "2", "3", "6", "7", "11"]),
        "--coupling": _ARGV_FLOATS, "--beta": _ARGV_FLOATS,
        "--ea-seed": _ARGV_SEEDS, "--ea-dist": st.sampled_from(["normal", "uniform"]),
        "--instance": instances, "--graph": graphs,
        "--penalty-a": _ARGV_FLOATS, "--penalty-b": _ARGV_FLOATS, "--allow-large": None,
    })


@st.composite
def gen_graphs_argv(draw, root: Path):
    return _argv(draw, "gen-graphs", {
        "--kind": st.sampled_from(["ba", "rb"]),
        "--out": st.sampled_from([str(root / "ds"), str(root / "g6.txt" / "ds")]),
        "--count": st.sampled_from(["2", "1", "3", "0", "-1"]),
    }, {
        "--seed": _ARGV_SEEDS, "--problem": st.sampled_from(["mis", ""]),
        **{flag: st.sampled_from([*map(str, range(5, 21)), "0", "-2"])
           for flag in ("--min-nodes", "--max-nodes")},
        "--ba-m": st.sampled_from(["2", "1", "3", "4", "0", "-1", "20"]),
        **{flag: st.sampled_from(["2", "3", "4", "1", "-1"])
           for flag in ("--rb-min-cliques", "--rb-max-cliques", "--rb-min-k", "--rb-max-k")},
        "--rb-min-p": _ARGV_FLOATS, "--rb-max-p": _ARGV_FLOATS,
    })


# `estimate` and `solve` argv read an untrained 3x3 lattice checkpoint or an
# untrained GNN checkpoint; the size options are always given, so no draw
# takes the defaults' 100,000 samples or 8 chains x 2,000 steps: at most 64
# samples, 4 chains x 200 steps and 8 solve samples per graph
_ARGV_CHECKPOINTS = ["g6.txt", "missing.npz", ""]


def _argv_files(root: Path, valid: str, *others: str):
    """One of the files under `root`, `valid` half the time."""
    return st.sampled_from([str(root / n) for n in ([valid] * len(others) + list(others))])


@st.composite
def estimate_argv(draw, root: Path):
    return _argv(draw, "estimate", {
        "--checkpoint": _argv_files(root, "ising/checkpoint.npz", "co/checkpoint.npz",
                                    *_ARGV_CHECKPOINTS),
        "--n-samples": st.sampled_from(["64", "1", "2", "17", "0", "-1"]),
        "--chains": st.sampled_from(["4", "1", "2", "0", "-1"]),
        "--chain-steps": st.sampled_from(["200", "1", "2", "50", "0", "-1"]),
    }, {
        "--method": st.sampled_from(["snis", "nmcmc", "snis", "nmcmc", "mcmc"]),
        "--seed": _ARGV_SEEDS,
        "--out": _argv_files(root, "e.json", "", "no/e.json"),
    })


@st.composite
def solve_argv(draw, root: Path):
    return _argv(draw, "solve", {
        "--checkpoint": _argv_files(root, "co/checkpoint.npz", "ising/checkpoint.npz",
                                    *_ARGV_CHECKPOINTS),
        "--dataset": _argv_files(root, "dataset", "ds16", "missing", "g6.txt", "ising"),
        "--n-samples": st.sampled_from(["8", "1", "2", "0", "-1"]),
    }, {
        "--ce": None, "--no-ce": None,
        "--steps-multiplier": st.sampled_from(["1", "2", "3", "0", "-1"]),
        "--seed": _ARGV_SEEDS,
        "--out": _argv_files(root, "s.json", "", "no/s.json"),
    })


def argv_fuzz_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.getbasetemp() / "argv_fuzz"
    if not root.exists():
        root.mkdir()
        (root / "ea3.txt").write_text(write_instance_text(EAInstance.normal(3, seed=0)))
        (root / "ising.txt").write_text("kind ising\nL 3\nJ 1\n")
        (root / "g6.txt").write_text(PATH_PLUS_LEAF.to_text())
        (root / "g16.txt").write_text(gen_ba(16, 3, seed=2).to_text())
        (root / "weighted.txt").write_text("2 1\n0 1 2.5\n")
        (root / "ds16").mkdir()
        (root / "ds16" / "graph_00000.txt").write_text((root / "g16.txt").read_text())
        train(parse_config(ISING_CFG.format(objective="fkl_mc", epochs=0, seed=0,
                                            out_dir=root / "ising")))
        train(parse_config(co_cfg(write_single_edge_dataset(root), root / "co", epochs=0)))
    return root


COLD_START_SCRIPT = """
import json, sys
import numpy as np
from bitdiff import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
assert "scipy.sparse" not in sys.modules
from bitdiff.graphs import gen_ba
from bitdiff.nets import GraphCondition
graph = gen_ba(300, 4, 0)
cond = GraphCondition(graph)
assert cond._dense is None and "scipy.sparse" in sys.modules
a, b = graph.edges.T
adj = np.zeros((300, 300))
adj[a, b] = adj[b, a] = 1.0
x = np.random.default_rng(0).standard_normal((600, 5))
want = np.kron(np.eye(2), adj / np.sqrt(adj.sum(axis=1))[:, None]) @ x
np.testing.assert_allclose(cond.aggregate(x, 2), want, rtol=1e-12, atol=1e-12)
"""


class TestColdStart:
    def test_dense_commands_never_import_scipy_sparse(self, tmp_path):
        # scipy.sparse costs about 0.15 s and 14 MB at import, so only a
        # sparse-form graph may load it; a fresh process runs every command on
        # lattices and dense-form graphs first, then builds one sparse-form
        # graph; about 0.4 s on 2 vCPUs
        (tmp_path / "ising.cfg").write_text(ISING_CFG.format(
            objective="fkl_mc", epochs=1, seed=0, out_dir=tmp_path / "ising"))
        (tmp_path / "co.cfg").write_text(co_cfg(tmp_path / "ba", tmp_path / "co",
                                                objective="fkl_mc", epochs=1))
        commands = [
            ["oracle", "--problem", "ising", "--lattice-size", "3"],
            ["train", "--config", str(tmp_path / "ising.cfg")],
            ["estimate", "--checkpoint", str(tmp_path / "ising" / "checkpoint.npz"),
             "--method", "snis", "--n-samples", "64"],
            ["gen-graphs", "--kind", "ba", "--count", "2", "--out", str(tmp_path / "ba")],
            ["train", "--config", str(tmp_path / "co.cfg")],
            ["solve", "--checkpoint", str(tmp_path / "co" / "checkpoint.npz"),
             "--dataset", str(tmp_path / "ba"), "--n-samples", "4", "--ce"],
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(bitdiff.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestArgvFuzz:
    """Any argv exits 0, 2, 3 or 4, by return or by `SystemExit`, and never
    with a traceback."""

    @staticmethod
    def exits_cleanly(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_oracle(self, tmp_path_factory, data):
        self.exits_cleanly(data.draw(oracle_argv(argv_fuzz_root(tmp_path_factory))))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_gen_graphs(self, tmp_path_factory, data):
        self.exits_cleanly(data.draw(gen_graphs_argv(argv_fuzz_root(tmp_path_factory))))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_estimate(self, tmp_path_factory, data):
        self.exits_cleanly(data.draw(estimate_argv(argv_fuzz_root(tmp_path_factory))))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_solve(self, tmp_path_factory, data):
        self.exits_cleanly(data.draw(solve_argv(argv_fuzz_root(tmp_path_factory))))


def run_text(kind: str, root: Path, out_dir: Path, objective="fkl_mc", epochs=1) -> str:
    """A small run config of `kind`; the EA instance file and the co dataset
    are written under `root` on first use."""
    if kind == "co":
        ds = root / "dataset"
        if not ds.exists():
            write_single_edge_dataset(root)
        return co_cfg(ds, out_dir, objective=objective, epochs=epochs)
    text = ISING_CFG.format(objective=objective, epochs=epochs, seed=0, out_dir=out_dir)
    if kind == "ea":
        inst = root / "ea.txt"
        if not inst.exists():
            inst.write_text(write_instance_text(EAInstance.normal(3, seed=1)))
        text = text.replace("kind = ising", f"kind = ea\ninstance_file = {inst}")
    return text


def read_command(kind: str, root: Path, ckpt: Path, out: Path) -> list:
    """`solve` for a co checkpoint, `estimate` for a lattice one."""
    if kind == "co":
        return ["solve", "--checkpoint", str(ckpt), "--dataset", str(root / "dataset"),
                "--n-samples", "4", "--ce", "--out", str(out)]
    return ["estimate", "--checkpoint", str(ckpt), "--method", "snis", "--n-samples", "200",
            "--out", str(out)]


def edit_meta(ckpt: Path, edit) -> None:
    """Rewrite a checkpoint with `edit` applied to its metadata dict."""
    with np.load(ckpt) as blob:
        meta = json.loads(str(blob["meta"]))
        arrays = {k: blob[k] for k in blob.files if k != "meta"}
    edit(meta)
    with open(ckpt, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta), **arrays)


def edit_arrays(ckpt: Path, edit) -> None:
    """Rewrite a checkpoint with `edit` applied to its dict of named arrays."""
    with np.load(ckpt) as blob:
        arrays = {k: blob[k] for k in blob.files}
    edit(arrays)
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)


def older_layout(meta: dict) -> dict:
    """Add the keys that earlier checkpoints wrote beside the config: `arch`,
    `t_steps`, a `problem` block repeating the problem fields and the
    normalizer's `rate`."""
    cfg = meta["config"]
    meta["normalizer"]["rate"] = cfg["reward_ma_rate"]
    problem = {"kind": cfg["kind"], "beta": cfg["beta"]}
    if cfg["kind"] == "ising":
        problem.update(lattice_size=cfg["lattice_size"], coupling=cfg["coupling"])
    elif cfg["kind"] == "ea":
        problem.update(lattice_size=cfg["lattice_size"],
                       instance_text=meta["problem"]["instance_text"])
    else:
        problem.update(problem=cfg["problem"], penalty_a=cfg["penalty_a"],
                       penalty_b=cfg["penalty_b"], dataset_dir=cfg["dataset_dir"])
    meta.update(arch=cfg["arch"], t_steps=cfg["t_steps"], problem=problem)
    return meta


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(root, {kind: checkpoint}) of one-epoch ising, ea and co runs."""
    root = tmp_path_factory.mktemp("trained")
    return root, {kind: Path(train(parse_config(run_text(kind, root, root / kind)))["checkpoint"])
                  for kind in ("ising", "ea", "co")}


class TestCheckpointLayout:
    @pytest.mark.parametrize("kind", ["ising", "ea", "co"])
    def test_meta_holds_only_what_the_config_cannot(self, trained, kind):
        with np.load(trained[1][kind]) as blob:
            meta = json.loads(str(blob["meta"]))
        keys = {"version", "epoch_next", "adam_step", "normalizer", "rng_state", "config"}
        assert set(meta) == keys | ({"problem"} if kind == "ea" else set())
        if kind == "ea":
            assert set(meta["problem"]) == {"instance_text"}
        assert set(meta["normalizer"]) == {"mean", "var", "initialized"}

    @pytest.mark.parametrize("kind,edit,rc", [
        ("ising", lambda m: m["config"].update(beta="x"), 2),
        ("ising", lambda m: m["config"].update(beta=-1), 2),
        ("ising", lambda m: m["config"].update(kind="potts"), 2),
        ("ising", lambda m: m["config"].update(hidden="abc"), 2),
        ("ea", lambda m: m["problem"].pop("instance_text"), 2),
        ("ea", lambda m: m.update(problem=[]), 2),
        ("ising", lambda m: m["config"].update(lattice_size=3.0), 2),
        ("ising", lambda m: m["config"].update(epochs=2.5), 2),
        ("ising", lambda m: m["config"].update(kernel_start="no"), 2),
        ("ising", lambda m: m["config"].update(seed=True), 2),
        ("ising", lambda m: m.update(epoch_next="a"), 2),
        ("ising", lambda m: m.update(epoch_next=m["config"]["epochs"] + 1), 2),
        ("ising", lambda m: m.update(adam_step=-1), 2),
        ("ising", lambda m: m["normalizer"].update(mean="x"), 2),
        ("ising", lambda m: m["normalizer"].update(initialized=1), 2),
        ("ising", lambda m: m["normalizer"].update(var=float("nan")), 2),
        # the config is the record: the older layout's repeated problem fields
        # are not read, so faults in them do not matter
        ("ising", lambda m: older_layout(m)["problem"].pop("lattice_size"), 0),
        ("ising", lambda m: older_layout(m)["problem"].update(beta="x"), 0),
        ("ising", lambda m: older_layout(m).update(problem=[]), 0),
        ("co", lambda m: older_layout(m)["problem"].pop("problem"), 0),
        ("ising", lambda m: older_layout(m)["normalizer"].update(rate="x"), 0),
    ], ids=["beta_text", "beta_negative", "kind_unknown", "hidden_text", "ea_text_missing",
            "ea_problem_list", "lattice_size_float", "epochs_float", "kernel_start_text",
            "seed_bool", "epoch_next_text", "epoch_next_past_epochs", "adam_step_negative",
            "normalizer_mean_text", "normalizer_initialized_int", "normalizer_var_nan",
            "older_no_lattice_size", "older_beta_text", "older_problem_list",
            "older_co_no_problem", "older_rate_text"])
    def test_meta_faults(self, trained, tmp_path, capsys, kind, edit, rc):
        root, ckpts = trained
        ckpt = tmp_path / "checkpoint.npz"
        ckpt.write_bytes(ckpts[kind].read_bytes())
        edit_meta(ckpt, edit)
        assert cli.main(read_command(kind, root, ckpt, tmp_path / "out.json")) == rc
        if rc:
            assert "cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda a: a.update({"m::w0": np.zeros(()), "param::w0": a["param::w0"].astype(np.float32)}),
        lambda a: a.update({"m::w0": np.zeros(())}),
        lambda a: a.update({"param::w0": a["param::w0"].astype(np.float32)}),
        lambda a: a.update({"v::b0": a["v::b0"][:-1]}),
        lambda a: a.update({"v::w0": a["v::w0"].astype(np.int64)}),
        lambda a: a.update({"m::w_out": a["m::w_out"].T}),
    ], ids=["scalar_moment_float32_param", "scalar_moment", "float32_param", "short_moment",
            "int_moment", "transposed_moment"])
    def test_array_faults(self, trained, tmp_path, capsys, edit):
        ckpt = tmp_path / "checkpoint.npz"
        ckpt.write_bytes(trained[1]["ising"].read_bytes())
        edit_arrays(ckpt, edit)
        assert cli.main(["train", "--resume", str(ckpt)]) == 2
        assert "does not hold the float64 arrays" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["ising", "ea", "co"])
    def test_older_layout_reads_the_same(self, tmp_path, kind):
        text = lambda out: run_text(kind, tmp_path, tmp_path / out, "rkl_rl", epochs=3)
        full = Path(train(parse_config(text("full")))["checkpoint"])
        cfg = parse_config(text("half"))
        half = Path(train(cfg, stop_after=1)["checkpoint"])
        edit_meta(half, older_layout)
        train(cfg, resume=str(half))
        assert (tmp_path / "half" / "metrics.csv").read_bytes() == (
            tmp_path / "full" / "metrics.csv").read_bytes()
        with np.load(full) as a, np.load(half) as b:
            assert [k for k in a.files if k != "meta"] == [k for k in b.files if k != "meta"]
            assert all(a[k].tobytes() == b[k].tobytes() for k in a.files if k != "meta")

        report = tmp_path / "report.json"
        argv = read_command(kind, tmp_path, full, report)
        assert cli.main(argv) == 0
        new_layout = report.read_bytes()
        edit_meta(full, older_layout)
        if kind == "ea":  # the stored instance is used, not the file's
            trained_text = (tmp_path / "ea.txt").read_text()
            (tmp_path / "ea.txt").write_text(write_instance_text(EAInstance.normal(3, seed=2)))
            assert load_checkpoint(full)[6] == trained_text
        assert cli.main(argv) == 0
        assert report.read_bytes() == new_layout

    def test_resume_trains_on_the_stored_instance(self, tmp_path):
        # the instance file is rewritten between the stop and `train --resume`
        text = lambda out: run_text("ea", tmp_path, tmp_path / out, "rkl_rl", epochs=3)
        full = Path(train(parse_config(text("full")))["checkpoint"])
        half = Path(train(parse_config(text("half")), stop_after=1)["checkpoint"])
        trained_text = (tmp_path / "ea.txt").read_text()
        (tmp_path / "ea.txt").write_text(write_instance_text(EAInstance.normal(3, seed=2)))
        assert cli.main(["train", "--resume", str(half)]) == 0
        assert (tmp_path / "half" / "metrics.csv").read_bytes() == (
            tmp_path / "full" / "metrics.csv").read_bytes()
        with np.load(full) as a, np.load(half) as b:
            assert [k for k in a.files if k != "meta"] == [k for k in b.files if k != "meta"]
            assert all(a[k].tobytes() == b[k].tobytes() for k in a.files if k != "meta")
        assert load_checkpoint(half)[6] == trained_text

    @pytest.mark.parametrize("kind,method", [("ising", "snis"), ("ising", "nmcmc"),
                                             ("co", "solve")])
    def test_inference_never_evaluates_the_value_head(self, tmp_path, monkeypatch, kind,
                                                      method):
        # an rkl_rl checkpoint holds a value head; estimate and solve sample
        # with the policy's critic-free view
        ckpt = Path(train(parse_config(run_text(kind, tmp_path, tmp_path / "run",
                                                objective="rkl_rl")))["checkpoint"])
        assert load_checkpoint(ckpt)[0].spec.value_head

        def refuse(*args):
            raise AssertionError("inference evaluated the value head")

        monkeypatch.setattr(nets._Policy, "_value", refuse)
        argv = read_command(kind, tmp_path, ckpt, tmp_path / "out.json")
        if method == "nmcmc":
            argv[argv.index("snis")] = "nmcmc"
            argv[argv.index("--n-samples"):argv.index("--out")] = ["--chains", "4",
                                                                   "--chain-steps", "1500"]
        assert cli.main(argv) == 0

    def test_estimate_rejects_a_co_checkpoint(self, trained, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = ["estimate", "--checkpoint", str(trained[1]["co"]), "--n-samples", "10"]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert "lattice problem" in capsys.readouterr().err
        assert not out.exists()

    def test_ea_save_without_text_raises(self, trained, tmp_path):
        policy, cfg, adam, normalizer, rng, epoch_next, _ = load_checkpoint(trained[1]["ea"])
        with pytest.raises(ValueError, match="instance text"):
            bitdiff.train.save_checkpoint(tmp_path / "checkpoint.npz", cfg, policy, adam,
                                          normalizer, rng, epoch_next)
        assert list(tmp_path.iterdir()) == []


def solve_instances_direct(checkpoint, dataset, n_samples: int, seed: int) -> list:
    """`solve --ce` instance entries assembled graph by graph: a separate t = 1
    forward for the marginals and the one-row decoding reference. It draws from
    the float32 inference policy, as `solve` does."""
    policy, cfg, *_ = load_checkpoint(checkpoint)
    policy = policy.sampler(policy.n_steps)
    problem = cfg.problem
    schedule = exp_schedule(policy.n_steps)
    rng = np.random.default_rng(seed)
    entries = []
    for gi, g in enumerate(load_dataset(dataset)):
        co = g.co_problem(problem, cfg.penalty_a, cfg.penalty_b)
        cond = GraphCondition(g)
        paths = sample_reverse_path(policy, schedule, n_samples, rng, cond)
        probs = policy.probs(paths.states[:, 1], 1, cond)
        sols = np.array([conditional_expectation_direct(p, co.energy) for p in probs])
        feasible = np.array([is_feasible_direct(problem, g, s) for s in sols])
        entry = {"instance": gi, "n_samples": n_samples, "n_feasible": int(feasible.sum()),
                 "flagged_infeasible_only": not feasible.any()}
        if feasible.any():
            energies = np.array([float(co.energy(s.astype(np.float64))) for s in sols[feasible]])
            sizes = np.array([solution_size_direct(problem, g, s) for s in sols[feasible]])
            best = int(np.argmin(energies))
            entry.update(best_energy=float(energies[best]), best_size=int(sizes[best]),
                         mean_size=float(sizes.mean()))
        entries.append(entry)
    return entries


@pytest.mark.parametrize("problem", ["mis", "mds", "maxcl", "maxcut"])
def test_solve_ce_matches_per_graph_reference(tmp_path, problem):
    ds = tmp_path / "graphs"
    assert cli.main(["gen-graphs", "--kind", "ba", "--out", str(ds), "--count", "6",
                     "--min-nodes", "10", "--max-nodes", "14", "--ba-m", "4",
                     "--seed", "3"]) == 0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(co_cfg(ds, tmp_path / "run", objective="fkl_mc", epochs=2)
                        .replace("problem = mis", f"problem = {problem}"))
    assert cli.main(["train", "--config", str(cfg_file)]) == 0
    ckpt = tmp_path / "run" / "checkpoint.npz"
    out = tmp_path / "solve.json"
    assert cli.main(["solve", "--checkpoint", str(ckpt), "--dataset", str(ds),
                     "--n-samples", "12", "--ce", "--seed", "4", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["instances"]
    assert got == solve_instances_direct(ckpt, ds, 12, 4)
