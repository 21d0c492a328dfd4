import json
from pathlib import Path

import numpy as np
import pytest

from bitdiff import cli
from bitdiff.config import ConfigError, parse_config
from bitdiff.energies import IsingLattice2D, write_instance_text
from bitdiff.graphs import Graph
from bitdiff.train import load_checkpoint, train

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


def write_single_edge_dataset(root: Path) -> Path:
    ds = root / "dataset"
    ds.mkdir()
    g = Graph(2, [(0, 1)])
    (ds / "graph_00000.txt").write_text(g.to_text(), encoding="utf-8")
    (ds / "manifest.json").write_text(
        json.dumps({"files": ["graph_00000.txt"]}), encoding="utf-8"
    )
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


class TestConfig:
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
    ])
    def test_out_of_range_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

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

    def test_exit_code_ea_oracle_on_ising_instance(self, tmp_path, capsys):
        inst = tmp_path / "ising.txt"
        inst.write_text(write_instance_text(IsingLattice2D(3)))
        assert cli.main(["oracle", "--problem", "ea", "--instance", str(inst)]) == 2
        assert "not an EA instance" in capsys.readouterr().err

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
