"""Command-line interface.

Subcommands: gen-graphs, train, solve, estimate, oracle.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .decode import conditional_expectation
from .diffusion import exp_schedule, sample_reverse_path
from .energies import CO_PROBLEMS, BoltzmannTarget, build_lattice, enumerate_observables
from .graphs import Graph, brute_force_co, gen_ba, gen_rb, is_feasible, solution_size
from .nets import GraphCondition
from .train import build_instances, load_checkpoint, load_dataset, train
from .unbiased import (
    ConvergenceError,
    nmcmc_estimate,
    observable_estimates,
    snis_sample,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _per_site(n_sites: int, **totals) -> dict:
    """Each total divided by the site count, keyed `<name>_per_site`; a None
    (an undefined total) stays None."""
    return {f"{k}_per_site": None if v is None else v / n_sites for k, v in totals.items()}


def cmd_gen_graphs(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.min_nodes > args.max_nodes:
        raise ConfigError(f"--min-nodes {args.min_nodes} exceeds --max-nodes {args.max_nodes}")
    if args.kind == "ba" and not 1 <= args.ba_m < args.min_nodes:
        raise ConfigError(f"--ba-m must be >= 1 and below --min-nodes, got {args.ba_m}")
    if args.kind == "rb" and not (2 <= args.rb_min_cliques <= args.rb_max_cliques
                                  and 2 <= args.rb_min_k <= args.rb_max_k
                                  and 0.0 < args.rb_min_p <= args.rb_max_p <= 1.0):
        raise ConfigError("rb ranges need 2 <= min <= max for cliques and k, "
                          "and 0 < --rb-min-p <= --rb-max-p <= 1")
    rng = np.random.default_rng(args.seed)
    graphs, seeds = [], []
    for i in range(args.count):
        gseed = int(rng.integers(0, 2 ** 31 - 1))
        for _ in range(1000):
            if args.kind == "ba":
                n = int(rng.integers(args.min_nodes, args.max_nodes + 1))
                g = gen_ba(n, args.ba_m, gseed)
            else:
                n_cl = int(rng.integers(args.rb_min_cliques, args.rb_max_cliques + 1))
                k = int(rng.integers(args.rb_min_k, args.rb_max_k + 1))
                p = float(rng.uniform(args.rb_min_p, args.rb_max_p))
                g = gen_rb(n_cl, k, p, gseed)
            if args.min_nodes <= g.n_nodes <= args.max_nodes:
                break
            gseed = int(rng.integers(0, 2 ** 31 - 1))
        else:
            raise ConfigError("could not sample a graph within the node bounds")
        graphs.append(g)
        seeds.append(gseed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = [f"graph_{i:05d}.txt" for i in range(args.count)]
    for name, g in zip(files, graphs):
        (out / name).write_text(g.to_text(), encoding="utf-8")
    manifest = {
        "kind": args.kind,
        "problem": args.problem,
        "count": args.count,
        "min_nodes": args.min_nodes,
        "max_nodes": args.max_nodes,
        "config": {
            "ba_m": args.ba_m,
            "rb_cliques": [args.rb_min_cliques, args.rb_max_cliques],
            "rb_k": [args.rb_min_k, args.rb_max_k],
            "rb_p": [args.rb_min_p, args.rb_max_p],
        },
        "seed": args.seed,
        "seeds": seeds,
        "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.count} graphs to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    # a resumed run's config comes from the checkpoint, in the one load `train` makes
    cfg = None if args.config is None else load_config(args.config)
    summary = train(cfg, resume=args.resume)
    print(json.dumps({k: v for k, v in summary.items() if k != "final"}))
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.n_samples < 1:
        raise ConfigError(f"--n-samples must be >= 1, got {args.n_samples}")
    if args.steps_multiplier < 1:
        raise ConfigError(f"--steps-multiplier must be >= 1, got {args.steps_multiplier}")
    policy, cfg, *_ = load_checkpoint(args.checkpoint)
    if cfg.kind != "co":
        raise ConfigError("solve requires a checkpoint trained on a co problem")
    graphs = load_dataset(args.dataset)
    t_steps = policy.n_steps * args.steps_multiplier
    policy = policy.sampler(t_steps)
    schedule = exp_schedule(t_steps)
    rng = np.random.default_rng(args.seed)
    results = []
    best_sizes, mean_sizes = [], []
    for gi, g in enumerate(graphs):
        co = g.co_problem(cfg.problem, cfg.penalty_a, cfg.penalty_b)
        cond = GraphCondition(g)
        paths = sample_reverse_path(policy, schedule, args.n_samples, rng, cond)
        solutions = conditional_expectation(paths.x0_probs, co.energy) if args.ce else paths.x0
        feasible = is_feasible(cfg.problem, g, solutions)
        energies = co.energy(solutions.astype(np.float64))
        entry = {
            "instance": gi,
            "n_samples": int(args.n_samples),
            "n_feasible": int(feasible.sum()),
            "flagged_infeasible_only": not bool(feasible.any()),
        }
        if feasible.any():
            fe = energies[feasible]
            best_idx = int(np.argmin(fe))
            sizes = solution_size(cfg.problem, g, solutions[feasible])
            entry["best_energy"] = float(fe[best_idx])
            entry["best_size"] = int(sizes[best_idx])
            entry["mean_size"] = float(sizes.mean())
            best_sizes.append(entry["best_size"])
            mean_sizes.append(entry["mean_size"])
        results.append(entry)
    payload = {
        "problem": cfg.problem,
        "checkpoint": args.checkpoint,
        "dataset": args.dataset,
        "n_samples": args.n_samples,
        "conditional_expectation": bool(args.ce),
        "steps_multiplier": args.steps_multiplier,
        "seed": args.seed,
        "instances": results,
        "mean_best_size": float(np.mean(best_sizes)) if best_sizes else None,
        "mean_mean_size": float(np.mean(mean_sizes)) if mean_sizes else None,
    }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    policy, cfg, *_, text = load_checkpoint(args.checkpoint)
    if cfg.kind == "co":
        raise ConfigError("estimate requires a checkpoint trained on a lattice problem")
    model = build_instances(cfg, text)[0].energy_model
    target = BoltzmannTarget(model, cfg.beta)
    policy = policy.sampler(policy.n_steps)
    schedule = exp_schedule(policy.n_steps)
    n_sites = model.n_sites
    payload = {
        "method": args.method,
        "checkpoint": args.checkpoint,
        "beta": target.beta,
        "n_sites": n_sites,
        "seed": args.seed,
        "F_per_site": None,
        "U_per_site": None,
        "S_per_site": None,
        "ess_per_sample": None,
        "tau": None,
        "acceptance_rate": None,
    }
    rng = np.random.default_rng(args.seed)
    if args.method == "snis":
        samples = snis_sample(policy, target, schedule, args.n_samples, rng)
        est = observable_estimates(samples, target)
        payload.update(
            n_samples=args.n_samples,
            **_per_site(n_sites, F=est.free_energy, U=est.internal_energy, S=est.entropy),
            ess_per_sample=est.ess_per_sample,
        )
    else:
        res = nmcmc_estimate(
            policy, target, schedule,
            n_chains=args.chains, n_steps=args.chain_steps, rng=rng,
        )
        payload.update(
            chains=args.chains,
            chain_steps=args.chain_steps,
            **_per_site(n_sites, U=res.estimate, U_stderr=res.stderr),
            tau=res.tau,
            burn_in=res.burn_in,
            acceptance_rate=res.acceptance_rate,
            flagged_chains=res.n_flagged,
        )
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.instance and args.problem != "ea":
        raise ConfigError(f"--instance applies to --problem ea, not --problem {args.problem}")
    if args.problem == "ising" or args.problem == "ea":
        text = ""
        if args.instance:
            text = Path(args.instance).read_text(encoding="utf-8")
        size = 4 if args.lattice_size is None and not text else args.lattice_size
        model = build_lattice(args.problem, size, args.coupling, args.ea_dist, args.ea_seed, text)
        target = BoltzmannTarget(model, args.beta)
        obs = enumerate_observables(target, with_probabilities=False)
        payload = {
            "problem": args.problem,
            "beta": args.beta,
            "n_sites": model.n_sites,
            "log_z": obs.log_z,
            "F": obs.free_energy,
            "U": obs.internal_energy,
            "S": obs.entropy,
            **_per_site(model.n_sites, F=obs.free_energy, U=obs.internal_energy,
                        S=obs.entropy),
        }
    else:
        if not args.graph:
            raise ConfigError(f"oracle --problem {args.problem} requires --graph")
        graph = Graph.from_text(Path(args.graph).read_text(encoding="utf-8"))
        res = brute_force_co(args.problem, graph, args.penalty_a, args.penalty_b,
                             allow_large=args.allow_large)
        payload = {
            "problem": args.problem,
            "n_nodes": graph.n_nodes,
            "optimal_energy": res.optimal_energy,
            "optimal_size": res.optimal_size,
            "n_optima": int(len(res.optimal_states)),
        }
    _write_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bitdiff",
                                     description="discrete diffusion samplers for binary states")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graphs", help="write a random-graph dataset directory")
    g.add_argument("--kind", choices=("ba", "rb"), required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--problem", default="", help="recorded in the manifest")
    g.add_argument("--min-nodes", type=int, default=10)
    g.add_argument("--max-nodes", type=int, default=14)
    g.add_argument("--ba-m", type=int, default=4)
    g.add_argument("--rb-min-cliques", type=int, default=2)
    g.add_argument("--rb-max-cliques", type=int, default=3)
    g.add_argument("--rb-min-k", type=int, default=3)
    g.add_argument("--rb-max-k", type=int, default=5)
    g.add_argument("--rb-min-p", type=float, default=0.3)
    g.add_argument("--rb-max-p", type=float, default=1.0)
    g.set_defaults(func=cmd_gen_graphs)

    t = sub.add_parser("train", help="train a sampler from a config file")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="run configuration file")
    source.add_argument("--resume", help="checkpoint to resume from (config comes from it)")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("solve", help="sample solutions for a co dataset")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--dataset", required=True)
    s.add_argument("--n-samples", type=int, default=30)
    s.add_argument("--ce", action=argparse.BooleanOptionalAction, default=False,
                   help="decode the final step by conditional expectation")
    s.add_argument("--steps-multiplier", type=int, default=1,
                   help="inference diffusion steps as a multiple of training steps")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("estimate", help="unbiased observable estimation")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--method", choices=("snis", "nmcmc"), default="snis")
    e.add_argument("--n-samples", type=int, default=100000)
    e.add_argument("--chains", type=int, default=8)
    e.add_argument("--chain-steps", type=int, default=2000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_estimate)

    o = sub.add_parser("oracle", help="exact references by enumeration")
    o.add_argument("--problem", choices=("ising", "ea", *CO_PROBLEMS), required=True)
    o.add_argument("--lattice-size", type=int,
                   help="lattice side length (default: the --instance file's, else 4)")
    o.add_argument("--coupling", type=float, default=1.0)
    o.add_argument("--beta", type=float, default=0.4407)
    o.add_argument("--ea-seed", type=int, default=0)
    o.add_argument("--ea-dist", choices=("normal", "uniform"), default="normal")
    o.add_argument("--instance", default=None,
                   help="EA coupling instance text file (--problem ea only)")
    o.add_argument("--graph", default=None, help="edge-list file for co problems")
    o.add_argument("--penalty-a", type=float, default=1.0)
    o.add_argument("--penalty-b", type=float, default=1.1)
    o.add_argument("--allow-large", action="store_true")
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as err:
        # a failed Python allocation raises MemoryError without text
        text = str(err) or ("out of memory" if isinstance(err, MemoryError) else "")
        print(f"config error: {text}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConvergenceError as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
