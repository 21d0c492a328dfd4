"""bitdiff benchmark.

    python3 perfbench/run.py --workload lattice-fkl_mc --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload's inputs come from `--seed`; its
one stage repeats its operation for `--seconds`. `--trace 0` prints the
end-to-end metrics from a plain run; `--trace 1` alternates plain and traced
operations and prints the per-layer split. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines before
it list every metric by name and unit, and `.perfbench_out/` keeps the full
result with its environment block (and, traced, every span).
"""

from __future__ import annotations

import os

# pinned before numpy loads: default OpenBLAS threading swings epoch times by
# several x when another process shares the machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402


def pin_allocator() -> int | None:
    """Fix glibc's mmap threshold at its default starting value, 128 KiB;
    setting it turns glibc's dynamic threshold off. Left dynamic, the
    threshold rises on the first frees of large blocks, in an order that
    differs from process to process, so numpy's temporaries come either
    from the heap or from fresh mmapped pages: `lattice-fkl_mc` calls took
    0.5 s in processes of the first kind and 0.9 s, with about 133k minor
    page faults each, in the second. Pinned, every process is of the
    second kind, the one most processes fell into. Returns the threshold,
    or None where the C library has no `mallopt`."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        if libc.mallopt(-3, 128 * 1024) == 1:  # M_MMAP_THRESHOLD
            return 128 * 1024
    except (OSError, AttributeError, TypeError):
        pass
    return None


MMAP_THRESHOLD = pin_allocator()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# times are scaled to a host on which `calibrate()` takes this long
CALIBRATION_REF_S = 0.003
# how often a long operation pauses to time the host's speed
CALIBRATE_EVERY_S = 0.25


def import_bitdiff():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bitdiff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bitdiff sources under {src}")
    sys.path.insert(0, str(src))
    import bitdiff

    if Path(bitdiff.__file__).resolve().parent != (src / "bitdiff").resolve():
        sys.exit(f"perfbench: imported bitdiff from {bitdiff.__file__}, not {src}")
    sys.path.insert(1, str(Path(__file__).resolve().parent))


# ---------------------------------------------------------------------------
# metric tables

END_TO_END = (("call_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# spans whose self time is reported as a share of the stage's traced time
LAYERS = ("objectives.grad", "objectives.buffer", "objectives.plan", "objectives.weights",
          "autodiff.backward", "nets.forward_traced", "nets.value", "nets.forward",
          "diffusion.sample", "diffusion.log_p_hat", "optim.adam", "train.checkpoint",
          "train.build_instances", "train.load_dataset", "train.epoch", "python.gc",
          "unbiased.snis", "unbiased.chain", "unbiased.diag", "unbiased.observables",
          "energies.energy", "energies.enumerate", "decode.ce", "graphs.feasible",
          "cli.load_checkpoint", "bench.untraced")
# (metric, unit, better); counts are per epoch for training, per call otherwise
COUNTS = (("objectives.grad_calls", "count", "lower"),
          ("autodiff.records_per_grad", "count", "lower"),
          ("optim.adam_calls", "count", "lower"),
          ("train.checkpoint_bytes", "bytes", "lower"),
          ("nets.rows_per_call", "rows", "higher"),
          ("energies.energy_calls", "count", "lower"),
          ("energies.rows_per_call", "rows", "higher"),
          ("decode.ce_calls", "count", "lower"),
          ("decode.feasible_share", "ratio", "higher"),
          ("unbiased.tau", "steps", "lower"),
          ("unbiased.acceptance_rate", "ratio", "higher"),
          ("unbiased.ess_per_sample", "ratio", "higher"),
          ("bench.trace_overhead_pct", "%", "lower"))
SETUP_LAYERS = ("graphs.gen", "graphs.brute_force", "energies.enumerate", "energies.energy",
                "train.load_dataset", "train.checkpoint", "bench.untraced")


def per_layer_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better). A workload reports all
    of them; a layer its stage does not run reads 0."""
    return ([(f"{layer}_pct", "%", "lower") for layer in LAYERS] + list(COUNTS)
            + [(f"setup.{layer}_pct", "%", "lower") for layer in SETUP_LAYERS])


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    commit = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "malloc_mmap_threshold": MMAP_THRESHOLD,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# running


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn):
        """Run one operation or check; a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as err:  # noqa: BLE001  a failed operation is data
            self.failures.append(f"{what}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
            return None


def calibrate() -> float:
    """How long a fixed kernel that exercises what bitdiff spends its time
    on (interpreted Python, small numpy matrix products, one large
    vectorized pass) takes right now: the best of three runs."""
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((64, 64)) / 8.0
    small = rng.standard_normal((32, 64))
    large = rng.standard_normal((32768, 16))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i
        h = small
        for _ in range(50):
            h = np.tanh(h @ weights)
        float((large * large).sum())
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, calibration_s: float) -> float:
    """A time taken while `calibrate()` took `calibration_s`, scaled to a
    host on which it takes CALIBRATION_REF_S."""
    return CALIBRATION_REF_S * seconds / calibration_s


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Set-up times of fresh processes that import bitdiff and build the
    workload's inputs (as a user pays them), each timed inside the process
    from the start of this script to the end of the set-up and scaled by
    calibrations taken right after, and the digests of the inputs each
    one built."""
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        target = WORK / f"{workload}-{seed}-{os.getpid()}-setup{k}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only", str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(scaled(report["seconds"], report["calibration_s"]))
        digests.append(report["digest"])
    return times, digests


class Calibrations:
    """The host's speed over a run: calibration times with the moment each
    was taken. One calibration varies by about 15 % from the next while the
    host's speed drifts over seconds, so the speed at a moment is the median
    of the NEAREST calibrations taken closest to it."""

    NEAREST = 7

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.last = -math.inf

    def take(self) -> None:
        start = time.perf_counter()
        self.seconds.append(calibrate())
        self.last = time.perf_counter()
        self.at.append(0.5 * (start + self.last))

    def take_if_due(self, now: float) -> bool:
        if now - self.last < CALIBRATE_EVERY_S:
            return False
        self.take()
        return True

    def near(self, t: float) -> float:
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - self.NEAREST // 2, len(self.at) - self.NEAREST))
        return statistics.median(self.seconds[lo:lo + self.NEAREST])


@dataclass
class OpResult:
    """One operation: its wall-clock and CPU-clock span, the pauses inside
    it for calibration (each on both clocks), the epochs it split into, the
    facts it reported, and its root span when traced. `scaled_s` is set
    once the run ends."""

    wall: tuple
    cpu: tuple
    pauses: list
    epochs: list
    info: dict
    root: int = -1
    scaled_s: float = math.nan

    @property
    def seconds(self) -> float:
        """Wall time without the pauses."""
        return self.wall[1] - self.wall[0] - sum(p[1] - p[0] for p in self.pauses)

    @property
    def cpu_s(self) -> float:
        """CPU time without the pauses."""
        return self.cpu[1] - self.cpu[0] - sum(p[3] - p[2] for p in self.pauses)

    def scale(self, calibrations: Calibrations) -> None:
        """Each stretch between pauses: its CPU time, scaled by the host's
        speed around it."""
        walls = [self.wall[0], *(t for p in self.pauses for t in p[:2]), self.wall[1]]
        cpus = [self.cpu[0], *(t for p in self.pauses for t in p[2:]), self.cpu[1]]
        self.scaled_s = sum(
            scaled(c1 - c0, calibrations.near(0.5 * (w0 + w1)))
            for w0, w1, c0, c1 in zip(walls[::2], walls[1::2], cpus[::2], cpus[1::2]))


def run_op(stage, traced: bool, tracer, clock, calibrations) -> OpResult:
    # each call starts, like a fresh process, with no garbage left by the last
    gc.collect()
    clock.ticks.clear()
    # a calibration inside a traced operation would land in a span's self time
    clock.pause = None if traced else calibrations.take_if_due
    root = -1
    if traced:
        tracer.install()
        root = tracer.open(f"stage.{stage.name}")
    if stage.tick:
        clock.install(*stage.tick)
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        info = stage.op()
        end, cpu_end = time.perf_counter(), time.process_time()
    finally:
        clock.uninstall()
        if traced:
            tracer.close(root)
            tracer.uninstall()
    ticks = clock.ticks
    if stage.epochs and len(ticks) != stage.epochs + 1:
        raise RuntimeError(f"{stage.name}: expected {stage.epochs + 1} checkpoint writes, "
                           f"saw {len(ticks)}")
    epochs = [b[0] - a[1] for a, b in zip(ticks, ticks[1:])] if stage.epochs else []
    pauses = [t for t in ticks if t[1] > t[0]]
    return OpResult((start, end), (cpu_start, cpu_end), pauses, epochs, info, root=root)


def run_ops(stage, seconds: float, trace: bool, tracer, clock, tally: Tally):
    """Repeat the stage's operation for `seconds`; returns (plain, traced).

    The calibration kernel runs before the first operation, after each one,
    and inside plain operations on the stage's ticks at most every
    CALIBRATE_EVERY_S; each stretch of an operation is scaled by the
    calibrations taken nearest it. A traced run alternates plain and traced
    operations, starting with one of each, so host drift hits both alike."""
    plain, traced = [], []
    calibrations = Calibrations()
    calibrations.take()
    spent = 0.0
    t0 = time.perf_counter()
    i = 0
    while i < 1 + trace or time.perf_counter() - t0 + spent / i <= seconds:
        is_traced = trace and i % 2 == 1
        tracer.run = i
        start = time.perf_counter()
        result = tally.attempt(f"{stage.name}[{i}]",
                               lambda: run_op(stage, is_traced, tracer, clock, calibrations))
        spent += time.perf_counter() - start
        i += 1
        calibrations.take()
        if result is not None:
            (traced if is_traced else plain).append(result)
    for result in plain + traced:
        result.scale(calibrations)
    return plain, traced


def scaled_call_s(ops) -> float:
    """The median scaled operation time."""
    return statistics.median(r.scaled_s for r in ops)


def tail(values):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, n), or None while that percentile is not above the
    median (fewer than 21 samples)."""
    n = len(values)
    if n < 21:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(stage, plain, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    """(bounded metrics, every figure with its sample count) from a plain run."""
    if not plain:
        raise RuntimeError(f"stage {stage.name} completed no operation")
    call_s = scaled_call_s(plain)
    calls = [r.seconds for r in plain]
    named = {}
    if stage.epochs:
        epochs = [e for r in plain for e in r.epochs]
        named[f"epoch_s.{stage.name}.p50"] = (statistics.median(epochs), "s", len(epochs))
        t = tail(epochs)
        if t is not None:
            named[f"epoch_s.{stage.name}.tail"] = (t[0], "s", f"p{t[1]:.1f} of {t[2]}")
    named[stage.rate_metric] = (statistics.median(stage.work_per_op / c for c in calls),
                                f"{stage.work_unit}/s", len(calls))
    named["call_s.wall.p50"] = (statistics.median(calls), "s", len(calls))
    named["call_s.cpu.p50"] = (statistics.median(r.cpu_s for r in plain), "s", len(calls))
    t = tail(calls)
    if t is not None:
        named["call_s.wall.tail"] = (t[0], "s", f"p{t[1]:.1f} of {t[2]}")
    for key in plain[0].info:
        values = [r.info[key] for r in plain]
        if all(isinstance(v, float) for v in values):
            named[key] = (statistics.median(values), "", len(values))
    metrics = {"call_s": call_s, "setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb}
    named["call_s"] = (call_s, "s", len(plain))
    named["setup_s"] = (metrics["setup_s"], "s", len(setup_times))
    named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    return metrics, named


def self_times(tracer, roots, members) -> tuple[float, dict, dict, dict]:
    """Traced time under `roots`, and per span name its self time, call
    count and counts."""
    total = sum(tracer.end[r] - tracer.start[r] for r in roots)
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    for root in roots:
        for i in members[root]:
            name = "bench.untraced" if i == root else tracer.names[tracer.name_id[i]]
            self_s[name] = self_s.get(name, 0.0) + tracer.end[i] - tracer.start[i] \
                - tracer.child_s[i]
            calls[name] = calls.get(name, 0) + 1
            if not math.isnan(tracer.count[i]):
                counts.setdefault(name, []).append(tracer.count[i])
    return total, self_s, calls, counts


def per_layer(stage, plain, traced, tracer, setup_root: int) -> dict:
    """Self-time shares and counts from the traced operations, and the
    traced set-up's self-time shares."""
    members: dict = {}
    for i, root in enumerate(tracer.roots()):
        members.setdefault(root, []).append(i)
    values = {}
    total, self_s, _, _ = self_times(tracer, [setup_root], members)
    for layer in SETUP_LAYERS:
        values[f"setup.{layer}_pct"] = 100.0 * self_s.get(layer, 0.0) / total
    if not traced:
        raise RuntimeError(f"stage {stage.name} completed no traced operation")
    total, self_s, calls, counts = self_times(tracer, [r.root for r in traced], members)
    for layer in LAYERS:
        values[f"{layer}_pct"] = 100.0 * self_s.get(layer, 0.0) / total
    units = sum(len(r.epochs) for r in traced) if stage.epochs else len(traced)
    rows = counts.get("energies.energy", [])
    fwd_rows = counts.get("nets.forward", [])
    derived = {
        "objectives.grad_calls": calls.get("objectives.grad", 0) / units,
        "autodiff.records_per_grad": (statistics.mean(counts["objectives.grad"])
                                      if counts.get("objectives.grad") else 0.0),
        "optim.adam_calls": calls.get("optim.adam", 0) / units,
        "train.checkpoint_bytes": (statistics.median(counts["train.checkpoint"])
                                   if counts.get("train.checkpoint") else 0.0),
        "nets.rows_per_call": sum(fwd_rows) / len(fwd_rows) if fwd_rows else 0.0,
        "energies.energy_calls": len(rows) / units,
        "energies.rows_per_call": sum(rows) / len(rows) if rows else 0.0,
        "decode.ce_calls": calls.get("decode.ce", 0) / units,
    }
    for r in traced:
        derived.update(r.info)
    if plain:
        derived["bench.trace_overhead_pct"] = 100.0 * (
            scaled_call_s(traced) / scaled_call_s(plain) - 1.0)
    for name, _, _ in COUNTS:
        values[name] = float(derived.get(name, 0.0))
    return values


def write_spans(path: Path, tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i in range(len(tracer.start)):
            count = tracer.count[i]
            fh.write(json.dumps({
                "i": i, "name": tracer.names[tracer.name_id[i]], "start": tracer.start[i],
                "end": tracer.end[i], "parent": tracer.parent[i], "run": tracer.run_id[i],
                "count": None if math.isnan(count) else count,
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    import_bitdiff()
    import workloads
    from spans import Tracer, UnitClock

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        target = Path(args.setup_only)
        workload.setup(args.seed, target)
        seconds = time.perf_counter() - START
        print(json.dumps({"seconds": seconds,
                          "calibration_s": statistics.median(calibrate() for _ in range(5)),
                          "digest": workloads.inputs_digest(target)}))
        return 0

    load_before = os.getloadavg()
    env = environment()
    tally = Tally()
    tracer, clock = Tracer(), UnitClock()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, setup_digests = [], []
        if not args.trace:
            setup_times, setup_digests = tally.attempt(
                "setup_processes", lambda: measure_setup(args.workload, args.seed)) or ([], [])
        setup_root = -1
        if args.trace:
            tracer.install()
            setup_root = tracer.open("stage.setup")
        try:
            inputs = workload.setup(args.seed, work / "inputs")
        finally:
            if args.trace:
                tracer.close(setup_root)
                tracer.uninstall()
        digest = workloads.inputs_digest(work / "inputs")
        if not args.trace:
            tally.attempt("same_seed_same_inputs", lambda: workloads.check(
                all(d == digest for d in setup_digests), "set-up processes built other inputs"))
        stage = workload.stage(inputs)
        measured_start = time.perf_counter()
        plain, traced = run_ops(stage, args.seconds, bool(args.trace), tracer, clock, tally)
        measured_s = time.perf_counter() - measured_start
        # the workload's own high-water mark, before the checks allocate
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, fn in workload.post_checks(inputs):
            tally.attempt(name, fn)

        if args.trace:
            metrics = per_layer(stage, plain, traced, tracer, setup_root)
            units = {n: u for n, u, _ in per_layer_table()}
            named = {k: (v, units[k], "") for k, v in metrics.items()}
        else:
            if not setup_times:
                raise RuntimeError("set-up time was not measured")
            metrics, named = end_to_end(stage, plain, setup_times, peak_rss_mb)
        run_s = time.perf_counter() - START
        named["run_s"] = (run_s, "s", 1)
        named["measured_s"] = (measured_s, "s", 1)
        named["fail_share"] = (len(tally.failures) / max(1, tally.attempted), "ratio",
                               tally.attempted)
    except Exception:  # noqa: BLE001  no result line without every metric
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["loadavg_1min_before"] = load_before[0]
    env["loadavg_1min_after"] = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "stage_info": [r.info for r in plain + traced],
        "plain_ops": [{"wall_s": r.seconds, "cpu_s": r.cpu_s, "scaled_s": r.scaled_s,
                        "pauses": len(r.pauses)} for r in plain],
        "plain_epochs": [e for r in plain for e in r.epochs],
        "failures": tally.failures,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        write_spans(OUT / f"{stem}_spans.jsonl.gz", tracer)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"load {load_before[0]:.2f} -> {env['loadavg_1min_after']:.2f}, "
          f"nproc {env['nproc']}, BLAS threads 1, numpy {env['numpy']}, commit "
          f"{env['git_commit'][:12]}")
    for k, (v, u, n) in named.items():
        print(f"{k:45s} {v:14.6g} {u:8s} {n}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in per_layer_table()}
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
