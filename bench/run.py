#!/usr/bin/env python3
"""chainlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness [--workload NAME] [--seconds S]

Run from a checkout of the repository; the program under test is the
checkout's own `src/chainlab`, started as `python -m chainlab.cli`.

--trace 0 runs the workload as a closed loop with one client: each
chainlab command line is started as a subprocess only after the previous
one has ended, and whole passes over the workload repeat until S seconds
have gone by.  It prints the end-to-end metrics, each a median over the
passes; setup_s is the median of no-op invocations, SETUP_PER_PASS of
them spread over each pass.

--trace 1 is the traced run: untraced subprocess passes alternate with
in-process passes that wrap the public functions of every chainlab
module (see tracing.py), then one pass measures peak memory.  It prints
the per-layer metrics.

Every output is checked (see workloads.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--steadiness runs the benchmark RUNS times per workload with a new seed
each time, SETS times over, and prints each end-to-end metric's median,
quartiles, spread and shift between sets against its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: No-op invocations timed per pass for setup_s, spread over the pass.
SETUP_PER_PASS = 3
#: Runs per set, and sets, of the steadiness mode.
RUNS, SETS = 10, 2
MiB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Sample:
    """One finished subprocess."""

    wall: float
    cpu: float
    rss_mib: float
    code: int
    stdout: str
    stderr: str


def spawn(argv: list[str], work: Path) -> Sample:
    """Run `chainlab ARGV` to completion and collect its resource usage."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainlab.cli", *argv], stdout=out, stderr=err, cwd=ROOT, env=env
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / MiB,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8"),
        stderr=err_path.read_text(encoding="utf-8"),
    )


@dataclass
class Outcome:
    """Operations attempted and failed, and the first wrong output seen."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, inv: workloads.Invocation, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED (exit {code}): chainlab {' '.join(inv.argv)}: {stderr.strip()}", file=sys.stderr)
            return
        try:
            inv.check(json.loads(stdout))
        except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"chainlab {' '.join(inv.argv)}: {type(exc).__name__}: {exc}")
            print(f"WRONG OUTPUT: {self.errors[-1]}", file=sys.stderr)

    def result(self, metrics: dict[str, tuple[float, str]]) -> str:
        return json.dumps(
            {
                "correct": not self.errors,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )


def noop(work: Path) -> float:
    """Wall time of a no-op invocation, which prints the usage text."""
    sample = spawn([], work)
    if sample.code != 0 or "usage: chainlab" not in sample.stdout:
        raise SystemExit(f"the no-op chainlab invocation failed: {sample.stderr.strip()}")
    return sample.wall


def noop_slots(count: int) -> set[int]:
    """Indices of the command lines of a pass that a no-op precedes."""
    return {i * count // SETUP_PER_PASS for i in range(SETUP_PER_PASS)}


def run_one(inv: workloads.Invocation, work: Path, outcome: Outcome) -> Sample:
    sample = spawn(list(inv.argv), work)
    outcome.record(inv, sample.code, sample.stdout, sample.stderr)
    return sample


def subprocess_pass(invocations, work: Path, outcome: Outcome, setup: list[float]) -> list[Sample]:
    samples = []
    slots = noop_slots(len(invocations))
    for i, inv in enumerate(invocations):
        if i in slots:
            setup.append(noop(work))
        samples.append(run_one(inv, work, outcome))
    return samples


def run_untraced(invocations, work: Path, seconds: float, outcome: Outcome) -> dict:
    noop(work)  # fills the bytecode and file caches
    setup: list[float] = []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(subprocess_pass(invocations, work, outcome, setup))
        walls = " ".join(f"{s.wall:.3f}" for s in passes[-1])
        print(f"pass {len(passes)}: {sum(s.wall for s in passes[-1]):.3f} s = {walls}", flush=True)
    print(f"{len(invocations)} invocations per pass, {len(passes)} passes; per-invocation medians:")
    # Each invocation's median over the passes, so that a burst of load
    # from outside the benchmark during one invocation does not count.
    per_invocation = [[p[i] for p in passes] for i in range(len(invocations))]
    return {
        "wall_s": (sum(statistics.median(s.wall for s in runs) for runs in per_invocation), "s"),
        "cpu_s": (sum(statistics.median(s.cpu for s in runs) for runs in per_invocation), "s"),
        "peak_rss_mib": (max(statistics.median(s.rss_mib for s in runs) for runs in per_invocation), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def run_traced(invocations, work: Path, seconds: float, outcome: Outcome) -> dict:
    sys.path.insert(0, str(SRC))
    import tracing

    noop(work)  # fills the bytecode and file caches
    setup: list[float] = []
    untraced, traced = [], []
    slots = noop_slots(len(invocations))
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # Each command runs untraced, then traced, so that a change in the
        # machine's speed during the pass reaches both sides alike.
        tracer = tracing.Tracer(memory=False)
        samples, in_process = [], 0.0
        for i, inv in enumerate(invocations):
            if i in slots:
                setup.append(noop(work))
            samples.append(run_one(inv, work, outcome))
            in_process += tracing.run_pass([inv], tracer, outcome.record)
        untraced.append(samples)
        traced.append((tracer, in_process))
        outcome.errors += tracer.mismatches
    peaks = tracing.run_memory_pass(invocations, outcome.record)
    setup_s = statistics.median(setup)

    def median(values) -> float:
        return statistics.median(list(values))

    units = tracing.metric_units()
    metrics = {}
    for name in tracing.LAYERS:
        metrics[f"{name}_s"] = median(t.seconds.get(name, 0.0) for t, _ in traced)
    for name in tracing.PEAKS:
        metrics[f"{name}_peak_mib"] = peaks.get(name, 0.0)
    for name in tracing.COUNTERS:
        metrics[name] = traced[0][0].counts.get(name, 0)
    for command in tracing.COMMANDS:
        metrics[f"cli.{command}_s"] = median(
            sum((s.wall for inv, s in zip(invocations, p) if inv.command == command), 0.0)
            for p in untraced
        )
    verify_s = metrics["cli.verify_s"]
    covered = median(t.verify_covered for t, _ in traced)
    metrics["trace.verify_coverage"] = covered / verify_s if verify_s else 0.0
    base = median(sum(s.wall for s in p) for p in untraced) - len(invocations) * setup_s
    metrics["trace.overhead"] = median(total for _, total in traced) / base - 1
    print(f"{len(untraced)} untraced and {len(traced)} traced passes, 1 tracemalloc pass over the first invocation of each subcommand; setup_s {setup_s:.4f} s")
    if verify_s:
        verifies = sum(1 for inv in invocations if inv.command == "verify")
        print(
            f"verify: {covered:.4f} s of {verify_s:.4f} s in io and verifier stages "
            f"({metrics['trace.verify_coverage']:.1%}); setup_s is {setup_s * verifies / verify_s:.1%}"
        )
    print(f"tracing overhead: {metrics['trace.overhead']:+.1%} of the untraced time less setup_s")
    return {name: (metrics[name], units[name]) for name in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "chainlab" / "cli.py").is_file():
        print(f"no chainlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        invocations = workloads.build(name, seed, work)
        outcome = Outcome()
        print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}, {seconds} s")
        run = run_traced if trace else run_untraced
        metrics = run(invocations, work, seconds, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:48s} {value:14.6f} {unit}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, correct {not outcome.errors}")
    print(outcome.result(metrics))
    return 0


def run_steadiness(names: list[str], seconds: int) -> int:
    """Repeat untraced runs with fresh seeds and report each metric's spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[list[dict]]] = {name: [[] for _ in range(SETS)] for name in names}
    for s in range(SETS):
        for seed in range(s * RUNS + 1, (s + 1) * RUNS + 1):
            for name in names:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed)]
                cmd += ["--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                if proc.returncode != 0 or not last.startswith("{"):
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                results[name][s].append(json.loads(last))
                print(f"set {s + 1} {name} seed {seed}: {last}", flush=True)
    steady = True
    print(f"\n{RUNS} runs per set, {SETS} sets, {seconds} s each; spread = (q3 - q1) / median;")
    print("shift = median against the first set's; a metric must keep spread and |shift| within its bound")
    header = ("workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "shift")
    print("{:12s} {:13s} {:>3s} {:>9s} {:>9s} {:>9s} {:>7s} {:>6s} {:>7s}".format(*header))
    for name in names:
        for metric, bound in bounds.items():
            first = None
            for s, rows in enumerate(results[name]):
                q1, med, q3 = statistics.quantiles([r["metrics"][metric]["value"] for r in rows], n=4)
                spread = (q3 - q1) / med
                first = first or med
                shift = med / first - 1
                ok = spread <= bound and abs(shift) <= bound
                steady &= ok
                print(
                    f"{name:12s} {metric:13s} {s + 1:3d} {q1:9.4f} {med:9.4f} {q3:9.4f} "
                    f"{spread:7.1%} {bound:6.0%} {shift:+7.1%}{'' if ok else '  OUT OF BOUND'}"
                )
        shares = [
            Fraction(sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows)) for rows in results[name]
        ]
        correct = all(r["correct"] for rows in results[name] for r in rows)
        print(f"{name}: failed share per set {[str(x) for x in shares]}, all outputs correct: {correct}")
        steady &= correct and len(set(shares)) == 1
    WORK.mkdir(exist_ok=True)
    (WORK / "steadiness.json").write_text(json.dumps(results), encoding="utf-8")
    print(f"steady within the bounds: {steady}")
    return 0 if steady else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)
    if args.steadiness:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return run_steadiness(names, args.seconds)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
