"""Benchmark of the distillab CLI.

    python3 perfbench/run.py --workload {diagnose,train,gradcheck} --seed N \
        --seconds S --trace {0,1}

With `--trace 0` it times whole CLI invocations, each in a fresh process, one
after another for about S seconds, interleaved with set-up-only processes,
and reports the end-to-end metrics. With `--trace 1` it alternates untraced
runs with runs that record spans around calls into distillab's modules, and
reports per-layer metrics. Every run's output is checked. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import check_run, load_reference, sha256  # noqa: E402
from perfbench.workloads import COUNTS, LAYERS, WORKLOADS, run_facts  # noqa: E402

SRC = ROOT / "src"
CHILD = ROOT / "perfbench" / "child.py"
REFERENCE = ROOT / "perfbench" / "reference_digests.json"
WORK = ROOT / ".perfbench_work"

MIN_RUNS = 3  # CLI runs per end-to-end run, even past --seconds
IMPORT_SAMPLES = 3  # `-X importtime` processes per traced run
TRACED_RUNS = 2  # alternated with as many untraced runs; their exact counts must agree
CHILD_TIMEOUT_S = 120.0
DEADLINE_S = 150.0  # start no run that would end after this; the contract is 180 s
COVERAGE_MIN = 0.90
# per-layer times reported in the result line: only layers every workload runs,
# so none reads 0 on a workload that never calls it; the table prints all.
ALWAYS_TIMED = ("seeding.derive_rng", "dists.softmax_with_temperature")
IMPORT_PACKAGES = ("numpy", "scipy", "distillab")


@dataclass
class Child:
    exit_code: int
    wall_s: float
    rss_mb: float
    record: dict | None
    stdout: bytes
    stderr: bytes
    setup_s: float | None = None
    main_s: float | None = None


@dataclass
class Run:
    child: Child
    digests: dict
    reasons: list[str]
    facts: dict


def spawn(mode: str, cli_argv: list[str], cwd: Path, python_flags: tuple = ()) -> Child:
    """One child process, timed from just before spawn to its reaping; its own
    peak RSS comes from wait4 (not the cumulative RUSAGE_CHILDREN)."""
    record_path = cwd / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, *python_flags, str(CHILD), str(record_path), mode, "--", *cli_argv]
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.is_file() else None
    child = Child(
        exit_code=proc.returncode,
        wall_s=end - start,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        record=record,
        stdout=(cwd / "stdout").read_bytes(),
        stderr=(cwd / "stderr").read_bytes(),
    )
    if record is not None:
        child.setup_s = record["ready"] - start
        if "main_end" in record:
            child.main_s = record["main_end"] - record["main_start"]
    return child


def fresh_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


def remove_work_dir() -> None:
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def setup_child(python_flags: tuple = ()) -> Child:
    run_dir = fresh_dir()
    try:
        child = spawn("setup", [], run_dir, python_flags)
    finally:
        shutil.rmtree(run_dir)
    if child.exit_code != 0 or child.setup_s is None:
        raise SystemExit(
            f"perfbench: importing distillab.cli failed (exit {child.exit_code}):\n"
            + child.stderr.decode(errors="replace")
        )
    return child


def run_cli(workload: str, seed: int, mode: str, expected: dict | None) -> Run:
    """One CLI invocation in a fresh directory, checked, then the directory removed."""
    run_dir = fresh_dir()
    try:
        child = spawn(mode, WORKLOADS[workload].argv(seed), run_dir)
        digests, reasons = check_run(workload, run_dir, child.stdout, child.exit_code, expected)
        if child.main_s is None:
            reasons.append("no timing record")
        facts = {}
        if child.main_s is not None and child.exit_code == 0:
            try:  # a run that failed only its digest check still did its work
                facts = run_facts(workload, run_dir, child.stdout)
            except (OSError, ValueError, KeyError, TypeError):
                pass  # the checks above have already recorded why
    finally:
        shutil.rmtree(run_dir)
    if child.exit_code != 0 and child.stderr:
        reasons.append("stderr: " + child.stderr.decode(errors="replace").strip()[-500:])
    return Run(child, digests, reasons, facts)


class Runner:
    """Runs checked CLI invocations of one workload and seed. Runs after the
    first must match recorded digests or, where none exist, the first run."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.expected = reference.get(workload, {}).get(str(seed))
        self.runs: list[Run] = []

    def run(self, mode: str) -> Run:
        r = run_cli(self.workload, self.seed, mode, self.expected)
        if self.expected is None:
            self.expected = r.digests
        self.runs.append(r)
        for reason in r.reasons:
            print(f"FAILED run {len(self.runs)} ({mode}): {reason}")
        return r

    @property
    def failed(self) -> int:
        return sum(bool(r.reasons) for r in self.runs)


def median(values) -> float:
    return statistics.median(values)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it
    (nearest rank), or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = max(1, -(-p * n // 100))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def src_sha256() -> str:
    """One digest over src/, so results from checkouts without git still name their code."""
    parts = []
    for path in sorted(SRC.rglob("*.py")):
        parts.append(str(path.relative_to(SRC)) + "\0" + sha256(path.read_bytes()))
    return sha256("\n".join(parts).encode())


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs, from
    /proc/stat; None where that is not available."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def stamp(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        **environment(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "loadavg_start": list(os.getloadavg()),
        "steal_s_start": steal_seconds(),
    }


def metric_line(name: str, value: float, unit: str, samples: list[float], note: str = "") -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "no percentile with >=10 samples above"
    listed = " ".join(f"{x:.4g}" for x in samples)
    return f"  {name:<12} {value:>12.6g} {unit:<4} median of n={len(samples)}; {tail_text}{note}; samples: {listed}"


def end_to_end(runner: Runner, seconds: int, started: float) -> dict:
    setup_child()  # warm-up: byte-compiles src and fills the page cache
    setup_samples = []
    window = time.monotonic()
    while True:
        # set-up-only processes are interleaved with CLI runs, so that both
        # medians sample the same stretch of time on a shared machine; one
        # before every other run leaves most of the time to the CLI runs
        if len(runner.runs) % 2 == 0:
            setup_samples.append(setup_child().setup_s)
        runner.run("run")
        timed = [r.child for r in runner.runs if r.child.main_s is not None]
        cycle = median([c.wall_s for c in timed] or [0.0]) + median(setup_samples)
        now = time.monotonic()
        if now - started + cycle > DEADLINE_S:
            break
        if len(runner.runs) >= MIN_RUNS and now - window + cycle > seconds:
            break
    done = [r for r in runner.runs if r.facts]
    if not done:
        raise SystemExit("perfbench: no run finished with readable output")
    walls = [c.wall_s for c in timed]
    setups = setup_samples + [c.setup_s for c in timed]
    rss = [c.rss_mb for c in timed]
    rates = [r.facts["work"] / r.child.main_s for r in done]
    w = WORKLOADS[runner.workload]
    attempted = len(runner.runs)
    print(f"end-to-end ({attempted} CLI runs, {len(setup_samples)} set-up-only runs):")
    print(metric_line("wall_s", median(walls), "s", walls))
    print(metric_line("setup_s", median(setups), "s", setups))
    print(metric_line("peak_rss_mb", median(rss), "MiB", rss))
    print(
        metric_line(
            "work_per_s",
            median(rates),
            "1/s",
            rates,
            f"; {w.rate_name}: {w.work_unit} / time in main",
        )
    )
    print(f"  {'ops_failed':<12} {runner.failed / attempted:>12.6g} fraction ({runner.failed}/{attempted} runs)")
    return {
        "wall_s": {"value": median(walls), "unit": "s"},
        "setup_s": {"value": median(setups), "unit": "s"},
        "peak_rss_mb": {"value": median(rss), "unit": "MiB"},
        "work_per_s": {"value": median(rates), "unit": "1/s"},
    }


def import_times() -> dict[str, float]:
    """Per-package sum of module self times from `python -X importtime`,
    median over IMPORT_SAMPLES processes."""
    samples: dict[str, list[float]] = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(IMPORT_SAMPLES):
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in setup_child(("-X", "importtime")).stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = float(fields[0].split(":")[1])
            except ValueError:
                continue  # the header line
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += self_us / 1e6
        for p in IMPORT_PACKAGES:
            samples[p].append(totals[p])
    return {p: median(v) for p, v in samples.items()}


def count_table(trace: dict) -> dict:
    """Everything in a trace that must repeat exactly on the same code."""
    return {
        "calls": {name: layer["calls"] for name, layer in trace["layers"].items()},
        "sites": trace["sites"],
        "counts": trace["counts"],
    }


def traced(runner: Runner) -> dict:
    untraced, runs = [], []
    for _ in range(TRACED_RUNS):
        untraced.append(runner.run("run"))
        runs.append(runner.run("trace"))
    traces = [r.child.record["trace"] for r in runs if r.child.record and "trace" in r.child.record]
    if len(traces) != TRACED_RUNS or any(r.child.main_s is None for r in untraced):
        raise SystemExit("perfbench: a traced or untraced run produced no record")
    if count_table(traces[0]) != count_table(traces[1]):
        reason = "exact counts differ between the two traced runs"
        runs[1].reasons.append(reason)
        print(f"FAILED run {len(runner.runs)} (trace): {reason}")

    def layer_value(name: str, key: str) -> float:
        return median([t["layers"].get(name, {}).get(key, 0.0) for t in traces])

    main_s = median([r.child.main_s for r in runs])
    untraced_s = median([r.child.main_s for r in untraced])
    covered_s = median([t["covered_s"] for t in traces])
    root_s = median([t["main_s"] for t in traces])
    calls = {name: traces[0]["layers"].get(name, {}).get("calls", 0) for name in LAYERS}
    counts = {name: traces[0]["counts"].get(name, 0) for name in COUNTS}
    imports = import_times()

    def row(name: str, text: str) -> None:
        print(f"  {name:<48} {text}")

    print(f"per-layer ({TRACED_RUNS} traced runs; medians; spans from wrappers at each lookup site):")
    row("layer", f"{'calls':>8} {'self_s':>10} {'total_s':>10} {'us/call':>9} {'self%':>6}")
    for name in LAYERS:
        self_s, total_s = layer_value(name, "self_s"), layer_value(name, "total_s")
        per_call = f"{1e6 * self_s / calls[name]:9.2f}" if calls[name] else f"{'-':>9}"
        row(name, f"{calls[name]:>8} {self_s:>10.4f} {total_s:>10.4f} {per_call} {100 * self_s / root_s:>6.1f}")
    facts = untraced[0].facts
    if calls["stats.score_report"] and facts.get("resamples"):
        resamples = facts["scores"] * facts["resamples"]
        per_resample = 1e6 * layer_value("stats.score_report", "self_s") / resamples
        row("stats.bootstrap.us_per_resample", f"{per_resample:.2f} us")
        kept = resamples - facts["degenerate"]
        row("stats.bootstrap.nondegenerate_ratio", f"{kept / resamples:.6f} ({kept}/{resamples})")
    if counts["objectives.fd_coords"]:
        fd_self = layer_value("objectives.finite_difference_check", "self_s")
        row("objectives.finite_difference_check.us_per_coord", f"{1e6 * fd_self / counts['objectives.fd_coords']:.2f} us")
    useful, collected = counts["trainer.rollout.useful"], counts["trainer.rollout.collected"]
    if collected:
        row("trainer.rollout.useful_ratio", f"{useful / collected:.4f} ({useful}/{collected})")
    for name in COUNTS:
        row(name, f"{counts[name]} (exact count)")
    coverage = covered_s / root_s
    verdict = "ok" if coverage >= COVERAGE_MIN else "BELOW"
    row("trace.coverage", f"{coverage:.4f} of main under top-level wrapped spans ({verdict}: {COVERAGE_MIN})")
    row("trace.overhead_s", f"{main_s - untraced_s:.4f} s (traced - untraced time in main)")
    for p in IMPORT_PACKAGES:
        row(f"setup.import.{p}_s", f"{imports[p]:.4f} s (module self times from -X importtime, summed)")

    metrics = {f"{name}.calls": (calls[name], "count") for name in LAYERS}
    metrics.update({name: (counts[name], "count") for name in COUNTS})
    metrics.update({f"{name}.self_s": (layer_value(name, "self_s"), "s") for name in ALWAYS_TIMED})
    metrics.update({f"setup.import.{p}_s": (imports[p], "s") for p in IMPORT_PACKAGES})
    metrics["trace.main_s"] = (main_s, "s")
    metrics["trace.uncovered_s"] = (root_s - covered_s, "s")
    metrics["trace.overhead_s"] = (main_s - untraced_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    # on SIGTERM, unwind so that the running child is killed and reaped and
    # the scratch directories are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "distillab" / "cli.py").is_file():
        print(f"perfbench: no distillab source under {SRC}", file=sys.stderr)
        return 2
    info = stamp(args.workload, args.seed, args.trace)
    reference, note = load_reference(REFERENCE, environment())
    if note:
        print(note)
    runner = Runner(args.workload, args.seed, reference)
    try:
        metrics = traced(runner) if args.trace else end_to_end(runner, args.seconds, started)
    finally:
        remove_work_dir()
    info["loadavg_end"] = list(os.getloadavg())
    steal = steal_seconds()
    if steal is not None and info["steal_s_start"] is not None:
        info["steal_s"] = round(steal - info["steal_s_start"], 2)
    del info["steal_s_start"]
    info["digests_checked_against"] = (
        "recorded reference" if str(args.seed) in reference.get(args.workload, {}) else "first run"
    )
    print("stamp " + json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.runs),
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
