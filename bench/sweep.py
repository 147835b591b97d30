"""Wall time of default `distillab sweep --out` at `--threads 1` and `2`.

    python3 bench/sweep.py [--tree NAME=DIR ...] [--rounds 10] [--out BENCH_sweep.json]

Each tree is a distillab checkout (default: this one, named `after`); give
an older checkout as `--tree before=DIR` to compare. Every run is a fresh
process importing the CLI from `DIR/src`, writing to a fresh directory; the
trees take turns inside each round, and the first tree goes second on odd
rounds. Every run's `sweep.json` and `summary.csv` are checked against the
digests of the default flags (seed 0), which no thread count may change.
The output holds the host, the Python and numpy versions, each tree's git
SHA and source digest, and every sample.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = (1, 2)
DIGESTS = {
    "sweep.json": "f52b6dce1aea570138638b2d06b1458361a3f203e2e421da14e93dfa2fe47ca6",
    "summary.csv": "bbdbee8750585a5b3b5931e9ec3b18697f3ac0ceb025b776bddd3b59b5742acb",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_stamp(tree: Path) -> dict:
    def git(*args: str) -> str:
        res = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else "unknown"

    src = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        src.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "uncommitted_src_changes": bool(git("status", "--porcelain", "--", "src")),
        "src_sha256": src.hexdigest(),
    }


def one_run(tree: Path, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "distillab", "sweep", "--out", str(out)]
        start = time.perf_counter()
        res = subprocess.run(argv + ["--threads", str(threads)], env=env, capture_output=True)
        wall = time.perf_counter() - start
        bad = [
            name
            for name, want in DIGESTS.items()
            if not (out / name).is_file() or _sha256(out / name) != want
        ]
    return {"wall_s": round(wall, 4), "exit": res.returncode, "digest_mismatch": bad}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=DIR, repeatable")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = parser.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree) or {"after": str(ROOT)}
    trees = {name: Path(d).resolve() for name, d in trees.items()}
    samples = {name: {str(t): [] for t in THREADS} for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for t in THREADS:
            for name in order:
                run = one_run(trees[name], t)
                samples[name][str(t)].append(run)
                print(f"round {r} threads {t} {name}: {run}", file=sys.stderr)

    def summary(runs: list[dict]) -> dict:
        walls = sorted(run["wall_s"] for run in runs)
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
        return {
            "median_s": round(q[1], 4),
            "q1_s": round(q[0], 4),
            "q3_s": round(q[2], 4),
            "min_s": walls[0],
        }

    result = {
        "command": "distillab sweep --out DIR --threads N (default flags, seed 0)",
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_end": list(os.getloadavg()),
        "rounds": args.rounds,
        "expected_digests": DIGESTS,
        "trees": {
            name: {
                **tree_stamp(path),
                "threads": {
                    t: {**summary(runs), "samples": runs} for t, runs in samples[name].items()
                },
            }
            for name, path in trees.items()
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    failed = [
        run for by_t in samples.values() for runs in by_t.values() for run in runs
        if run["exit"] != 0 or run["digest_mismatch"]
    ]
    for name, by_t in result["trees"].items():
        for t, s in by_t["threads"].items():
            print(f"{name} threads {t}: median {s['median_s']:.3f} s "
                  f"[{s['q1_s']:.3f}, {s['q3_s']:.3f}]")
    print(f"{len(failed)} failed runs; wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
