"""Per-unit layer costs, timed in-process, to compare checkouts.

    python3 bench/layers.py [--tree NAME=DIR ...] [--rounds 10] [--out BENCH_layers.json]

Each tree is a distillab checkout (default: this one, named `after`); give
an older checkout as `--tree before=DIR` to compare. Every sample is a fresh
process importing distillab from `DIR/src`; the trees take turns inside each
round, and the first tree goes second on odd rounds. Each process times its
layer REPEATS times.

Layers:

- `fd_coord`: one finite-difference coordinate. `distillab gradcheck
  --batches 40 --weighting entropy_gate:3.0 --seed 0` (perfbench's
  `gradcheck` workload) run in-process, with the time inside
  `finite_difference_check` summed over its 40 batches and divided by the
  coordinates compared. Every run must print the same stdout, in every tree.

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
from importlib import metadata
from pathlib import Path

from sweep import tree_stamp

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3  # timed runs of the layer in each sample's process
# perfbench's gradcheck workload at seed 0
GRADCHECK_ARGV = ["gradcheck", "--batches", "40", "--weighting", "entropy_gate:3.0", "--seed", "0"]
# Run in the child: the CLI itself, with its finite_difference_check timed.
FD_COORD = """
import contextlib, io, json, sys, time
import distillab.cli as cli

check = cli.finite_difference_check
seconds = []


def timed(*args, **kwargs):
    start = time.perf_counter()
    report = check(*args, **kwargs)
    seconds[-1] += time.perf_counter() - start
    return report


cli.finite_difference_check = timed
for _ in range(int(sys.argv[1])):
    seconds.append(0.0)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(sys.argv[2:])
    if code != 0:
        sys.exit(code)
print(json.dumps({"seconds": seconds, "stdout": out.getvalue()}))
"""


def one_run(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", FD_COORD, str(REPEATS), *GRADCHECK_ARGV]
    res = subprocess.run(argv, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        return {"exit": res.returncode, "stderr": res.stderr[-2000:]}
    out = json.loads(res.stdout)
    compared = json.loads(out["stdout"])["compared"]
    return {
        "exit": 0,
        "compared": compared,
        "stdout_sha256": hashlib.sha256(out["stdout"].encode()).hexdigest(),
        "seconds": [round(s, 5) for s in out["seconds"]],
        "ns_per_coord": [round(s / compared * 1e9, 1) for s in out["seconds"]],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=DIR, repeatable")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree) or {"after": str(ROOT)}
    trees = {name: Path(d).resolve() for name, d in trees.items()}
    samples: dict[str, list[dict]] = {name: [] for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name in order:
            run = one_run(trees[name])
            samples[name].append(run)
            print(f"round {r} fd_coord {name}: {run.get('ns_per_coord', run)}", file=sys.stderr)

    def summary(runs: list[dict]) -> dict:
        costs = sorted(c for run in runs for c in run.get("ns_per_coord", []))
        if not costs:
            return {}
        q = statistics.quantiles(costs, n=4) if len(costs) > 1 else [costs[0]] * 3
        return {"median_ns": round(q[1], 1), "q1_ns": round(q[0], 1), "q3_ns": round(q[2], 1), "min_ns": costs[0]}

    result = {
        "command": "finite_difference_check inside distillab " + " ".join(GRADCHECK_ARGV),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_end": list(os.getloadavg()),
        "rounds": args.rounds,
        "repeats": REPEATS,
        "trees": {
            name: {
                **tree_stamp(path),
                "layers": {"fd_coord": {**summary(samples[name]), "samples": samples[name]}},
            }
            for name, path in trees.items()
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    runs = [run for by_tree in samples.values() for run in by_tree]
    failed = [run for run in runs if run["exit"] != 0]
    digests = {run["stdout_sha256"] for run in runs if run["exit"] == 0}
    for name, tree in result["trees"].items():
        s = tree["layers"]["fd_coord"]
        if s.get("median_ns") is not None:
            print(f"{name} fd_coord: median {s['median_ns']:.0f} ns [{s['q1_ns']:.0f}, {s['q3_ns']:.0f}]")
    if len(digests) > 1:
        print(f"stdout differs between runs: {sorted(digests)}")
    print(f"{len(failed)} failed runs; wrote {args.out}")
    return 1 if failed or len(digests) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
