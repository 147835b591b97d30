"""Per-unit layer costs, timed in-process, to compare checkouts.

    python3 bench/layers.py [--tree NAME=DIR ...] [--rounds 10] [--out BENCH_layers.json]

Each tree is a distillab checkout (default: this one, named `after`); give
an older checkout as `--tree before=DIR` to compare. Every sample is a fresh
process importing distillab from `DIR/src` and running one CLI command
REPEATS times in-process, with the layer functions wrapped by timers where
the CLI looks them up; the trees take turns inside each round, and the first
tree goes second on odd rounds.

Layers, in three commands:

- `fd_coord`: one finite-difference coordinate. `distillab gradcheck
  --batches 40 --weighting entropy_gate:3.0 --seed 0` (perfbench's
  `gradcheck` workload) at `--threads 1`, with the time inside
  `finite_difference_check` summed over its 40 batches and divided by the
  coordinates compared. The timer sees only the calling process, so the
  command is pinned to one process: at the default, a forked worker would
  check some of the batches unseen while every coordinate still counts.
- `problem`, `forced_continuation` and `ensemble_score`: `distillab diagnose
  --out out --threads 2 --seed 0` (perfbench's `diagnose` workload), with
  the time per call of `world.generate_problem` and of
  `world.forced_continuation`, and per candidate of `world.teacher_ensemble`
  plus the `score_ensemble` that follows it (a problem's candidates are one
  stack: its leading dimension, or one candidate for an (M, V) ensemble, so
  an older checkout that scores them one by one still compares). Only the
  calling process's shard of problems is timed: the forked worker's calls
  are not seen.
- `bootstrap_resample`: one cluster-bootstrap resample, on the same
  `diagnose` command: the time inside `world.score_report` divided by its
  resamples (five reports of 2,000). The reports run in the calling process
  only, after the probe. `stats._draw_counts` memoises the draw matrix
  across calls, so its cache is cleared before each repeat: every repeat
  then draws the matrix once, as a fresh `diagnose` does.
- `rollout_token` and `loss_grad_token`: `distillab train --out out --seed 0
  --world-seed 0` (perfbench's `train` workload). A rollout token is the
  time inside `trainer._collect_episodes` (the refresh of the policy and
  the step's draws and walks) divided by the tokens its episodes hold; a
  loss-plus-gradient token is the time inside `distillation_loss` and
  `loss_gradient_wrt_student_logits`, as `train_step` calls them, divided
  by the batch's tokens. Where the two read one memoised objective pass,
  the first call pays for it and the second scales its gradient rows.

Every run of a command must print the same stdout and write the same files,
in every tree. The output holds the host, the Python and numpy versions,
each tree's git SHA and source digest, and every sample.
"""
from __future__ import annotations

import argparse
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
REPEATS = 3  # timed runs of the command in each sample's process
RESAMPLES = 2000  # diagnose's default --resamples: the resamples of each score report
# perfbench's gradcheck, diagnose and train workloads at seed 0, gradcheck in one process
COMMANDS = {
    "gradcheck": [
        "gradcheck", "--batches", "40", "--weighting", "entropy_gate:3.0", "--seed", "0", "--threads", "1"
    ],
    "diagnose": ["diagnose", "--out", "out", "--threads", "2", "--seed", "0"],
    "train": ["train", "--out", "out", "--seed", "0", "--world-seed", "0"],
}
# layer -> (command, the functions timed, each as module.attr; the layer's
# units are the first one's, unless the unit is the gradcheck's `compared`)
LAYERS = {
    "fd_coord": ("gradcheck", ["cli.finite_difference_check"]),
    "problem": ("diagnose", ["world.generate_problem"]),
    "forced_continuation": ("diagnose", ["world.forced_continuation"]),
    "ensemble_score": ("diagnose", ["world.teacher_ensemble", "world.score_ensemble"]),
    "bootstrap_resample": ("diagnose", ["world.score_report"]),
    "rollout_token": ("train", ["trainer._collect_episodes"]),
    "loss_grad_token": ("train", ["trainer.distillation_loss", "trainer.loss_gradient_wrt_student_logits"]),
}
# Run in the child: the CLI itself, each named function timed, each repeat
# in a fresh working directory; prints the seconds and units per repeat (a
# call is one unit unless UNITS says otherwise) and the digest of stdout and
# of every file written, per repeat.
CHILD = """
import contextlib, hashlib, io, json, os, sys, tempfile, time
import distillab.cli as cli
import distillab.stats as stats
import distillab.trainer as trainer
import distillab.world as world

names = json.loads(sys.argv[2])
seconds = {name: [] for name in names}
units = {name: [] for name in names}
UNITS = {
    "trainer._collect_episodes": lambda args, episodes: sum(len(ep.tokens) for ep in episodes),
    "trainer.distillation_loss": lambda args, loss: args[0].total_tokens,
    # a (C, M, V) stack holds C candidates
    "world.teacher_ensemble": lambda args, ensembles: len(ensembles),
}


def timer(name, fn):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds[name][-1] += time.perf_counter() - start
        units[name][-1] += UNITS[name](args, out) if name in UNITS else 1
        return out
    return timed


for name in names:
    module, attr = name.split(".")
    module = {"cli": cli, "trainer": trainer, "world": world}[module]
    setattr(module, attr, timer(name, getattr(module, attr)))
here, digests = os.getcwd(), []
for _ in range(int(sys.argv[1])):
    for name in names:
        seconds[name].append(0.0)
        units[name].append(0)
    stats._draw_counts.cache_clear()  # a fresh process draws the bootstrap matrix once
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(sys.argv[3:])
        if code != 0:
            sys.exit(code)
        digest = hashlib.sha256(out.getvalue().encode())
        for root, dirs, files in sorted(os.walk(".")):
            dirs.sort()
            for f in sorted(files):
                if f != "run_meta.json":  # its timestamp differs per run
                    path = os.path.join(root, f)
                    digest.update(path.encode() + b"\\0" + open(path, "rb").read())
        digests.append(digest.hexdigest())
        os.chdir(here)
print(json.dumps({"seconds": seconds, "units": units, "stdout": out.getvalue(), "sha256": digests}))
"""


def one_run(tree: Path, command: str) -> dict:
    """One sample process of `command`: every layer it times, per repeat."""
    names = sorted({name for cmd, timed in LAYERS.values() if cmd == command for name in timed})
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", CHILD, str(REPEATS), json.dumps(names), *COMMANDS[command]]
    res = subprocess.run(argv, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        return {"exit": res.returncode, "stderr": res.stderr[-2000:]}
    out = json.loads(res.stdout)
    layers = {}
    for layer, (cmd, timed) in LAYERS.items():
        if cmd != command:
            continue
        seconds = [sum(s) for s in zip(*(out["seconds"][name] for name in timed))]
        if layer == "fd_coord":
            units = [json.loads(out["stdout"])["compared"]] * REPEATS
        elif layer == "bootstrap_resample":
            units = [n * RESAMPLES for n in out["units"][timed[0]]]
        else:
            units = out["units"][timed[0]]
        layers[layer] = {
            "units": units,
            "seconds": [round(s, 5) for s in seconds],
            "ns_per_unit": [round(s / n * 1e9, 1) for s, n in zip(seconds, units)],
        }
    return {"exit": 0, "output_sha256": out["sha256"], "layers": layers}


def summary(runs: list[dict], layer: str) -> dict:
    costs = sorted(c for run in runs for c in run.get("layers", {}).get(layer, {}).get("ns_per_unit", []))
    if not costs:
        return {}
    q = statistics.quantiles(costs, n=4) if len(costs) > 1 else [costs[0]] * 3
    return {"median_ns": round(q[1], 1), "q1_ns": round(q[0], 1), "q3_ns": round(q[2], 1), "min_ns": costs[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=DIR, repeatable")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree) or {"after": str(ROOT)}
    trees = {name: Path(d).resolve() for name, d in trees.items()}
    samples: dict[str, dict[str, list[dict]]] = {name: {cmd: [] for cmd in COMMANDS} for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for command in COMMANDS:
            for name in order:
                run = one_run(trees[name], command)
                samples[name][command].append(run)
                costs = {layer: s["ns_per_unit"] for layer, s in run.get("layers", {}).items()}
                print(f"round {r} {command} {name}: {costs or run}", file=sys.stderr)

    result = {
        "commands": {cmd: "distillab " + " ".join(argv) for cmd, argv in COMMANDS.items()},
        "layers": {layer: {"command": cmd, "timed": timed} for layer, (cmd, timed) in LAYERS.items()},
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
                "layers": {
                    layer: {**summary(samples[name][cmd], layer), "samples": [
                        {"exit": run["exit"], **run.get("layers", {}).get(layer, {})}
                        for run in samples[name][cmd]
                    ]}
                    for layer, (cmd, _) in LAYERS.items()
                },
                "output_sha256": {
                    cmd: sorted({d for run in runs if run["exit"] == 0 for d in run["output_sha256"]})
                    for cmd, runs in samples[name].items()
                },
            }
            for name, path in trees.items()
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    runs = [run for by_tree in samples.values() for by_cmd in by_tree.values() for run in by_cmd]
    failed = [run for run in runs if run["exit"] != 0]
    for name, tree in result["trees"].items():
        for layer, s in tree["layers"].items():
            if s.get("median_ns") is not None:
                print(f"{name} {layer}: median {s['median_ns']:.0f} ns [{s['q1_ns']:.0f}, {s['q3_ns']:.0f}]")
    differing = [
        cmd for cmd in COMMANDS
        if len({d for tree in result["trees"].values() for d in tree["output_sha256"][cmd]}) > 1
    ]
    for cmd in differing:
        print(f"{cmd} output differs between runs or trees")
    print(f"{len(failed)} failed runs; wrote {args.out}")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
