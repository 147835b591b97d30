"""Record the reference digests that every benchmark run is checked against.

    python3 perfbench/record.py [SEED ...]    (default: seeds 0 to 4)

Run it only at a commit whose outputs are known to be right: it runs each
workload once per seed, checks the invariants, and rewrites
perfbench/reference_digests.json with the digests and the library versions.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, environment, git_sha, remove_work_dir, run_cli, src_sha256


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(range(5))
    digests: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            run = run_cli(workload, seed, "run", None)
            remove_work_dir()
            if run.reasons:
                print(f"{workload} seed {seed} failed: {run.reasons}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = run.digests
            print(f"{workload} seed {seed}: {run.child.wall_s:.2f} s")
    data = {
        "env": environment(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "digests": digests,
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
