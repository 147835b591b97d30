"""Output checks applied to every benchmark run.

Two kinds: byte identity (sha256 of stdout and of each data file, compared
with digests recorded at a known-good commit, or with the first run of the
same inputs when no digest was recorded for the seed), and invariants that
hold on any seed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from perfbench.workloads import OUT, WORKLOADS

REL_ERR_LIMIT = 1e-6
SCORE_COUNT = 5
ENV_KEYS = ("python", "numpy", "scipy")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(workload: str, run_dir: Path, stdout: bytes) -> dict[str, str | None]:
    """sha256 of stdout and of each data file; a missing file digests as None."""
    digests = {"stdout": sha256(stdout)}
    for name in WORKLOADS[workload].data_files:
        path = run_dir / OUT / name
        digests[name] = sha256(path.read_bytes()) if path.is_file() else None
    return digests


def digest_failures(digests: dict, expected: dict) -> list[str]:
    return [
        f"{name}: sha256 {digests.get(name)} differs from expected {want}"
        for name, want in sorted(expected.items())
        if digests.get(name) != want
    ]


def _diagnose_invariants(run_dir: Path, stdout: bytes) -> list[str]:
    report = json.loads((run_dir / OUT / "report.json").read_text(encoding="utf-8"))
    reports = report["reports"]
    bad = [] if len(reports) == SCORE_COUNT else [f"{len(reports)} score reports, not {SCORE_COUNT}"]
    for name, rep in sorted(reports.items()):
        auroc = rep["point_auroc"]
        low, high = rep["ci"]
        if not 0.0 <= auroc <= 1.0:
            bad.append(f"{name}: point_auroc {auroc} outside [0, 1]")
        if not low <= high:
            bad.append(f"{name}: ci_low {low} > ci_high {high}")
    return bad


def _train_invariants(run_dir: Path, stdout: bytes) -> list[str]:
    result = json.loads((run_dir / OUT / "result.json").read_text(encoding="utf-8"))
    bad = []
    losses = result["losses"]
    if not losses or not all(math.isfinite(x) for x in losses):
        bad.append("losses are empty or not all finite")
    rel = result["fd_spot"]["max_rel_err"]
    if not rel <= REL_ERR_LIMIT:
        bad.append(f"fd_spot.max_rel_err {rel} > {REL_ERR_LIMIT}")
    return bad


def _gradcheck_invariants(run_dir: Path, stdout: bytes) -> list[str]:
    summary = json.loads(stdout)
    bad = []
    if not summary["max_rel_err"] <= REL_ERR_LIMIT:
        bad.append(f"max_rel_err {summary['max_rel_err']} > {REL_ERR_LIMIT}")
    if summary["compared"] < 1:
        bad.append("no coordinates compared")
    return bad


INVARIANTS = {
    "diagnose": _diagnose_invariants,
    "train": _train_invariants,
    "gradcheck": _gradcheck_invariants,
}


def invariant_failures(workload: str, run_dir: Path, stdout: bytes) -> list[str]:
    try:
        return INVARIANTS[workload](run_dir, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def check_run(
    workload: str, run_dir: Path, stdout: bytes, exit_code: int, expected: dict | None
) -> tuple[dict, list[str]]:
    """Digests of one finished run and the reasons it failed (empty if it passed)."""
    digests = output_digests(workload, run_dir, stdout)
    if exit_code != 0:
        return digests, [f"exit code {exit_code}"]
    reasons = invariant_failures(workload, run_dir, stdout)
    if expected is not None:
        reasons += digest_failures(digests, expected)
    return digests, reasons


def load_reference(path: Path, env: dict) -> tuple[dict, str | None]:
    """Recorded digests keyed by workload then seed, and a note when none apply.

    Digests recorded under another Python, numpy or scipy are not used: their
    floating-point results may differ in the last bits.
    """
    data = json.loads(path.read_text(encoding="utf-8"))
    recorded = {k: data["env"][k] for k in ENV_KEYS}
    if any(recorded[k] != env[k] for k in ENV_KEYS):
        return {}, f"reference digests not used: recorded under {recorded}"
    return data["digests"], None
