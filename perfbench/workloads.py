"""The three CLI workloads and the call sites the traced run wraps.

Each workload is one `distillab` invocation at default flags apart from the
seed; the benchmark runs it in a fresh process, one at a time (a closed loop
with one client), each run writing to a fresh output directory.

- diagnose: the only workload that runs `stats`, `viability` and
  `uncertainty`; the cluster bootstrap is about 2/3 of its time in `main` and
  forced-continuation sampling about 1/4. It samples from student tables that
  never change. `--threads 2` equals the core count of the reference machine.
- train: samples from tables that change every step, runs the objective's
  loss and gradient on real rollouts and the `metrics` grading; no `stats`.
- gradcheck: the finite-difference checker is nearly all of its time in
  `main`, and set-up is about a fifth of its wall time. About a fifth of its
  tokens take the reverse-KL branch with `global_token_mean`, which `train`
  never takes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

OUT = "out"  # relative to the run's own working directory, so stdout is stable


@dataclass(frozen=True)
class Workload:
    name: str
    rate_name: str  # what work_per_s measures on this workload
    work_unit: str
    args: tuple[str, ...]
    data_files: tuple[str, ...]  # files under OUT whose bytes are checked
    seed_flags: tuple[str, ...]

    def argv(self, seed: int) -> list[str]:
        out = list(self.args)
        for flag in self.seed_flags:
            out += [flag, str(seed)]
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "diagnose",
            "problems_per_s",
            "problems probed",
            ("diagnose", "--out", OUT, "--threads", "2"),
            ("candidates.jsonl", "spines.jsonl", "report.json", "position_curve.csv"),
            ("--seed",),
        ),
        Workload(
            "train",
            "train_steps_per_s",
            "optimizer steps",
            ("train", "--out", OUT),
            ("result.json",),
            ("--seed", "--world-seed"),
        ),
        Workload(
            "gradcheck",
            "fd_coords_per_s",
            "finite-difference coordinates",
            ("gradcheck", "--batches", "40", "--weighting", "entropy_gate:3.0"),
            (),
            ("--seed",),
        ),
    )
}


def run_facts(workload: str, run_dir: Path, stdout: bytes) -> dict:
    """What a finished, checked run did: `work` in its workload's unit, and
    for diagnose the bootstrap sizes the per-resample figures divide by."""
    if workload == "diagnose":
        report = json.loads((run_dir / OUT / "report.json").read_text(encoding="utf-8"))
        return {
            "work": report["n_problems"],
            "scores": len(report["reports"]),
            "resamples": report["params"]["bootstrap"]["resamples"],
            "degenerate": sum(r["n_degenerate"] for r in report["reports"].values()),
        }
    if workload == "train":
        result = json.loads((run_dir / OUT / "result.json").read_text(encoding="utf-8"))
        return {"work": len(result["losses"])}
    return {"work": json.loads(stdout)["compared"]}


@dataclass(frozen=True)
class Wrap:
    module: str  # the module in which callers look the name up
    attr: str
    layer: str  # reported name: defining module and function
    workload: str  # a workload on which this site must record calls
    count: tuple[str, Callable] | None = None


WRAPS = (
    Wrap("distillab.world", "score_report", "stats.score_report", "diagnose"),
    Wrap("distillab.world", "nucleus_sample", "world.nucleus_sample", "diagnose"),
    Wrap("distillab.trainer", "nucleus_sample", "world.nucleus_sample", "train"),
    Wrap("distillab.world", "forced_continuation", "world.forced_continuation", "diagnose"),
    Wrap("distillab.world", "generate_problem", "world.generate_problem", "diagnose"),
    Wrap("distillab.trainer", "generate_problem", "world.generate_problem", "train"),
    Wrap("distillab.world", "teacher_ensemble", "world.teacher_ensemble", "diagnose"),
    Wrap("distillab.world", "student_rollout", "world.student_rollout", "diagnose"),
    Wrap(
        "distillab.world",
        "select_candidates",
        "viability.select_candidates",
        "diagnose",
        ("viability.candidates", len),
    ),
    Wrap("distillab.world", "score_ensemble", "uncertainty.score_ensemble", "diagnose"),
    Wrap("distillab.world", "derive_rng", "seeding.derive_rng", "diagnose"),
    Wrap("distillab.stats", "derive_rng", "seeding.derive_rng", "diagnose"),
    Wrap("distillab.trainer", "derive_rng", "seeding.derive_rng", "train"),
    Wrap("distillab.cli", "derive_rng", "seeding.derive_rng", "gradcheck"),
    Wrap("distillab.trainer", "rollout_from_params", "trainer.rollout_from_params", "train"),
    Wrap("distillab.trainer", "train_step", "trainer.train_step", "train"),
    # private, but it is train's largest cost outside the public functions
    Wrap("distillab.trainer", "_batch_from_episodes", "trainer._batch_from_episodes", "train"),
    Wrap("distillab.trainer", "evaluate_policy", "trainer.evaluate_policy", "train"),
    Wrap("distillab.trainer", "init_student", "trainer.init_student", "train"),
    Wrap("distillab.world", "softmax_with_temperature", "dists.softmax_with_temperature", "diagnose"),
    Wrap("distillab.trainer", "softmax_with_temperature", "dists.softmax_with_temperature", "train"),
    Wrap(
        "distillab.objectives",
        "softmax_with_temperature",
        "dists.softmax_with_temperature",
        "gradcheck",
    ),
    Wrap("distillab.trainer", "distillation_loss", "objectives.distillation_loss", "train"),
    Wrap(
        "distillab.trainer",
        "loss_gradient_wrt_student_logits",
        "objectives.loss_gradient_wrt_student_logits",
        "train",
    ),
    Wrap(
        "distillab.objectives",
        "loss_gradient_wrt_student_logits",
        "objectives.loss_gradient_wrt_student_logits",
        "gradcheck",
    ),
    Wrap(
        "distillab.cli",
        "finite_difference_check",
        "objectives.finite_difference_check",
        "gradcheck",
        ("objectives.fd_coords", lambda report: report.compared),
    ),
    Wrap(
        "distillab.trainer",
        "finite_difference_check",
        "objectives.finite_difference_check",
        "train",
        ("objectives.fd_coords", lambda report: report.compared),
    ),
    Wrap("distillab.trainer", "grade_and_cluster", "metrics.grade_and_cluster", "train"),
    Wrap("distillab.objectives", "weights_for_length", "schedules.weights_for_length", "train"),
)

LAYERS = tuple(dict.fromkeys(w.layer for w in WRAPS))
COUNTS = ("viability.candidates", "objectives.fd_coords", "trainer.rollout.useful", "trainer.rollout.collected")
