"""Acceptance gate: twelve numbered criteria, one verdict line each.

Each test emits exactly one [PASS]/[FAIL] line for its criterion straight to
the terminal (output capture is suspended for that single line, so the
verdicts show up in a plain ``pytest -v`` run) and then asserts, so the suite
fails loudly when a criterion is missed. Tolerances and sizes are part of the
contract and must not be loosened.
"""
import dataclasses
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from distillab.dists import clipped_fkl_terms, forward_kl, softmax_with_temperature
from distillab.identities import (
    random_branch_mixture,
    random_sequence_model,
    sequence_identity_gap,
    token_identity_gap,
)
from distillab.metrics import score_problem
from distillab.objectives import (
    ObjectiveConfig,
    PositionWeighting,
    Reduction,
    RolloutBatch,
    UniformWeighting,
    distillation_loss,
    finite_difference_check,
)
from distillab.schedules import PRESETS, PositionSchedule, weight, weights_for_length
from distillab.seeding import derive_rng
from distillab.stats import (
    BootstrapConfig,
    ScoredCandidate,
    _assemble_resample,
    _auroc_from_arrays,
    _group_indices,
    auroc,
    cluster_bootstrap_auroc,
    residualize_within_problem,
)
from distillab.trainer import (
    TrainConfig,
    factorial_and_sweep,
    gradient_norm_profile,
    run_training,
)
from distillab.uncertainty import DIRICHLET_EPSILON, dirichlet_precision
from distillab.world import WorldConfig, run_diagnostic

CLI = [sys.executable, "-m", "distillab.cli"]


@pytest.fixture
def verdict(capsys):
    def _emit(num: int, name: str, failures: list, detail: str = "") -> None:
        ok = not failures
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}"
        if ok and detail:
            line += f" ({detail})"
        if not ok:
            line += " -- " + "; ".join(str(f) for f in failures)
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _emit


def _check(cond: bool, msg: str, failures: list) -> None:
    if not cond:
        failures.append(msg)


def _random_batch(rng, n_seqs, vocab, max_len, equal_length=False):
    teacher, logits = [], []
    shared = int(rng.integers(1, max_len + 1))
    for _ in range(n_seqs):
        length = shared if equal_length else int(rng.integers(1, max_len + 1))
        teacher.append(rng.dirichlet(np.ones(vocab), size=length))
        logits.append(rng.standard_normal((length, vocab)))
    return RolloutBatch(teacher, logits)


def test_criterion_01_gradient_fidelity(verdict):
    failures = []
    objective = ObjectiveConfig(distill_temperature=1.1, clip_threshold=0.05)
    worst = 0.0
    t0 = time.perf_counter()
    for b in range(50):
        rng = derive_rng(0, 9, b)
        batch = _random_batch(rng, n_seqs=4, vocab=32, max_len=16)
        report = finite_difference_check(
            batch, objective, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN, step=1e-5
        )
        worst = max(worst, report.max_rel_err)
    elapsed = time.perf_counter() - t0
    _check(worst < 1e-6, f"max rel err {worst:.3e} >= 1e-6", failures)
    _check(elapsed < 10.0, f"runtime {elapsed:.2f} s >= 10 s", failures)
    verdict(1, "analytic gradient matches central finite differences on 50 random batches",
             failures, f"max rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_unit_floor_weighting_degenerates_to_base_loss(verdict):
    failures = []
    flat = PositionWeighting(PositionSchedule(w_min=1.0, midpoint=0.3, steepness=0.1))
    objective = ObjectiveConfig()
    worst = 0.0
    for trial in range(100):
        rng = derive_rng(1, trial)
        batch = _random_batch(rng, n_seqs=4, vocab=12, max_len=12, equal_length=True)
        for reduction in Reduction:
            base = distillation_loss(batch, objective, UniformWeighting(), reduction)
            flat_loss = distillation_loss(batch, objective, flat, reduction)
            worst = max(worst, abs(flat_loss - base))
    _check(worst <= 1e-12, f"max |weighted - base| {worst:.3e} > 1e-12", failures)
    verdict(2, "position weighting with floor 1 equals the unweighted loss on 100 batches",
             failures, f"max gap {worst:.2e}")


def test_criterion_03_clip_threshold_limits(verdict):
    failures = []
    # huge threshold: the clipped objective reverts to the plain forward KL
    worst = 0.0
    unclipped = ObjectiveConfig(distill_temperature=1.1, clip_threshold=1e6)
    for trial in range(50):
        rng = derive_rng(2, trial)
        batch = _random_batch(rng, n_seqs=3, vocab=10, max_len=8)
        loss = distillation_loss(batch, unclipped, UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN)
        terms = []
        for q_seq, z_seq in zip(batch.teacher_dists, batch.student_logits):
            for q_row, z_row in zip(q_seq, z_seq):
                p_row = softmax_with_temperature(z_row, 1.1)
                terms.append(forward_kl(q_row, p_row))
        expected = float(np.sum(terms) / batch.total_tokens)
        worst = max(worst, abs(loss - expected))
    _check(worst <= 1e-10, f"unclipped mismatch {worst:.3e} > 1e-10", failures)

    # tight threshold on the two-point fixture: one term clips, one goes negative
    fixture = float(clipped_fkl_terms(np.array([0.5, 0.5]), np.array([0.25, 0.75]), 0.05).sum())
    _check(abs(fixture - (-0.1527)) <= 1e-4, f"fixture sum {fixture:.6f} not within 1e-4 of -0.1527", failures)

    # the same number must come out of the batched objective
    z = 1.1 * np.log(np.array([0.25, 0.75]))
    batch = RolloutBatch([np.array([[0.5, 0.5]])], [z[None, :]])
    via_loss = distillation_loss(
        batch, ObjectiveConfig(distill_temperature=1.1, clip_threshold=0.05),
        UniformWeighting(), Reduction.GLOBAL_TOKEN_MEAN,
    )
    _check(abs(via_loss - fixture) <= 1e-12, f"objective path differs: {via_loss!r} vs {fixture!r}", failures)
    verdict(3, "clip threshold: huge tau recovers forward KL, tight tau matches the signed fixture",
             failures, f"fixture {fixture:.6f}")


def test_criterion_04_schedule_midpoint_anchor_and_monotonicity(verdict):
    failures = []
    grid = np.linspace(0.0, 1.0, 10_000)
    for name, sched in PRESETS.items():
        anchor = weight(sched.midpoint, sched)
        expected = sched.w_min + (1.0 - sched.w_min) * 0.5
        _check(anchor == expected, f"{name}: midpoint weight {anchor!r} != {expected!r}", failures)
        values = np.array([weight(r, sched) for r in grid])
        _check(bool(np.all(np.diff(values) >= 0.0)), f"{name}: not monotone on the grid", failures)
        _check(values[-1] > values[0], f"{name}: no increase across [0, 1]", failures)
    verdict(4, "every preset hits the exact midpoint anchor and is monotone on a 10^4 grid", failures)


def test_criterion_05_mixture_identities_hold_numerically(verdict):
    failures = []
    t0 = time.perf_counter()
    worst_token = 0.0
    rng = derive_rng(3)
    for _ in range(100):
        mixture = random_branch_mixture(rng, max_branches=5, max_vocab=16)
        student = rng.dirichlet(np.ones(mixture.components.shape[1]))
        worst_token = max(worst_token, token_identity_gap(mixture, student))
    worst_seq = 0.0
    for _ in range(50):
        model, student_levels = random_sequence_model(rng, depth=3, alphabet=2, max_branches=3)
        worst_seq = max(worst_seq, sequence_identity_gap(model, student_levels))
    elapsed = time.perf_counter() - t0
    _check(worst_token < 1e-12, f"token gap {worst_token:.3e} >= 1e-12", failures)
    _check(worst_seq < 1e-10, f"sequence gap {worst_seq:.3e} >= 1e-10", failures)
    _check(elapsed < 5.0, f"runtime {elapsed:.2f} s >= 5 s", failures)
    verdict(5, "token and sequence mixture identities hold on random models",
             failures, f"gaps {worst_token:.1e} / {worst_seq:.1e}, {elapsed:.2f} s")


def test_criterion_06_auroc_matches_brute_force_under_ties(verdict):
    failures = []
    rng = derive_rng(4)
    for trial in range(200):
        n = int(rng.integers(5, 201))
        scores = rng.integers(0, 6, size=n).astype(float)
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        items = [ScoredCandidate(f"p{i}", float(s), bool(l)) for i, (s, l) in enumerate(zip(scores, labels))]
        fast = auroc(items)
        pos = scores[labels]
        neg = scores[~labels]
        slow = float(
            (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        ) / (pos.size * neg.size)
        if fast != slow:
            failures.append(f"trial {trial}: mid-rank {fast!r} != brute force {slow!r}")
            break
        flipped = [ScoredCandidate(it.problem_id, it.score, not it.label) for it in items]
        if auroc(items) + auroc(flipped) != 1.0:
            failures.append(f"trial {trial}: label flip not exactly antisymmetric")
            break
    verdict(6, "mid-rank AUROC equals the pairwise count exactly on 200 tied datasets", failures)


def test_criterion_07_cluster_bootstrap_contract(verdict):
    failures = []
    rng = derive_rng(5)
    items = []
    for p in range(12):
        for _ in range(4):
            items.append(ScoredCandidate(f"p{p}", float(rng.random()), bool(rng.random() < 0.5)))
    if all(it.label for it in items) or not any(it.label for it in items):
        items[0] = ScoredCandidate(items[0].problem_id, items[0].score, not items[0].label)
    cfg = BootstrapConfig(resamples=300, confidence=0.95, seed=11)
    r1 = cluster_bootstrap_auroc(items, cfg)
    r2 = cluster_bootstrap_auroc(items, cfg)
    _check(r1 == r2, "bootstrap result is not deterministic", failures)

    # a problem drawn twice must equal a dataset with that problem duplicated
    scores = [1.0, 3.0, 2.0, 0.5, 4.0]
    labels = [True, False, True, False, True]
    problems = ["a", "a", "a", "b", "b"]
    _, groups = _group_indices(problems)
    rs, rl = _assemble_resample(groups, np.array([0, 0, 1]), np.array(scores), np.array(labels))
    dup_items = [
        ScoredCandidate(pid, s, l)
        for pid, s, l in zip(
            ["a1"] * 3 + ["a2"] * 3 + ["b"] * 2,
            scores[0:3] + scores[0:3] + scores[3:5],
            labels[0:3] + labels[0:3] + labels[3:5],
        )
    ]
    expected = auroc(residualize_within_problem(dup_items))
    got = _auroc_from_arrays(rs, rl)
    _check(got == expected, f"duplicate-problem resample {got!r} != duplicated dataset {expected!r}", failures)

    # independent labels: point near one half, interval covering it
    rng = derive_rng(0)
    null_items = []
    for p in range(50):
        sc = rng.random(4)
        lb = rng.random(4) < 0.5
        for s, l in zip(sc, lb):
            null_items.append(ScoredCandidate(f"p{p}", float(s), bool(l)))
    res = cluster_bootstrap_auroc(null_items, BootstrapConfig(resamples=2000, confidence=0.95, seed=0))
    _check(abs(res.point - 0.5) <= 0.1, f"null point AUROC {res.point:.4f} outside 0.5 +/- 0.1", failures)
    _check(res.ci_low <= 0.5 <= res.ci_high,
           f"null CI [{res.ci_low:.4f}, {res.ci_high:.4f}] misses 0.5", failures)
    verdict(7, "cluster bootstrap: deterministic, duplication-consistent, covers the null",
             failures, f"null point {res.point:.4f}")


def test_criterion_08_dirichlet_precision_estimator(verdict):
    failures = []
    rng = derive_rng(6)
    base = rng.dirichlet(np.ones(8))
    members = rng.dirichlet(50.0 * base, size=10_000)
    kappa_hat, _ = dirichlet_precision(members)
    rel = abs(kappa_hat - 50.0) / 50.0
    _check(rel <= 0.10, f"kappa_hat {kappa_hat:.3f} misses 50 by {rel:.1%} > 10%", failures)

    kappa, log_kappa = dirichlet_precision([[1.0, 0.0], [0.0, 1.0]])
    _check(kappa == -0.5, f"two-delta kappa_hat {kappa!r} != -0.5", failures)
    _check(abs(log_kappa - math.log(DIRICHLET_EPSILON)) <= 1e-12,
           f"two-delta log kappa {log_kappa!r} != ln(1e-6)", failures)
    verdict(8, "Dirichlet precision: recovers kappa=50 within 10% and floors the degenerate pair",
             failures, f"kappa_hat {kappa_hat:.2f}")


def test_criterion_09_multi_sample_metrics_examples(verdict):
    failures = []
    m1 = score_problem([r"\boxed{7}", r"\boxed{7}", r"\boxed{9}", "junk"], "7")
    _check((m1.avg_at_n, m1.pass_at_n, m1.maj_at_n) == (0.5, 1.0, 1.0),
           f"example 1 gave {(m1.avg_at_n, m1.pass_at_n, m1.maj_at_n)}", failures)
    m2 = score_problem([r"\boxed{9}", r"\boxed{9}", r"\boxed{7}"], "7")
    _check((m2.avg_at_n, m2.pass_at_n, m2.maj_at_n) == (1 / 3, 1.0, 0.0),
           f"example 2 gave {(m2.avg_at_n, m2.pass_at_n, m2.maj_at_n)}", failures)
    m3 = score_problem(["junk", "junk", r"\boxed{7}"], "7")
    _check((m3.avg_at_n, m3.pass_at_n, m3.maj_at_n) == (1 / 3, 1.0, 0.0),
           f"example 3 (invalid plurality) gave {(m3.avg_at_n, m3.pass_at_n, m3.maj_at_n)}", failures)

    rng = derive_rng(7)
    violated = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        answers = rng.integers(0, 4, size=n)
        texts = ["no box" if a == 3 else rf"\boxed{{{a}}}" for a in answers]
        m = score_problem(texts, "1")
        if m.maj_at_n > m.pass_at_n or not (0.0 <= m.avg_at_n <= m.pass_at_n):
            violated += 1
    _check(violated == 0, f"{violated} random grade lists violated maj <= pass", failures)
    verdict(9, "the three worked metric examples are exact and maj <= pass on 10^4 random lists", failures)


def test_criterion_10_planted_unreliability_is_detected_and_null_is_flat(verdict):
    failures = []
    t0 = time.perf_counter()
    report = run_diagnostic(WorldConfig(), n_problems=60)
    oriented = report.reports["oriented_position"]["point_auroc"]
    h_trunc = report.reports["truncated_entropy"]["point_auroc"]
    _check(oriented >= 0.8, f"oriented position AUROC {oriented:.4f} < 0.8", failures)
    _check(h_trunc <= 0.6, f"truncated entropy AUROC {h_trunc:.4f} > 0.6", failures)

    null_world = WorldConfig(early_dead_fraction=0.35, late_dead_fraction=0.35)
    null_report = run_diagnostic(null_world, n_problems=60)
    null_auroc = null_report.reports["oriented_position"]["point_auroc"]
    _check(abs(null_auroc - 0.5) <= 0.15, f"null-world position AUROC {null_auroc:.4f} outside 0.5 +/- 0.15", failures)
    elapsed = time.perf_counter() - t0
    _check(elapsed < 60.0, f"runtime {elapsed:.1f} s >= 60 s", failures)
    verdict(10, "position separates planted unreliability while entropy and the null world stay flat",
             failures, f"oriented {oriented:.3f}, entropy {h_trunc:.3f}, null {null_auroc:.3f}, {elapsed:.1f} s")


def test_criterion_11_trainer_default_run_and_factorial_consistency(verdict):
    failures = []
    default_report = run_training(TrainConfig())
    first = default_report.losses[0]
    tail = float(np.mean(default_report.losses[-10:]))
    _check(first > 0.0, f"initial loss {first!r} is not positive", failures)
    _check(tail <= 0.5 * first,
           f"tail mean {tail:.3e} is not half of initial {first:.3e} (ratio {tail / first:.3f})", failures)

    base = TrainConfig()
    table = factorial_and_sweep(WorldConfig(), base, seeds=1)
    cell = table["factorial"]["uniform/global_token_mean"]["reports"][0]
    standalone = run_training(
        dataclasses.replace(
            base, weighting=UniformWeighting(), reduction=Reduction.GLOBAL_TOKEN_MEAN
        ),
        WorldConfig(),
    ).as_dict()
    _check(cell == standalone, "factorial cell differs from the standalone run", failures)

    prof = gradient_norm_profile(
        length=32, vocab=16,
        weighting=PositionWeighting(PositionSchedule(0.25, 0.30, 0.10)),
    )
    norms = np.array(prof["norms"])
    weights = np.array(prof["weights"])
    ratio = norms / weights
    spread = float(np.max(np.abs(ratio / ratio[0] - 1.0)))
    _check(spread < 1e-6, f"norm/weight proportionality off by {spread:.3e} > 1e-6", failures)
    verdict(11, "default run halves the loss, factorial cells reproduce standalone runs bit for bit,"
                 " and gradient norms track the schedule",
             failures, f"loss ratio {tail / first:.3f}, proportionality {spread:.1e}")


def _run_cli(args, stdin=None):
    return subprocess.run(CLI + args, input=stdin, capture_output=True, text=True, timeout=600)


def test_criterion_12_cli_outputs_are_byte_identical(tmp_path, verdict):
    failures = []
    tiny_world = ["--vocab", "10", "--depth", "16", "--branches", "3"]
    tiny_train = tiny_world + [
        "--steps", "3", "--batch", "4", "--train-problems", "2",
        "--eval-problems", "1", "--eval-samples", "3",
    ]
    seeds_file = tmp_path / "seed0.jsonl"
    seeds_file.write_text(
        json.dumps({"problem_id": "a", "gold": "7", "samples": ["\\boxed{7}", "\\boxed{8}"]}) + "\n",
        encoding="utf-8",
    )
    score_payload = json.dumps({"members": [[0.6, 0.4], [0.5, 0.5], [0.7, 0.3]]})

    stdout_cases = {
        "identities": (["identities", "--trials", "5"], None),
        "gradcheck": (["gradcheck", "--batches", "2", "--vocab", "12", "--max-len", "6"], None),
        "score": (["score", "--in", "-"], score_payload),
        "metrics": (["metrics", "--in", str(seeds_file)], None),
        "train": (["train"] + tiny_train, None),
        "sweep": (
            ["sweep"] + tiny_world + [
                "--steps", "2", "--batch", "2", "--train-problems", "2",
                "--eval-problems", "1", "--eval-samples", "2", "--sweep-seeds", "1",
            ],
            None,
        ),
    }
    for name, (args, stdin) in stdout_cases.items():
        runs = [
            _run_cli(args + ["--threads", threads], stdin=stdin)
            for threads in ("1", "1", "8")
        ]
        for r in runs:
            _check(r.returncode == 0, f"{name}: exit {r.returncode}: {r.stderr.strip()}", failures)
        _check(runs[0].stdout == runs[1].stdout, f"{name}: two runs differ", failures)
        _check(runs[0].stdout == runs[2].stdout, f"{name}: threads 1 vs 8 differ", failures)

    diag_args = ["diagnose"] + tiny_world + [
        "--depth", "24", "--problems", "6", "--resamples", "30",
        "--members", "3", "--continuations", "2",
    ]
    outs = []
    for tag, threads in (("d1", "1"), ("d2", "1"), ("d3", "8")):
        out = tmp_path / tag
        res = _run_cli(diag_args + ["--out", str(out), "--threads", threads])
        _check(res.returncode == 0, f"diagnose {tag}: exit {res.returncode}: {res.stderr.strip()}", failures)
        outs.append(out)
    data_files = ("candidates.jsonl", "spines.jsonl", "report.json", "position_curve.csv")
    for name in data_files:
        ref = (outs[0] / name).read_bytes()
        _check((outs[1] / name).read_bytes() == ref, f"diagnose {name}: two runs differ", failures)
        _check((outs[2] / name).read_bytes() == ref, f"diagnose {name}: threads 1 vs 8 differ", failures)
    souts = []
    for tag, threads in (("s1", "1"), ("s2", "2")):
        out = tmp_path / tag
        res = _run_cli(stdout_cases["sweep"][0] + ["--out", str(out), "--threads", threads])
        _check(res.returncode == 0, f"sweep {tag}: exit {res.returncode}: {res.stderr.strip()}", failures)
        souts.append(out)
    for name in ("sweep.json", "summary.csv"):
        same = (souts[0] / name).read_bytes() == (souts[1] / name).read_bytes()
        _check(same, f"sweep {name}: threads 1 vs 2 differ", failures)
    verdict(12, "every CLI command is byte-identical across reruns and thread counts", failures)
