import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distillab.objectives as objectives_module
import distillab.trainer as trainer_module
import distillab.world as world_module
from distillab.dists import floored_log, softmax_with_temperature, temperature_scaled
from distillab.errors import InvalidInputError
from distillab.objectives import (
    EntropyGateWeighting,
    ObjectiveConfig,
    PositionWeighting,
    Reduction,
    RolloutBatch,
    UniformWeighting,
    distillation_loss,
    finite_difference_check,
    loss_gradient_wrt_student_logits,
)
from distillab.schedules import PositionSchedule
from distillab.trainer import (
    FACTORIAL_CELLS,
    SWEEP_PRESETS,
    StudentParams,
    TrainConfig,
    factorial_and_sweep,
    gradient_norm_profile,
    init_student,
    run_training,
    trace_stability,
    train_step,
    weighting_from_name,
    weighting_name,
)
from distillab.metrics import aggregate_metrics, grade_and_cluster, problem_metrics
from distillab.seeding import TAG_EVAL, TAG_TRAIN, derive_rng
from distillab.world import ProblemInstance, WorldConfig, generate_problem
from test_world import _reference_rollout_from_params


def _small_world(**kw):
    base = dict(vocab_size=10, depth=16, branch_count=3, seed=0)
    base.update(kw)
    return WorldConfig(**base)


def _small_cfg(**kw):
    base = dict(steps=5, batch_sequences=4, train_problems=2,
                eval_problems=2, eval_samples=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def _hand_problem(world_cfg):
    # a single-layer problem whose only state carries a two-point teacher;
    # built directly so every number in the update is known in closed form
    V = world_cfg.vocab_size
    B = world_cfg.branch_count
    teacher = np.zeros((1, B + 1, V))
    student = np.zeros((1, B + 1, V))
    q = np.zeros(V)
    q[0] = 0.5
    q[1] = 0.5
    for lane in range(B + 1):
        teacher[0, lane] = q
        student[0, lane] = q
    return ProblemInstance(
        problem_id="hand", index=0, cfg=world_cfg, length=1,
        gold_token=0, wrong_token=1, filler_token=2,
        kind=np.zeros((0, B), dtype=np.int8),
        canon=np.zeros((0, B), dtype=np.int64),
        alts=np.full((0, B, 3), -1), teacher=teacher, student=student,
    )


def test_weighting_from_name_resolution():
    assert isinstance(weighting_from_name("uniform"), UniformWeighting)
    w = weighting_from_name("moderate")
    assert isinstance(w, PositionWeighting)
    assert w.schedule.w_min == 0.25
    g = weighting_from_name("entropy_gate:0.7")
    assert isinstance(g, EntropyGateWeighting)
    assert g.gate_threshold == 0.7
    g2 = weighting_from_name("entropy_gate", vocab_size=12)
    assert abs(g2.gate_threshold - math.log(12.0) / 2.0) < 1e-15
    assert isinstance(weighting_from_name("  Sharp "), PositionWeighting)
    with pytest.raises(InvalidInputError):
        weighting_from_name("entropy_gate")
    with pytest.raises(InvalidInputError):
        weighting_from_name("nonsense")


def test_weighting_name_round_trip():
    for name in ("uniform", "mild", "moderate", "sharp", "aggressive"):
        assert weighting_name(weighting_from_name(name)) == name
    for gate in (EntropyGateWeighting(2.5), weighting_from_name("entropy_gate", vocab_size=12)):
        name = weighting_name(gate)
        assert name.startswith("entropy_gate:")
        assert weighting_from_name(name) == gate
    assert weighting_name(EntropyGateWeighting(2.5)) == "entropy_gate:2.5"
    for bad in ("entropy_gate:abc", "entropy_gatexyz", "entropy_gate:", "entropy_gates:2.5"):
        with pytest.raises(InvalidInputError):
            weighting_from_name(bad, vocab_size=12)
    custom = PositionWeighting(PositionSchedule(w_min=0.3, midpoint=0.25, steepness=0.07))
    assert weighting_name(custom) == "position(0.3,0.25,0.07)"


def test_train_config_validation_and_step_size():
    cfg = TrainConfig(learning_rate=512.0, steps=100)
    assert cfg.step_size(0) == 512.0
    assert cfg.step_size(50) == 256.0
    assert cfg.step_size(100) == 0.0
    const = TrainConfig(learning_rate=2.0, steps=10, lr_decay="constant")
    assert const.step_size(9) == 2.0
    assert cfg.objective == ObjectiveConfig(distill_temperature=1.1, clip_threshold=0.05)
    with pytest.raises(InvalidInputError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidInputError):
        TrainConfig(steps=0)
    with pytest.raises(InvalidInputError):
        TrainConfig(lr_decay="cosine")
    with pytest.raises(InvalidInputError):
        TrainConfig(init_noise=-0.1)
    with pytest.raises(InvalidInputError):
        TrainConfig(eval_samples=0)


def test_init_student_is_teacher_log_probs_plus_noise():
    world = _small_world()
    problems = [generate_problem(world, i) for i in range(2)]
    cfg = _small_cfg(init_noise=0.0)
    theta = init_student(cfg, problems)
    for p in problems:
        expected = np.log(np.maximum(p.teacher, 1e-12))
        assert np.array_equal(theta.tables[p.problem_id], expected)
    noisy = init_student(_small_cfg(init_noise=0.05), problems)
    again = init_student(_small_cfg(init_noise=0.05), problems)
    for p in problems:
        assert np.array_equal(noisy.tables[p.problem_id], again.tables[p.problem_id])
        assert not np.array_equal(noisy.tables[p.problem_id], theta.tables[p.problem_id])


def test_student_matching_teacher_has_near_zero_loss_and_update():
    # logits = ln(teacher) make softmax(z / T) equal the temperature-scaled
    # target exactly, so the first step's loss and drift are pure roundoff
    world = _small_world()
    problems = [generate_problem(world, i) for i in range(2)]
    cfg = _small_cfg(init_noise=0.0, learning_rate=512.0)
    theta = init_student(cfg, problems)
    theta.scale_teachers(problems, cfg.distill_temperature)
    before = {pid: t.copy() for pid, t in theta.tables.items()}
    theta, loss, _, _ = train_step(theta, problems, cfg)
    assert abs(loss) < 1e-12
    drift = max(
        float(np.abs(theta.tables[pid] - before[pid]).max()) for pid in before
    )
    assert drift < 1e-10


def test_single_state_update_matches_closed_form():
    # length-1 problem, uniform weighting, one sequence, unit learning rate:
    # the visited row moves by exactly the analytic gradient
    world = _small_world(vocab_size=12)
    problem = _hand_problem(world)
    V = world.vocab_size
    z = np.full((1, world.branch_count + 1, V), -60.0)
    z[0, 0, 0] = math.log(3.0)
    z[0, 0, 1] = 0.0
    theta = StudentParams(
        tables={"hand": z.copy()}, teachers={"hand": temperature_scaled(problem.teacher, 1.1)}
    )
    cfg = TrainConfig(
        learning_rate=1.0, steps=1, batch_sequences=1, distill_temperature=1.1,
        clip_threshold=0.05, weighting=UniformWeighting(),
        reduction=Reduction.GLOBAL_TOKEN_MEAN, seed=0, lr_decay="constant",
        train_problems=1,
    )
    theta, loss, _, _ = train_step(theta, [problem], cfg)
    assert abs(loss - (-0.13977302597844765)) < 1e-12
    delta = z[0, 0] - theta.tables["hand"][0, 0]
    assert abs(delta[0] - (-0.12235887753426655)) < 1e-12
    assert abs(delta[1] - 0.12235887753426644) < 1e-12
    # unvisited lanes never move
    assert np.array_equal(theta.tables["hand"][0, 1:], z[0, 1:])


def test_objective_pass_runs_once_per_training_batch():
    # the loss and the gradient of a step, and a check of its batch, share one
    # softmax of the student rows; a batch never seen before costs one
    world = _small_world()
    problems = [generate_problem(world, i) for i in range(2)]
    for weighting in (PositionWeighting(PositionSchedule(0.3, 0.5, 0.1)), EntropyGateWeighting(1.0)):
        cfg = _small_cfg(weighting=weighting)
        theta = init_student(cfg, problems)
        theta.scale_teachers(problems, cfg.distill_temperature)
        calls = []
        softmax = objectives_module.softmax_with_temperature

        def spy(*args):
            calls.append(args)
            return softmax(*args)

        with mock.patch.object(objectives_module, "softmax_with_temperature", spy):
            for _ in range(3):
                theta, _, _, batch = train_step(theta, problems, cfg)
                assert len(calls) == 1
                calls.clear()
            finite_difference_check(batch, cfg.objective, cfg.weighting, cfg.reduction, max_tokens=1)
            assert len(calls) == 0
            fresh = RolloutBatch(batch.split(batch.teacher), batch.split(batch.student))
            finite_difference_check(fresh, cfg.objective, cfg.weighting, cfg.reduction, max_tokens=1)
            assert len(calls) == 1


def test_train_step_is_deterministic():
    world = _small_world()
    problems = [generate_problem(world, i) for i in range(2)]
    cfg = _small_cfg()
    a = init_student(cfg, problems)
    b = init_student(cfg, problems)
    a.scale_teachers(problems, cfg.distill_temperature)
    b.scale_teachers(problems, cfg.distill_temperature)
    for _ in range(3):
        a, la, _, _ = train_step(a, problems, cfg)
        b, lb, _, _ = train_step(b, problems, cfg)
        assert la == lb
    for pid in a.tables:
        assert np.array_equal(a.tables[pid], b.tables[pid])


def test_run_training_report_shape_and_determinism():
    world = _small_world()
    cfg = _small_cfg(steps=6)
    r1 = run_training(cfg, world)
    r2 = run_training(cfg, world)
    assert r1.losses == r2.losses
    assert r1.as_dict() == r2.as_dict()
    assert len(r1.losses) == 6
    assert all(math.isfinite(x) for x in r1.losses)
    assert len(r1.grad_norm_profile) <= world.depth
    assert r1.fd_spot["compared"] >= 1
    assert r1.fd_spot["max_rel_err"] < 1e-6
    for key in ("avg_at_n", "pass_at_n", "maj_at_n", "n", "problems"):
        assert key in r1.train_eval_init
        assert key in r1.train_eval_final
        assert key in r1.heldout_eval
    assert r1.train_eval_init["problems"] == cfg.train_problems
    assert r1.heldout_eval["problems"] == cfg.eval_problems
    assert r1.config["weighting"] == "moderate"
    assert r1.config["reduction"] == "per_sequence_mean"


def test_only_training_teacher_tables_are_scaled_and_refused():
    # in world seed 3, q^(1/T) at T = 1.02e-3 empties a row of the held-out
    # problems 1 and 2 but no row of problem 0: held-out problems are evaluated
    # at their initial tables and never read a scaled teacher, so the run goes on
    world = WorldConfig(seed=3)
    temperature = 1.02e-3
    with np.errstate(invalid="ignore"):
        empties = [
            not np.isfinite(temperature_scaled(generate_problem(world, i).teacher, temperature)).all()
            for i in range(3)
        ]
    assert empties == [False, True, True]
    cfg = TrainConfig(
        steps=2, batch_sequences=2, train_problems=1, eval_problems=2, eval_samples=2,
        distill_temperature=temperature,
    )
    report = run_training(cfg, world)
    assert report.heldout_eval["problems"] == 2
    with pytest.raises(InvalidInputError, match="distill_temperature 0.00102 empties a teacher row"):
        run_training(dataclasses.replace(cfg, train_problems=2), world)
    # init_student scales nothing; scale_teachers scales the problems it is given
    problems = [generate_problem(world, 0)]
    theta = init_student(cfg, problems)
    assert theta.teachers == {}
    theta.scale_teachers(problems, temperature)
    assert list(theta.teachers) == [problems[0].problem_id]
    expected = temperature_scaled(problems[0].teacher, temperature)
    assert theta.teachers[problems[0].problem_id].tobytes() == expected.tobytes()


def test_student_params_refuse_teachers_of_other_problems():
    # teachers share the tables' layout: one row index reads a state in both
    world = _small_world()
    problems = [generate_problem(world, i) for i in range(3)]
    tables = {p.problem_id: floored_log(p.teacher) for p in problems}
    teachers = {p.problem_id: temperature_scaled(p.teacher, 1.1) for p in problems}
    theta = StudentParams(tables, teachers)
    assert theta.teacher_rows.shape == theta.logits.shape
    assert all(np.shares_memory(theta.teachers[pid], theta.teacher_rows) for pid in teachers)
    others = [
        problems[:2],  # a subset
        problems[::-1],  # another order
        [*problems, generate_problem(world, 3)],  # one more
        [problems[0], generate_problem(world, 3), problems[2]],  # another problem
    ]
    for chosen in others:
        with pytest.raises(InvalidInputError, match="are not the tables' problems"):
            StudentParams(tables, {p.problem_id: teachers.get(p.problem_id, p.teacher) for p in chosen})
        theta = StudentParams(tables)
        with pytest.raises(InvalidInputError, match="are not the tables' problems"):
            theta.scale_teachers(chosen, 1.1)
    # the tables' problems, but a teacher table of another shape
    short = dict(teachers, **{problems[1].problem_id: teachers[problems[1].problem_id][:-1]})
    with pytest.raises(InvalidInputError, match="are not the tables' problems"):
        StudentParams(tables, short)


def test_run_training_matches_manual_step_loop(monkeypatch):
    world = _small_world()
    cfg = _small_cfg(steps=5)
    batches = []
    collect = trainer_module._collect_episodes

    def spy(*args, **kwargs):
        batches.append(None)
        return collect(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "_collect_episodes", spy)
    report = run_training(cfg, world)
    # one batch per step; the finite-difference spot check reuses step 0's
    assert len(batches) == cfg.steps
    problems = [generate_problem(world, i) for i in range(cfg.train_problems)]
    theta = init_student(cfg, problems)
    theta.scale_teachers(problems, cfg.distill_temperature)
    manual = []
    norm_sums: list[float] = []
    norm_counts: list[int] = []
    for _ in range(cfg.steps):
        episodes = trainer_module._collect_episodes(theta, problems, cfg)
        rows = trainer_module._pool_rows(episodes, theta._first, theta.logits.shape[1])
        batch = trainer_module._batch_from_episodes(episodes, theta, rows)
        expected = loss_gradient_wrt_student_logits(
            batch, cfg.objective, cfg.weighting, cfg.reduction
        )
        before = [z.copy() for z in batch.split(batch.student)]
        theta, loss, grads, used = train_step(theta, problems, cfg)
        # the returned gradients are the pre-update ones the step applied, on
        # the returned batch, whose rows the update left as sampled
        assert all(
            np.array_equal(g, e)
            for g, e in zip(used.split(grads), batch.split(expected), strict=True)
        )
        assert all(np.array_equal(u, z) for u, z in zip(used.split(used.student), before, strict=True))
        assert all(
            np.array_equal(u, q)
            for u, q in zip(used.split(used.teacher), batch.split(batch.teacher), strict=True)
        )
        if not manual:
            spot = finite_difference_check(
                used, cfg.objective, cfg.weighting, cfg.reduction, max_tokens=1
            )
        manual.append(loss)
        for g in used.split(grads):
            for t, n in enumerate(np.linalg.norm(g, axis=1)):
                if t == len(norm_sums):
                    norm_sums.append(0.0)
                    norm_counts.append(0)
                norm_sums[t] += float(n)
                norm_counts[t] += 1
    assert report.losses == manual
    assert report.fd_spot == {
        "max_rel_err": spot.max_rel_err,
        "max_abs_err": spot.max_abs_err,
        "compared": spot.compared,
        "skipped_boundary_tokens": spot.skipped_boundary_tokens,
    }
    assert report.grad_norm_profile == [s / c for s, c in zip(norm_sums, norm_counts)]


def test_initial_evaluation_and_step_0_build_each_nucleus_row_once(monkeypatch):
    # the initial evaluation samples the training policy cache, and step 0,
    # which picks every training problem, draws from the rows it built: up to
    # the final evaluation every pool row is built once, under either name
    world = _small_world()
    cfg = _small_cfg(steps=1, eval_problems=0)
    assert cfg.batch_sequences >= cfg.train_problems
    built = []
    build = world_module.nucleus_rows

    def spy(p, top_p):
        built.append(len(p))
        return build(p, top_p)

    evaluate = trainer_module.evaluate_policy
    before_final = []

    def evaluate_spy(cfg, problems, theta, eval_tag):
        if eval_tag == 1:
            before_final.append(sum(built))
        return evaluate(cfg, problems, theta, eval_tag)

    monkeypatch.setattr(world_module, "nucleus_rows", spy)
    monkeypatch.setattr(trainer_module, "nucleus_rows", spy)
    monkeypatch.setattr(trainer_module, "evaluate_policy", evaluate_spy)
    run_training(cfg, world)
    pool = sum(generate_problem(world, i).length for i in range(cfg.train_problems)) * (world.branch_count + 1)
    assert before_final == [pool]


def _reference_train_step(tables, teachers, step, problems, cfg):
    """The per-episode step that the packed pool replaced: one row-by-row
    rollout per episode from the softmax of its problem's table, a list
    batch, and one scatter per episode, on per-problem tables updated in
    place."""
    n = cfg.batch_sequences
    picked = [problems[(step * n + i) % len(problems)] for i in range(n)]
    visited = []
    for i, p in enumerate(picked):
        _, lanes, _, _ = _reference_rollout_from_params(
            p, tables[p.problem_id], derive_rng(cfg.seed, TAG_TRAIN, step, i)
        )
        visited.append((p.problem_id, (np.arange(len(lanes)), np.array(lanes))))
    batch = RolloutBatch([teachers[pid][at] for pid, at in visited], [tables[pid][at] for pid, at in visited])
    loss = distillation_loss(batch, cfg.objective, cfg.weighting, cfg.reduction)
    grad = loss_gradient_wrt_student_logits(batch, cfg.objective, cfg.weighting, cfg.reduction)
    for (pid, at), g in zip(visited, batch.split(grad)):
        np.subtract.at(tables[pid], at, cfg.step_size(step) * g)
    return loss, grad


@settings(max_examples=60, deadline=None)
@given(
    world=st.builds(
        WorldConfig,
        vocab_size=st.integers(4, 12),
        depth=st.integers(4, 16),
        branch_count=st.integers(1, 4),
        seed=st.integers(0, 1000),
    ),
    steps=st.integers(1, 4),
    batch_sequences=st.integers(1, 9),
    train_problems=st.integers(1, 4),
    weighting=st.sampled_from(["uniform", "moderate", "entropy_gate"]),
    reduction=st.sampled_from(list(Reduction)),
    temperature=st.sampled_from([0.7, 1.0, 1.1, 2.5]),
    noise=st.sampled_from([0.05, 1.0]),
    edit=st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 4), st.floats(-4.0, 4.0)),
)
def test_train_step_equals_the_per_episode_step(
    world, steps, batch_sequences, train_problems, weighting, reduction, temperature, noise, edit
):
    cfg = TrainConfig(
        steps=steps,
        batch_sequences=batch_sequences,
        train_problems=train_problems,
        distill_temperature=temperature,
        init_noise=noise,
        weighting=weighting_from_name(weighting, world.vocab_size),
        reduction=reduction,
        seed=world.seed,
    )
    problems = [generate_problem(world, i) for i in range(train_problems)]
    theta = init_student(cfg, problems)
    theta.scale_teachers(problems, temperature)
    # every episode starts at (0, 0): a near point mass there, two tokens at
    # one half each and the rest below 1e-21, keeps a nucleus shorter than V
    theta.tables[problems[0].problem_id][0, 0] = -50.0
    theta.tables[problems[0].problem_id][0, 0, :2] = 0.0
    tables = {pid: t.copy() for pid, t in theta.tables.items()}
    teachers = {pid: t.copy() for pid, t in theta.teachers.items()}
    seen = {}  # each problem's table at its last refresh
    for step in range(steps):
        if step == 1:  # an edit in place between two steps
            p = problems[edit[0] % train_problems]
            at = (edit[1] % p.length, edit[2] % (world.branch_count + 1), 0)
            theta.tables[p.problem_id][at] += edit[3]
            tables[p.problem_id][at] += edit[3]
        picked = dict.fromkeys(problems[(step * batch_sequences + i) % train_problems] for i in range(batch_sequences))
        changed = 0
        for p in picked:
            old = seen.get(p.problem_id, np.full_like(tables[p.problem_id], np.nan))
            changed += int((tables[p.problem_id] != old).any(axis=-1).sum())
            seen[p.problem_id] = tables[p.problem_id].copy()
        with mock.patch.object(
            trainer_module, "softmax_with_temperature", wraps=softmax_with_temperature
        ) as spy:
            theta, loss, grad, _ = train_step(theta, problems, cfg)
        # one softmax, over the rows that changed since their last refresh
        assert [len(call.args[0]) for call in spy.call_args_list] == ([changed] if changed else [])
        want_loss, want_grad = _reference_train_step(tables, teachers, step, problems, cfg)
        assert loss.hex() == want_loss.hex()
        assert grad.tobytes() == want_grad.tobytes()
        assert all(theta.tables[pid].tobytes() == t.tobytes() for pid, t in tables.items())


def _loop_norm_profile(step_grads):
    """run_training's per-token accumulation loop that the bincount replaced."""
    norm_sums: list[float] = []
    norm_counts: list[int] = []
    for grads in step_grads:
        for g in grads:
            norms = np.linalg.norm(g, axis=1)
            for t, n in enumerate(norms):
                if t >= len(norm_sums):
                    norm_sums.append(0.0)
                    norm_counts.append(0)
                norm_sums[t] += float(n)
                norm_counts[t] += 1
    return [s / c for s, c in zip(norm_sums, norm_counts)]


@settings(max_examples=50, deadline=None)
@given(
    steps=st.integers(1, 4),
    batch_sequences=st.integers(1, 5),
    train_problems=st.integers(1, 3),
    depth=st.integers(4, 14),
    vocab=st.integers(4, 10),
    weighting=st.sampled_from(["uniform", "moderate", "aggressive", "entropy_gate"]),
    reduction=st.sampled_from(list(Reduction)),
    seed=st.integers(0, 1000),
)
def test_norm_profile_equals_the_per_token_loop(
    steps, batch_sequences, train_problems, depth, vocab, weighting, reduction, seed
):
    world = WorldConfig(vocab_size=vocab, depth=depth, seed=seed)
    cfg = TrainConfig(
        steps=steps,
        batch_sequences=batch_sequences,
        train_problems=train_problems,
        eval_problems=0,
        eval_samples=1,
        weighting=weighting_from_name(weighting, vocab),
        reduction=reduction,
        seed=seed,
    )
    step_grads = []
    step = trainer_module.train_step

    def spy(*args):
        out = step(*args)
        step_grads.append(out[3].split(out[2]))
        return out

    with mock.patch.object(trainer_module, "train_step", spy):
        report = run_training(cfg, world)
    want = _loop_norm_profile(step_grads)
    assert [x.hex() for x in report.grad_norm_profile] == [x.hex() for x in want]


def _per_sample_evaluate(cfg, problems, tables, eval_tag):
    """The reference evaluate_policy: one derived generator and one
    row-by-row rollout per sample."""
    per_problem = []
    for problem in problems:
        texts = []
        for s in range(cfg.eval_samples):
            rng = derive_rng(cfg.seed, TAG_EVAL, eval_tag, problem.index, s)
            _, _, answer, _ = _reference_rollout_from_params(problem, tables[problem.problem_id], rng)
            texts.append(f"final \\boxed{{{answer}}}")
        per_problem.append(problem_metrics(grade_and_cluster(texts, problem.gold_answer)))
    return {**aggregate_metrics(per_problem), "n": cfg.eval_samples, "problems": len(problems)}


def _metrics_bits(agg):
    return {key: value.hex() if isinstance(value, float) else value for key, value in agg.items()}


@settings(max_examples=40, deadline=None)
@given(
    n_problems=st.integers(1, 4),
    samples=st.integers(1, 13),
    seed=st.one_of(st.integers(0, 1000), st.just(2**32 + 5)),  # a two-word seed takes the fallback
    eval_tag=st.integers(0, 2),
    scale=st.sampled_from([0.0, 1.0, 4.0]),
)
def test_evaluate_policy_equals_one_generator_per_sample(n_problems, samples, seed, eval_tag, scale):
    world = WorldConfig(vocab_size=8, depth=10, seed=seed % 1000)
    cfg = TrainConfig(eval_samples=samples, seed=seed)
    problems = [generate_problem(world, i) for i in range(n_problems)]
    # random logit tables, so samples reach different answers
    noise = np.random.default_rng(seed)
    tables = {p.problem_id: scale * noise.standard_normal(p.teacher.shape) for p in problems}
    with mock.patch.object(trainer_module, "derive_rng", wraps=derive_rng) as spy:
        got = trainer_module.evaluate_policy(cfg, problems, StudentParams(tables), eval_tag)
    assert spy.call_count == 0  # the generators come from one replayed pass
    assert _metrics_bits(got) == _metrics_bits(_per_sample_evaluate(cfg, problems, tables, eval_tag))


def test_run_training_skips_heldout_when_disabled():
    world = _small_world()
    report = run_training(_small_cfg(eval_problems=0), world)
    assert report.heldout_eval is None


def test_loss_decreases_on_a_short_run():
    world = _small_world(depth=24)
    cfg = _small_cfg(steps=30, train_problems=2, batch_sequences=4)
    report = run_training(cfg, world)
    first = float(np.mean(report.losses[:5]))
    last = float(np.mean(report.losses[-5:]))
    assert last < first


def test_trace_stability_oracle():
    falling = list(np.linspace(1.0, 0.0, 50))
    res = trace_stability(falling)
    assert res["ok"]
    assert res["max_violation"] == 0.0
    assert res["tail_steps"] == 5
    spiked = list(np.linspace(1.0, 0.0, 50))
    spiked[-2] = 0.9  # jumps far above the tail's running minimum
    assert not trace_stability(spiked)["ok"]
    assert not trace_stability([])["ok"]
    assert not trace_stability([1.0, float("nan")])["ok"]
    # a flat trace has zero range and zero violation: stable
    assert trace_stability([0.5] * 20)["ok"]


def test_gradient_norm_profile_tracks_weights():
    prof = gradient_norm_profile(
        length=24, vocab=12,
        weighting=PositionWeighting(PositionSchedule(0.25, 0.30, 0.10)),
    )
    weights = np.array(prof["weights"])
    norms = np.array(prof["norms"])
    assert len(prof["positions"]) == 24
    ratio = norms / weights
    assert np.max(np.abs(ratio - ratio[0])) / ratio[0] < 1e-9
    uniform = gradient_norm_profile(length=24, vocab=12)
    u_norms = np.array(uniform["norms"])
    assert np.max(np.abs(u_norms - u_norms[0])) < 1e-12
    with pytest.raises(InvalidInputError):
        gradient_norm_profile(length=0)


def test_factorial_and_sweep_structure_and_cell_identity():
    world = _small_world()
    base = _small_cfg(steps=4, eval_problems=2)
    out, _ = factorial_and_sweep(world, base, seeds=1)
    assert out["seeds"] == 1
    expected_cells = {f"{w}/{r.value}" for w, r in FACTORIAL_CELLS}
    assert set(out["factorial"]) == expected_cells
    assert set(out["sweep"]) == set(SWEEP_PRESETS)
    for cell in out["factorial"].values():
        assert len(cell["reports"]) == 1
        assert "metric_spread" in cell["summary"]
        assert "stability" in cell["summary"]
    # a factorial cell must be bit-identical to the same standalone run
    standalone = run_training(
        dataclasses.replace(
            base, weighting=UniformWeighting(), reduction=Reduction.GLOBAL_TOKEN_MEAN
        ),
        world,
    )
    cell_report = out["factorial"]["uniform/global_token_mean"]["reports"][0]
    assert cell_report == standalone.as_dict()
    with pytest.raises(InvalidInputError):
        factorial_and_sweep(world, base, seeds=0)


def test_factorial_and_sweep_does_not_depend_on_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # fork even on a one-CPU host
    world = _small_world()
    base = _small_cfg(steps=2, eval_problems=1, eval_samples=2)
    serial, one = factorial_and_sweep(world, base, seeds=1)
    sharded, workers = factorial_and_sweep(world, base, seeds=1, threads=3)
    assert sharded == serial == factorial_and_sweep(world, base, seeds=1, threads=3)[0]
    assert (one, workers) == (1, 3)
    _, workers = factorial_and_sweep(world, base, seeds=1, threads=100)
    assert workers == len(FACTORIAL_CELLS) + len(SWEEP_PRESETS) - 1  # one per distinct config


def test_factorial_and_sweep_trains_each_config_once(monkeypatch):
    world = _small_world()
    base = _small_cfg(steps=2, eval_problems=1, eval_samples=2)
    configs = []
    real = trainer_module.run_training

    def spy(cfg, world_cfg=None):
        configs.append(cfg)
        return real(cfg, world_cfg)

    monkeypatch.setattr(trainer_module, "run_training", spy)
    out, _ = factorial_and_sweep(world, base, seeds=2)
    cells = len(FACTORIAL_CELLS) + len(SWEEP_PRESETS)
    # moderate/per_sequence_mean is both a factorial cell and the moderate sweep cell
    assert len(configs) == len(set(configs)) == (cells - 1) * 2
    assert out["factorial"]["moderate/per_sequence_mean"]["reports"] == (
        out["sweep"]["moderate"]["reports"]
    )
    moderate = dataclasses.replace(base, weighting=weighting_from_name("moderate"), seed=1)
    assert out["sweep"]["moderate"]["reports"][1] == real(moderate, world).as_dict()
