"""Tabular distillation trainer on the synthetic world.

The student is a per-problem logit table over every (layer, lane) state.
Parameters start at the teacher's log-probabilities plus Gaussian noise (the
student begins life as a perturbed copy of the policy it is distilling), then
follow the exact analytic gradient of the clipped forward-KL objective on
resampled on-policy rollouts, with a linearly decaying step size so the trace
settles instead of rattling inside the gradient-noise ball. Each step samples
and differentiates one batch: `train_step` returns the gradients it applied,
and `run_training` builds the gradient-norm profile from them.

Evaluation samples the tabular policy with fresh seeds and pushes terminal
answers through the multi-sample metrics pipeline. Held-out problems are
evaluated at their initialization: a per-problem table cannot transfer what
it learned to problems it never visited, so the held-out numbers document
that floor rather than pretending generalization.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .dists import PROB_FLOOR, softmax_with_temperature
from .errors import DegenerateInputError, InvalidInputError, NumericDomainError
from .metrics import aggregate_metrics, grade_and_cluster, problem_metrics, seed_spread
from .objectives import (
    ObjectiveConfig,
    PositionWeighting,
    Reduction,
    RolloutBatch,
    UniformWeighting,
    Weighting,
    distillation_loss,
    finite_difference_check,
    loss_gradient_wrt_student_logits,
    token_weights,
)
from .schedules import PRESETS, preset
from .seeding import derive_rng
from .workers import map_sharded
from .world import ProblemInstance, WorldConfig, generate_problem, nucleus_sample

_TAG_INIT = 4
_TAG_TRAIN = 5
_TAG_EVAL = 6


def weighting_from_name(name: str, vocab_size: int | None = None) -> Weighting:
    """Resolve a weighting by name: 'uniform', a schedule preset name, or
    'entropy_gate' (optionally 'entropy_gate:<threshold>')."""
    from .objectives import EntropyGateWeighting, default_gate_threshold

    key = name.strip().lower()
    if key == "uniform":
        return UniformWeighting()
    if key in PRESETS:
        return PositionWeighting(preset(key))
    head, colon, raw = key.partition(":")
    if head == "entropy_gate":
        if colon:
            try:
                threshold = float(raw)
            except ValueError as exc:
                raise InvalidInputError(f"entropy_gate threshold {raw!r} is not a number") from exc
            return EntropyGateWeighting(threshold)
        if vocab_size is None:
            raise InvalidInputError("entropy_gate without a threshold needs vocab_size")
        return EntropyGateWeighting(default_gate_threshold(vocab_size))
    raise InvalidInputError(
        f"unknown weighting {name!r}; expected uniform, a preset ({', '.join(sorted(PRESETS))}), or entropy_gate"
    )


def weighting_name(weighting: Weighting) -> str:
    """Name of a weighting; `weighting_from_name` resolves it back, except for
    a custom position schedule, which no name selects."""
    if isinstance(weighting, UniformWeighting):
        return "uniform"
    if isinstance(weighting, PositionWeighting):
        for name, sched in PRESETS.items():
            if weighting.schedule == sched:
                return name
        return (
            f"position({weighting.schedule.w_min},{weighting.schedule.midpoint},"
            f"{weighting.schedule.steepness})"
        )
    return f"entropy_gate:{float(weighting.gate_threshold)!r}"


@dataclass(frozen=True)
class TrainConfig:
    """Reduction coefficients divide each token's gradient by roughly
    batch_sequences * mean length (about 288 under the default world), so the
    default learning rate of 512 corresponds to a per-state effective step of
    about 512 / (288 * 1.1) = 1.6 in logit space."""

    learning_rate: float = 512.0
    steps: int = 100
    batch_sequences: int = 8
    distill_temperature: float = 1.1
    clip_threshold: float = 0.05
    weighting: Weighting = field(default_factory=lambda: PositionWeighting(preset("moderate")))
    reduction: Reduction = Reduction.PER_SEQUENCE_MEAN
    seed: int = 0
    lr_decay: str = "linear"  # "linear" anneals to 0 across steps; "constant" holds
    train_problems: int = 4
    eval_problems: int = 8
    eval_samples: int = 12
    init_noise: float = 0.05

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise InvalidInputError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.steps < 1:
            raise InvalidInputError(f"steps must be >= 1, got {self.steps}")
        if self.batch_sequences < 1:
            raise InvalidInputError(f"batch_sequences must be >= 1, got {self.batch_sequences}")
        if self.lr_decay not in ("linear", "constant"):
            raise InvalidInputError(f"lr_decay must be 'linear' or 'constant', got {self.lr_decay!r}")
        if self.train_problems < 1:
            raise InvalidInputError(f"train_problems must be >= 1, got {self.train_problems}")
        if self.eval_problems < 0:
            raise InvalidInputError(f"eval_problems must be >= 0, got {self.eval_problems}")
        if self.eval_samples < 1:
            raise InvalidInputError(f"eval_samples must be >= 1, got {self.eval_samples}")
        if self.init_noise < 0.0:
            raise InvalidInputError(f"init_noise must be >= 0, got {self.init_noise!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")

    @property
    def objective(self) -> ObjectiveConfig:
        return ObjectiveConfig(
            distill_temperature=self.distill_temperature, clip_threshold=self.clip_threshold
        )

    def step_size(self, step: int) -> float:
        if self.lr_decay == "constant":
            return self.learning_rate
        return self.learning_rate * max(0.0, 1.0 - step / self.steps)


@dataclass
class StudentParams:
    """Trainable per-problem logit tables plus the step counter that drives
    round-robin problem choice and rollout seeding."""

    tables: dict[str, np.ndarray]
    step: int = 0

    def logits_finite(self) -> bool:
        return all(np.isfinite(t).all() for t in self.tables.values())


def init_student(cfg: TrainConfig, problems: list[ProblemInstance]) -> StudentParams:
    """Teacher log-probabilities plus seeded Gaussian noise, per problem."""
    tables = {}
    for problem in problems:
        rng = derive_rng(cfg.seed, _TAG_INIT, problem.index)
        base = np.log(np.maximum(problem.teacher, PROB_FLOOR))
        tables[problem.problem_id] = base + cfg.init_noise * rng.standard_normal(base.shape)
    return StudentParams(tables=tables)


def _temperature_scaled(q: np.ndarray, temperature: float) -> np.ndarray:
    """Teacher target at the distillation temperature: q^(1/T), renormalized
    row by row. Exact zeros stay zero."""
    if temperature == 1.0:
        return q
    scaled = np.where(q > 0.0, np.exp(np.log(np.maximum(q, PROB_FLOOR)) / temperature), 0.0)
    return scaled / scaled.sum(axis=-1, keepdims=True)


@dataclass
class Episode:
    problem: ProblemInstance
    tokens: list[int]
    lanes: list[int]
    answer: str
    correct: bool


def rollout_from_params(
    problem: ProblemInstance, theta: np.ndarray, rng: np.random.Generator
) -> Episode:
    """Sample one episode from softmax(theta) (plain categorical at T = 1)."""
    probs = softmax_with_temperature(theta, 1.0)
    lane = 0
    tokens: list[int] = []
    lanes: list[int] = []
    for t in range(problem.length):
        token = nucleus_sample(rng, probs[t, lane], temperature=1.0, top_p=1.0)
        tokens.append(token)
        lanes.append(lane)
        if t < problem.length - 1:
            lane = problem.transition(t, lane, token)
    answer = str(tokens[-1])
    return Episode(problem, tokens, lanes, answer, answer == problem.gold_answer)


def _collect_episodes(
    theta: StudentParams, problems: list[ProblemInstance], cfg: TrainConfig
) -> list[Episode]:
    """The batch of on-policy rollouts for the current step: the training pool
    is visited round-robin so every problem refreshes at the same rate.
    Zero-length episodes are skipped; an all-skipped batch is degenerate."""
    episodes = []
    for i in range(cfg.batch_sequences):
        problem = problems[(theta.step * cfg.batch_sequences + i) % len(problems)]
        rng = derive_rng(cfg.seed, _TAG_TRAIN, theta.step, i)
        ep = rollout_from_params(problem, theta.tables[problem.problem_id], rng)
        if len(ep.tokens) == 0:
            continue
        episodes.append(ep)
    if not episodes:
        raise DegenerateInputError("every rollout in the batch was empty")
    return episodes


def _batch_from_episodes(
    episodes: list[Episode], theta: StudentParams, temperature: float
) -> RolloutBatch:
    teacher_rows = []
    student_rows = []
    for ep in episodes:
        visited = (np.arange(len(ep.lanes)), np.array(ep.lanes))
        teacher_rows.append(_temperature_scaled(ep.problem.teacher[visited], temperature))
        student_rows.append(theta.tables[ep.problem.problem_id][visited])
    return RolloutBatch(teacher_rows, student_rows)


def train_step(
    theta: StudentParams, problems: list[ProblemInstance], cfg: TrainConfig
) -> tuple[StudentParams, float, list[np.ndarray], RolloutBatch]:
    """One batch of rollouts (treated as fixed examples) and one exact-gradient
    descent update to visited-state logits only. Returns the updated params,
    the pre-update loss, the per-sequence (length, vocab) gradients the
    update applied (before scaling by the step size) and their batch, whose
    gathered rows the update leaves as sampled."""
    episodes = _collect_episodes(theta, problems, cfg)
    batch = _batch_from_episodes(episodes, theta, cfg.distill_temperature)
    loss = distillation_loss(batch, cfg.objective, cfg.weighting, cfg.reduction)
    grads = loss_gradient_wrt_student_logits(batch, cfg.objective, cfg.weighting, cfg.reduction)
    lr = cfg.step_size(theta.step)
    for ep, g in zip(episodes, grads):
        table = theta.tables[ep.problem.problem_id]
        t_idx = np.arange(len(ep.tokens))
        lane_idx = np.array(ep.lanes)
        np.subtract.at(table, (t_idx, lane_idx), lr * g)
    theta.step += 1
    return theta, loss, grads, batch


def evaluate_policy(
    cfg: TrainConfig,
    problems: list[ProblemInstance],
    tables: dict[str, np.ndarray],
    eval_tag: int,
) -> dict:
    """Fresh-seed rollouts per problem, graded through the answer-matching
    metrics pipeline (answers are wrapped in the boxed marker it parses)."""
    per_problem = []
    for problem in problems:
        texts = []
        for s in range(cfg.eval_samples):
            rng = derive_rng(cfg.seed, _TAG_EVAL, eval_tag, problem.index, s)
            ep = rollout_from_params(problem, tables[problem.problem_id], rng)
            texts.append(f"final \\boxed{{{ep.answer}}}")
        grades = grade_and_cluster(texts, problem.gold_answer)
        per_problem.append(problem_metrics(grades))
    agg = aggregate_metrics(per_problem)
    agg["n"] = cfg.eval_samples
    agg["problems"] = len(problems)
    return agg


@dataclass
class TrainReport:
    config: dict
    losses: list[float]
    grad_norm_profile: list[float]  # mean gradient L2 norm by position index
    heldout_eval: dict | None
    train_eval_init: dict
    train_eval_final: dict
    fd_spot: dict

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "losses": self.losses,
            "grad_norm_profile": self.grad_norm_profile,
            "heldout_eval": self.heldout_eval,
            "train_eval_init": self.train_eval_init,
            "train_eval_final": self.train_eval_final,
            "fd_spot": self.fd_spot,
        }


def _config_echo(cfg: TrainConfig, world_cfg: WorldConfig) -> dict:
    return {
        "world": world_cfg.as_dict(),
        "learning_rate": cfg.learning_rate,
        "steps": cfg.steps,
        "batch_sequences": cfg.batch_sequences,
        "distill_temperature": cfg.distill_temperature,
        "clip_threshold": cfg.clip_threshold,
        "weighting": weighting_name(cfg.weighting),
        "reduction": cfg.reduction.value,
        "seed": cfg.seed,
        "lr_decay": cfg.lr_decay,
        "train_problems": cfg.train_problems,
        "eval_problems": cfg.eval_problems,
        "eval_samples": cfg.eval_samples,
        "init_noise": cfg.init_noise,
    }


def run_training(cfg: TrainConfig, world_cfg: WorldConfig | None = None) -> TrainReport:
    """`steps` iterations of train_step, one finite-difference spot check on the
    step-0 batch, per-position gradient-norm accumulation, and final
    evaluation with fresh samples per problem."""
    world_cfg = world_cfg if world_cfg is not None else WorldConfig()
    problems = [generate_problem(world_cfg, i) for i in range(cfg.train_problems)]
    theta = init_student(cfg, problems)
    init_tables = {pid: t.copy() for pid, t in theta.tables.items()}

    train_eval_init = evaluate_policy(cfg, problems, init_tables, eval_tag=0)

    losses: list[float] = []
    norm_sums: list[float] = []
    norm_counts: list[int] = []
    for step in range(cfg.steps):
        theta, loss, grads, batch = train_step(theta, problems, cfg)
        if step == 0:  # one-token gradient spot check
            spot = finite_difference_check(
                batch, cfg.objective, cfg.weighting, cfg.reduction, max_tokens=1
            )
        losses.append(loss)
        for g in grads:
            norms = np.linalg.norm(g, axis=1)
            for t, n in enumerate(norms):
                if t >= len(norm_sums):
                    norm_sums.append(0.0)
                    norm_counts.append(0)
                norm_sums[t] += float(n)
                norm_counts[t] += 1
    if not theta.logits_finite():
        raise NumericDomainError(f"student logits left the finite range in {cfg.steps} steps")

    train_eval_final = evaluate_policy(cfg, problems, theta.tables, eval_tag=1)

    heldout_eval = None
    if cfg.eval_problems > 0:
        heldout = [
            generate_problem(world_cfg, cfg.train_problems + i) for i in range(cfg.eval_problems)
        ]
        heldout_tables = init_student(cfg, heldout).tables
        heldout_eval = evaluate_policy(cfg, heldout, heldout_tables, eval_tag=2)

    return TrainReport(
        config=_config_echo(cfg, world_cfg),
        losses=losses,
        grad_norm_profile=[s / c for s, c in zip(norm_sums, norm_counts)],
        heldout_eval=heldout_eval,
        train_eval_init=train_eval_init,
        train_eval_final=train_eval_final,
        fd_spot=dataclasses.asdict(spot),
    )


def trace_stability(losses: list[float], band: float = 0.05) -> dict:
    """Tail-stability oracle: over the final 10% of steps the trace must be
    non-increasing up to a tolerance band of `band` times the overall trace
    range (each tail value may sit at most one band above the running
    minimum of the tail)."""
    arr = np.asarray(losses, dtype=float)
    if arr.size == 0 or not np.isfinite(arr).all():
        return {"ok": False, "max_violation": math.inf, "tail_steps": 0}
    full_range = float(arr.max() - arr.min())
    tol = band * full_range
    k = max(1, int(math.ceil(arr.size / 10)))
    tail = arr[-k:]
    running_min = np.minimum.accumulate(tail)
    violation = float((tail - running_min).max())
    return {"ok": bool(violation <= tol), "max_violation": violation, "tail_steps": int(k)}


def gradient_norm_profile(
    length: int = 32,
    vocab: int = 16,
    weighting: Weighting | None = None,
    objective: ObjectiveConfig | None = None,
    reduction: Reduction = Reduction.GLOBAL_TOKEN_MEAN,
    seed: int = 0,
) -> dict:
    """Per-position gradient L2 norms on a batch whose teacher distribution and
    student logits are identical at every position. With the token-level term
    constant, the norm profile is exactly the weight profile times a constant,
    which makes weight proportionality directly checkable."""
    if length < 1:
        raise InvalidInputError(f"length must be >= 1, got {length}")
    weighting = weighting if weighting is not None else UniformWeighting()
    objective = objective if objective is not None else ObjectiveConfig()
    rng = derive_rng(seed, 7, length, vocab)
    q_row = rng.dirichlet(np.ones(vocab))
    z_row = rng.standard_normal(vocab)
    teacher = np.tile(q_row, (length, 1))
    logits = np.tile(z_row, (length, 1))
    batch = RolloutBatch([teacher], [logits])
    grads = loss_gradient_wrt_student_logits(batch, objective, weighting, reduction)[0]
    weights = token_weights(batch, weighting)[0]
    norms = np.linalg.norm(grads, axis=1)
    positions = (np.arange(1, length + 1) - 0.5) / length
    return {
        "positions": positions.tolist(),
        "weights": weights.tolist(),
        "norms": norms.tolist(),
    }


FACTORIAL_CELLS = (
    ("uniform", Reduction.GLOBAL_TOKEN_MEAN),
    ("uniform", Reduction.PER_SEQUENCE_MEAN),
    ("moderate", Reduction.GLOBAL_TOKEN_MEAN),
    ("moderate", Reduction.PER_SEQUENCE_MEAN),
)

SWEEP_PRESETS = ("mild", "moderate", "sharp", "aggressive")


def _cell_summary(reports: list[TrainReport]) -> dict:
    evals = [
        r.heldout_eval if r.heldout_eval is not None else r.train_eval_final for r in reports
    ]
    spread = seed_spread(evals)
    losses = np.array([r.losses[-1] for r in reports])
    first = np.array([float(np.mean(r.losses[:10])) for r in reports])
    last = np.array([float(np.mean(r.losses[-10:])) for r in reports])
    stability = [trace_stability(r.losses) for r in reports]
    return {
        "metric_spread": {k: list(v) for k, v in spread.items()},
        "final_loss_mean": float(losses.mean()),
        "final_loss_sd": float(losses.std(ddof=1)) if losses.size > 1 else 0.0,
        "first10_mean": first.tolist(),
        "last10_mean": last.tolist(),
        "stability": stability,
    }


def _sweep_grid(
    world_cfg: WorldConfig, base_cfg: TrainConfig, seeds: int
) -> dict[str, dict[str, list[TrainConfig]]]:
    """Per kind ("factorial", "sweep") and cell, the configuration at each seed."""
    if seeds < 1:
        raise InvalidInputError(f"seeds must be >= 1, got {seeds}")

    def at_seeds(weighting: str, reduction: Reduction) -> list[TrainConfig]:
        return [
            dataclasses.replace(
                base_cfg,
                weighting=weighting_from_name(weighting, world_cfg.vocab_size),
                reduction=reduction,
                seed=base_cfg.seed + s,
            )
            for s in range(seeds)
        ]

    return {
        "factorial": {
            f"{w_name}/{reduction.value}": at_seeds(w_name, reduction)
            for w_name, reduction in FACTORIAL_CELLS
        },
        "sweep": {name: at_seeds(name, base_cfg.reduction) for name in SWEEP_PRESETS},
    }


def factorial_and_sweep(
    world_cfg: WorldConfig, base_cfg: TrainConfig, seeds: int = 3, threads: int = 1
) -> dict:
    """The 2x2 weighting-by-reduction factorial and the four-preset schedule
    sweep, each cell trained at `seeds` consecutive seeds; per-cell mean and
    sample standard deviation of the evaluation metrics. A configuration that
    appears in both (the moderate preset at the base reduction) is trained
    once and its report shared. The distinct trainings run on up to
    `threads` processes (`workers.map_sharded`); the table does not depend
    on `threads`."""
    return factorial_and_sweep_with_workers(world_cfg, base_cfg, seeds, threads)[0]


def factorial_and_sweep_with_workers(
    world_cfg: WorldConfig, base_cfg: TrainConfig, seeds: int = 3, threads: int = 1
) -> tuple[dict, int]:
    """`factorial_and_sweep`'s table and the number of processes that trained it."""
    grid = _sweep_grid(world_cfg, base_cfg, seeds)
    distinct = list(  # in first-use order
        dict.fromkeys(cfg for cells in grid.values() for cfgs in cells.values() for cfg in cfgs)
    )
    reports, workers = map_sharded(lambda cfg: run_training(cfg, world_cfg), distinct, threads)
    runs = dict(zip(distinct, reports))
    table: dict = {}
    for kind, cells in grid.items():
        table[kind] = {}
        for name, cfgs in cells.items():
            cell = [runs[cfg] for cfg in cfgs]
            table[kind][name] = {
                "reports": [r.as_dict() for r in cell],
                "summary": _cell_summary(cell),
            }
    table["seeds"] = seeds
    return table, workers
