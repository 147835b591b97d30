"""Tabular distillation trainer on the synthetic world.

The student is a per-problem logit table over every (layer, lane) state.
Parameters start at the teacher's log-probabilities plus Gaussian noise (the
student begins life as a perturbed copy of the policy it is distilling), then
follow the exact analytic gradient of the clipped forward-KL objective on
resampled on-policy rollouts, with a linearly decaying step size so the trace
settles instead of rattling inside the gradient-noise ball. Each step samples
and differentiates one batch: `train_step` returns the packed gradient it
applied, and `run_training` builds the gradient-norm profile from it.

A run's tables are packed into one array (`StudentParams.logits`) and its
teachers into one of the same layout. A table is sampled only through its
T = 1 nucleus rows (`StudentParams.policy`), rebuilt only where the logits
changed since their last build. Each step draws from them, gathers the batch
with one index into both arrays, and updates with one `np.subtract.at` in
episode order: bit-identical to a softmax per problem, a table draw per
episode and one scatter per episode.

Evaluation draws from the same nucleus rows with fresh seeds and pushes
terminal answers through the multi-sample metrics pipeline; the rows the
initial evaluation builds are the ones step 0 draws from. Held-out problems
are evaluated at their initialization: a per-problem table cannot transfer
what it learned to problems it never visited, so the held-out numbers
document that floor rather than pretending generalization.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dists import floored_log, softmax_with_temperature, temperature_scaled
from .errors import InvalidInputError, NumericDomainError
from .metrics import aggregate_metrics, grade_and_cluster, problem_metrics, seed_spread
from .objectives import (
    EntropyGateWeighting,
    ObjectiveConfig,
    PositionWeighting,
    Reduction,
    RolloutBatch,
    UniformWeighting,
    Weighting,
    default_gate_threshold,
    distillation_loss,
    finite_difference_check,
    loss_gradient_wrt_student_logits,
    token_weights,
)
from .schedules import PRESETS, preset
from .seeding import TAG_EVAL, TAG_INIT, TAG_NORM_PROFILE, TAG_TRAIN, derive_rng, replayed
from .workers import map_sharded
from .world import Episode, ProblemInstance, WorldConfig, generate_problem, nucleus_rows, nucleus_sample, walk


def weighting_from_name(name: str, vocab_size: int | None = None) -> Weighting:
    """Resolve a weighting by name: 'uniform', a schedule preset name, or
    'entropy_gate' (optionally 'entropy_gate:<threshold>')."""
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
    about 512 / (288 * 1.1) = 1.6 in logit space. `objective`, the
    ObjectiveConfig of the temperature and clip, is built (and checked) at
    construction; it is not a field."""

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
        if not (math.isfinite(self.init_noise) and self.init_noise >= 0.0):
            raise InvalidInputError(f"init_noise must be finite and >= 0, got {self.init_noise!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "objective", ObjectiveConfig(self.distill_temperature, self.clip_threshold))

    def step_size(self, step: int) -> float:
        if self.lr_decay == "constant":
            return self.learning_rate
        return self.learning_rate * max(0.0, 1.0 - step / self.steps)


def _pack(tables: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, int]]:
    """`tables` stacked along their first (layer) axis into one array, each
    table as a view into it, and each table's first layer in it."""
    if not tables:
        return np.empty((0, 0, 0)), {}, {}
    packed = np.concatenate(list(tables.values()))
    first = dict(zip(tables, np.cumsum([0, *(len(t) for t in tables.values())]).tolist()))
    return packed, {pid: packed[first[pid] : first[pid] + len(t)] for pid, t in tables.items()}, first


@dataclass
class StudentParams:
    """Trainable per-problem logit tables, teacher tables at the distillation
    temperature, and the step counter that drives round-robin problem choice
    and rollout seeding.

    Each dict is packed into one (sum of lengths, K, V) array, `logits` and
    `teacher_rows`, whose entries are views into it: an edit in place through
    either is seen by both. Teachers, when set, must be the tables' problems
    in their order and shapes: a state has one row index in both arrays."""

    tables: dict[str, np.ndarray]
    teachers: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def __post_init__(self) -> None:
        self.logits, self.tables, self._first = _pack(self.tables)
        self._set_teachers(self.teachers)
        self._policy: tuple[np.ndarray, ...] | None = None

    def _set_teachers(self, teachers: dict[str, np.ndarray]) -> None:
        rows, views, _ = _pack(teachers)
        if teachers and (list(teachers) != list(self.tables) or rows.shape != self.logits.shape):
            raise InvalidInputError(f"teachers {list(teachers)} are not the tables' problems {list(self.tables)}")
        self.teacher_rows, self.teachers = rows, views

    def logits_finite(self) -> bool:
        return bool(np.isfinite(self.logits).all())

    def scale_teachers(self, problems: list[ProblemInstance], temperature: float) -> None:
        """Set each training problem's teacher table at `temperature`, once per run."""
        with np.errstate(invalid="ignore"):  # a row that underflows to all zeros: refused below
            teachers = {p.problem_id: temperature_scaled(p.teacher, temperature) for p in problems}
        self._set_teachers(teachers)
        if not np.isfinite(self.teacher_rows).all():
            raise InvalidInputError(f"distill_temperature {temperature!r} empties a teacher row")

    def policy(self, problems: list[ProblemInstance]) -> dict[ProblemInstance, tuple[np.ndarray, ...]]:
        """Each problem's T = 1, top_p = 1 nucleus rows, as `world.nucleus_sample`
        takes them: the one form in which a logit table is sampled, by training
        steps and by evaluation alike. The cache keeps, per row of `logits`,
        the logits its nucleus rows were built from (NaN at first, unequal to
        every row); the rows of these problems that differ from it are
        rebuilt, in one softmax."""
        K, V = self.logits.shape[1:]
        rows = self.logits.reshape(-1, V)
        if self._policy is None:
            self._policy = (np.full(rows.shape, np.nan), np.zeros(rows.shape, np.intp), np.zeros(rows.shape))
        snapshot, order, cum = self._policy
        first = {p: self._first[p.problem_id] for p in problems}
        spans = {p: slice(first[p] * K, (first[p] + p.length) * K) for p in problems}
        within = np.zeros(len(rows), dtype=bool)
        for span in spans.values():
            within[span] = True
        changed = np.flatnonzero(within & (rows != snapshot).any(axis=1))
        if changed.size:
            z = rows[changed]
            order[changed], cum[changed], _ = nucleus_rows(softmax_with_temperature(z, 1.0), 1.0)
            snapshot[changed] = z
        return {
            p: (order.reshape(-1), cum[s].reshape(-1, K, V), np.arange(s.start, s.stop).reshape(-1, K) * V)
            for p, s in spans.items()
        }


def init_student(cfg: TrainConfig, problems: list[ProblemInstance]) -> StudentParams:
    """Teacher log-probabilities plus seeded Gaussian noise, per problem."""
    tables = {}
    for problem in problems:
        rng = derive_rng(cfg.seed, TAG_INIT, problem.index)
        base = floored_log(problem.teacher)
        with np.errstate(over="ignore"):  # a huge init_noise overflows: refused below
            table = base + cfg.init_noise * rng.standard_normal(base.shape)
        if not np.isfinite(table).all():
            raise NumericDomainError(f"init_noise {cfg.init_noise!r} gives non-finite initial logits")
        tables[problem.problem_id] = table
    return StudentParams(tables=tables)


def rollout_from_params(problem: ProblemInstance, policy: tuple[np.ndarray, ...], rng: np.random.Generator) -> Episode:
    """Sample one episode from a problem's nucleus rows (`StudentParams.policy`):
    one table draw, then a walk over the drawn tokens."""
    return walk(problem, 0, 0, nucleus_sample(rng, *policy))


def _collect_episodes(
    theta: StudentParams, problems: list[ProblemInstance], cfg: TrainConfig
) -> list[Episode]:
    """The batch of on-policy rollouts for the current step: the training pool
    is visited round-robin so every problem refreshes at the same rate. The
    picked problems' nucleus rows are refreshed once, before the draws."""
    n = cfg.batch_sequences
    picked = [problems[(theta.step * n + i) % len(problems)] for i in range(n)]
    policy = theta.policy(list(dict.fromkeys(picked)))
    return [
        rollout_from_params(p, policy[p], derive_rng(cfg.seed, TAG_TRAIN, theta.step, i))
        for i, p in enumerate(picked)
    ]


def _pool_rows(episodes: list[Episode], first: dict[str, int], lanes: int) -> np.ndarray:
    """Each visited state's row in a packed pool of (layer, lane) rows whose
    tables start at `first`, in episode and walk order."""
    lengths = [len(ep.lanes) for ep in episodes]
    starts = [first[ep.problem.problem_id] + ep.problem.length - n for ep, n in zip(episodes, lengths)]
    offsets = np.cumsum([0, *lengths[:-1]])
    layer = np.arange(sum(lengths)) + np.repeat(np.array(starts) - offsets, lengths)
    return layer * lanes + np.fromiter(chain.from_iterable(ep.lanes for ep in episodes), np.intp)


def _batch_from_episodes(episodes: list[Episode], theta: StudentParams, rows: np.ndarray) -> RolloutBatch:
    """The episodes' teacher and student rows, gathered from the packed pools
    at `rows`, the visited states' rows in either (`_pool_rows`)."""
    V = theta.logits.shape[2]
    ends = np.cumsum([len(ep.lanes) for ep in episodes]).tolist()
    pools = (theta.teacher_rows.reshape(-1, V)[rows], theta.logits.reshape(-1, V)[rows])
    return RolloutBatch(*([pool[i:j] for i, j in zip([0, *ends], ends)] for pool in pools))


def train_step(
    theta: StudentParams, problems: list[ProblemInstance], cfg: TrainConfig
) -> tuple[StudentParams, float, np.ndarray, RolloutBatch]:
    """One batch of rollouts (treated as fixed examples) and one exact-gradient
    descent update to visited-state logits only. Returns the updated params,
    the pre-update loss, the packed (N_tokens, vocab) gradient the update
    applied (before scaling by the step size) and its batch, whose gathered
    rows the update leaves as sampled. The update subtracts in episode order,
    so a state visited twice takes the same float steps as one episode at a
    time would."""
    episodes = _collect_episodes(theta, problems, cfg)
    rows = _pool_rows(episodes, theta._first, theta.logits.shape[1])
    batch = _batch_from_episodes(episodes, theta, rows)
    loss = distillation_loss(batch, cfg.objective, cfg.weighting, cfg.reduction)
    grad = loss_gradient_wrt_student_logits(batch, cfg.objective, cfg.weighting, cfg.reduction)
    np.subtract.at(theta.logits.reshape(-1, grad.shape[1]), rows, cfg.step_size(theta.step) * grad)
    theta.step += 1
    return theta, loss, grad, batch


def evaluate_policy(cfg: TrainConfig, problems: list[ProblemInstance], theta: StudentParams, eval_tag: int) -> dict:
    """Fresh-seed rollouts per problem, drawn from the policy the trainer
    samples (`StudentParams.policy`) and graded through the answer-matching
    metrics pipeline (answers are wrapped in the boxed marker it parses).
    Sample s of a problem draws from `derive_rng(seed, TAG_EVAL, eval_tag,
    problem.index, s)`, every sample's generator replayed in one pass."""
    rngs = replayed(
        (cfg.seed, TAG_EVAL, eval_tag, problem.index, s) for problem in problems for s in range(cfg.eval_samples)
    )
    policy = theta.policy(problems)
    per_problem = []
    for problem in problems:
        texts = []
        for _ in range(cfg.eval_samples):
            ep = rollout_from_params(problem, policy[problem], next(rngs))
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
        return dataclasses.asdict(self)


def _config_echo(cfg: TrainConfig, world_cfg: WorldConfig) -> dict:
    return {
        **{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        "world": world_cfg.as_dict(),
        "weighting": weighting_name(cfg.weighting),
        "reduction": cfg.reduction.value,
    }


def run_training(cfg: TrainConfig, world_cfg: WorldConfig | None = None) -> TrainReport:
    """`steps` iterations of train_step, one finite-difference spot check on the
    step-0 batch, per-position gradient-norm accumulation, and final
    evaluation with fresh samples per problem."""
    world_cfg = world_cfg if world_cfg is not None else WorldConfig()
    problems = [generate_problem(world_cfg, i) for i in range(cfg.train_problems)]
    theta = init_student(cfg, problems)
    theta.scale_teachers(problems, cfg.distill_temperature)
    # step 0 draws from the nucleus rows that this evaluation builds
    train_eval_init = evaluate_policy(cfg, problems, theta, eval_tag=0)

    losses: list[float] = []
    norms: list[np.ndarray] = []  # per step, the packed tokens' gradient norms
    positions: list[np.ndarray] = []  # and each token's position in its sequence
    for step in range(cfg.steps):
        theta, loss, grad, batch = train_step(theta, problems, cfg)
        if step == 0:  # one-token gradient spot check
            spot = finite_difference_check(
                batch, cfg.objective, cfg.weighting, cfg.reduction, max_tokens=1
            )
        losses.append(loss)
        norms.append(np.linalg.norm(grad, axis=1))
        positions.append(np.arange(batch.total_tokens) - np.repeat(batch.offsets[:-1], batch.lengths))
    if not theta.logits_finite():
        raise NumericDomainError(f"student logits left the finite range in {cfg.steps} steps")
    # a student probability of exactly 0 under a positive teacher one makes
    # the forward KL infinite, which the floored loss reports as finite
    with np.errstate(all="ignore"):  # huge logits overflow z / T: not positive below
        student = softmax_with_temperature(theta.logits, cfg.distill_temperature)
    if (~(student > 0.0) & (theta.teacher_rows > 0.0)).any():
        raise NumericDomainError(
            f"student probabilities at temperature {cfg.distill_temperature!r} fell to 0"
            f" under a positive teacher probability in {cfg.steps} steps"
        )
    # bincount adds each position's norms in step, sequence, token order
    at = np.concatenate(positions)
    norm_profile = np.bincount(at, weights=np.concatenate(norms)) / np.bincount(at)

    train_eval_final = evaluate_policy(cfg, problems, theta, eval_tag=1)

    heldout_eval = None
    if cfg.eval_problems > 0:
        heldout = [
            generate_problem(world_cfg, cfg.train_problems + i) for i in range(cfg.eval_problems)
        ]
        heldout_eval = evaluate_policy(cfg, heldout, init_student(cfg, heldout), eval_tag=2)

    return TrainReport(
        config=_config_echo(cfg, world_cfg),
        losses=losses,
        grad_norm_profile=norm_profile.tolist(),
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
    rng = derive_rng(seed, TAG_NORM_PROFILE, length, vocab)
    q_row = rng.dirichlet(np.ones(vocab))
    z_row = rng.standard_normal(vocab)
    teacher = np.tile(q_row, (length, 1))
    logits = np.tile(z_row, (length, 1))
    batch = RolloutBatch([teacher], [logits])
    grad = loss_gradient_wrt_student_logits(batch, objective, weighting, reduction)
    weights = token_weights(batch, weighting)
    norms = np.linalg.norm(grad, axis=1)
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
) -> tuple[dict, int]:
    """The 2x2 weighting-by-reduction factorial and the four-preset schedule
    sweep, each cell trained at `seeds` consecutive seeds; per-cell mean and
    sample standard deviation of the evaluation metrics. A configuration that
    appears in both (the moderate preset at the base reduction) is trained
    once and its report shared. The distinct trainings run on up to
    `threads` processes (`workers.map_sharded`); returns the table, which
    does not depend on `threads`, and the number of processes that trained it."""
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
