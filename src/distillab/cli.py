"""Command-line interface.

Subcommands: diagnose, identities, train, sweep, metrics, gradcheck, score.
All outputs are deterministic given the flags; the only timestamp lives in a
run_meta.json sidecar so the data files are byte-identical across reruns.
Errors are reported as single-line JSON on stderr with exit code 2 for
invalid input, bad configuration, or numeric-domain failures, and 3 for
degenerate inputs (not enough usable data to compute the request).

`--config FILE` supplies flags, required ones too, from a JSON object keyed
by flag destination (dashes as underscores); each entry is parsed as that
flag, with its checks, and flags given on the command line win. Unknown
keys and values other than numbers and strings (or lists of them for a
flag taking several) are rejected; a worker that dies without a result is
a WorkerError. `--threads N` (default: the CPU count) shards work over
forked processes in `diagnose` (its problems), `sweep` (its distinct
trainings) and `gradcheck` (its batches), capped at the CPU count and the
number of units; the other commands run serially. No output depends on it:
`run_meta.json` records the workers actually used.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dists import as_rows, truncated_entropy
from .errors import DegenerateInputError, InvalidInputError, NumericDomainError
from .identities import (
    random_branch_mixture,
    random_sequence_model,
    sequence_identity_gap,
    token_identity_gap,
)
from .metrics import METRIC_KEYS, aggregate_metrics, score_problem, seed_spread
from .objectives import (
    ObjectiveConfig,
    Reduction,
    RolloutBatch,
    finite_difference_check,
)
from .seeding import RNG_ID, TAG_GRADCHECK, derive_rng
from .stats import BootstrapConfig
from .trainer import (
    TrainConfig,
    factorial_and_sweep,
    run_training,
    weighting_from_name,
)
from .uncertainty import score_ensemble
from .viability import FilterConfig
from .workers import map_sharded
from .world import WorldConfig, run_diagnostic


# Bound on gradcheck's batches * batch_size * max_len * vocab^2: a token costs about
# 0.41-0.46 us of CPU per vocab^2 on a 2-vCPU x86 host (0.44 s at vocab 1024, 1.9 s at 2048),
# so an allowed run costs at most about 45 s of CPU there, shared by its --threads workers.
GRADCHECK_WORK_LIMIT = 10**8
# Largest relative error a gradient check may report and pass (acceptance criterion 1).
GRADCHECK_TOLERANCE = 1e-6
# The DiagnosticReport fields that report.json holds
REPORT_FIELDS = ("world", "n_problems", "n_correct_spines", "label_counts", "reports", "params")


class _JsonArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}  # by dest, for --config
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):  # noqa: A003 - argparse API
        print(json.dumps({"error": "ConfigError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _print_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))  # text UTF-8 cannot hold fails before the file opens


def _csv_text(rows, **fmt) -> str:
    """`rows` as CSV text; `fmt` goes to csv.writer (lineterminator, say)."""
    buf = io.StringIO()
    csv.writer(buf, **fmt).writerows(rows)
    return buf.getvalue()


def _write_meta(out_dir: Path, argv: list[str], **extra) -> None:
    meta = {
        "argv": argv,
        "rng_id": RNG_ID,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "version": __version__,
        **extra,
    }
    _write_text(out_dir / "run_meta.json", _dump(meta) + "\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for diagnose, sweep and gradcheck (default: the CPU "
        "count), capped at the CPU count; outputs never depend on it",
    )


def _add_world_flags(p: argparse.ArgumentParser, seed_flag: str = "--seed") -> None:
    p.add_argument("--vocab", type=int, default=12)
    p.add_argument("--depth", type=int, default=48)
    p.add_argument("--branches", type=int, default=3)
    p.add_argument("--early", type=float, default=0.7, help="early dead fraction")
    p.add_argument("--late", type=float, default=0.05, help="late dead fraction")
    p.add_argument("--ambiguity", type=float, default=0.45)
    p.add_argument(seed_flag, type=int, default=0)


def _world_from(args: argparse.Namespace, seed_attr: str = "seed") -> WorldConfig:
    return WorldConfig(
        vocab_size=args.vocab,
        depth=args.depth,
        branch_count=args.branches,
        early_dead_fraction=args.early,
        late_dead_fraction=args.late,
        ambiguity_mass=args.ambiguity,
        seed=getattr(args, seed_attr),
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """World and training flags shared by train and sweep."""
    _add_world_flags(p, seed_flag="--world-seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=512.0)
    p.add_argument("--decay", type=str, default="linear", choices=["linear", "constant"])
    p.add_argument("--temperature", type=float, default=1.1)
    p.add_argument("--clip", type=float, default=0.05)
    p.add_argument("--train-problems", type=int, default=4)
    p.add_argument("--eval-problems", type=int, default=8)
    p.add_argument("--eval-samples", type=int, default=12)
    p.add_argument("--init-noise", type=float, default=0.05)
    p.add_argument("--out", type=str, default=None)
    _add_common(p)


def _add_objective_flags(p: argparse.ArgumentParser, weighting: str, reduction: str) -> None:
    """The weighting and reduction flags of train and gradcheck."""
    p.add_argument("--weighting", type=str, default=weighting)
    p.add_argument("--reduction", type=str, default=reduction, choices=[r.value for r in Reduction])


def _build_parser() -> tuple[_JsonArgumentParser, dict[str, _JsonArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = _JsonArgumentParser(prog="distillab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_JsonArgumentParser)

    d = sub.add_parser("diagnose", help="run the branch-viability probe on the synthetic world")
    _add_world_flags(d)
    d.add_argument("--out", type=str, required=True)
    d.add_argument("--problems", type=int, default=60)
    d.add_argument("--spacing", type=int, default=0, help="candidate spacing; 0 scales with depth")
    d.add_argument("--resamples", type=int, default=2000)
    d.add_argument("--members", type=int, default=5, help="ensemble members per candidate")
    d.add_argument("--perturb", type=float, default=0.1, help="ensemble logit noise scale")
    d.add_argument("--continuations", type=int, default=6, help="continuations per child")
    _add_common(d)
    d.set_defaults(run=_cmd_diagnose)

    i = sub.add_parser("identities", help="check mixture information identities on random models")
    i.add_argument("--trials", type=int, default=20)
    i.add_argument("--depth", type=int, default=3)
    i.add_argument("--alphabet", type=int, default=2)
    i.add_argument("--seed", type=int, default=0)
    _add_common(i)
    i.set_defaults(run=_cmd_identities)

    t = sub.add_parser("train", help="run the tabular distillation trainer")
    _add_train_flags(t)
    _add_objective_flags(t, "moderate", "per_sequence_mean")
    t.set_defaults(run=_cmd_train)

    s = sub.add_parser("sweep", help="weighting-by-reduction factorial plus schedule sweep")
    _add_train_flags(s)
    s.add_argument("--sweep-seeds", type=int, default=3)
    s.set_defaults(run=_cmd_sweep)

    m = sub.add_parser("metrics", help="grade multi-sample answer files")
    m.add_argument(
        "--in",
        dest="in_paths",
        type=str,
        nargs="+",
        required=True,
        help="JSONL file(s), one per seed, or - for stdin",
    )
    m.add_argument("--gold-field", type=str, default="gold")
    m.add_argument("--marker", type=str, default="\\boxed{")
    m.add_argument("--out", type=str, default=None, help="CSV file (default: stdout)")
    _add_common(m)
    m.set_defaults(run=_cmd_metrics)

    g = sub.add_parser(
        "gradcheck",
        help="finite-difference check of the analytic gradient",
        description="Exits 2 if batches * batch_size * max_len * vocab^2 > "
        f"{GRADCHECK_WORK_LIMIT:,} or --step is not a positive finite number, 2 if "
        f"max_rel_err exceeds {GRADCHECK_TOLERANCE:g}, and 3 if "
        "nothing was compared (every token has a term within 10 * step of the clip).",
    )
    g.add_argument("--batches", type=int, default=5)
    g.add_argument("--batch-size", type=int, default=4)
    g.add_argument("--vocab", type=int, default=32)
    g.add_argument("--max-len", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--temperature", type=float, default=1.1)
    g.add_argument("--clip", type=float, default=0.05)
    _add_objective_flags(g, "uniform", "global_token_mean")
    _add_common(g)
    g.set_defaults(run=_cmd_gradcheck)

    sc = sub.add_parser("score", help="uncertainty scores for one teacher ensemble")
    sc.add_argument("--in", dest="in_path", type=str, required=True, help="JSON file or -")
    sc.add_argument("--top-m", type=int, default=16)
    _add_common(sc)
    sc.set_defaults(run=_cmd_score)

    return parser, sub.choices


def _config_tokens(action: argparse.Action, key: str, value) -> list[str]:
    """The command-line tokens that set `action` to a config file's value:
    a number or a string, or a list of them for a flag that takes several."""
    values = value if isinstance(value, list) and action.nargs is not None else [value]
    if any(isinstance(v, bool) or not isinstance(v, (int, float, str)) for v in values):
        raise InvalidInputError(f"config key {key!r}: {json.dumps(value)} is not a number or string")
    flag = action.option_strings[0]
    return [f"{flag}={values[0]}"] if action.nargs is None else [flag, *map(str, values)]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's entries become flags placed before the
    user's own, so argparse checks them, explicit flags still win, and a
    required flag may come from the file (the first parse relaxes it)."""
    parser, commands = _build_parser()
    required = [a for sub in commands.values() for a in sub.flags.values() if a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    for action in required:
        action.required = True
    tokens = []
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # too deep
            raise InvalidInputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InvalidInputError("config file must hold a JSON object")
        flags = commands[args.command].flags
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest in ("config", "help") or dest not in flags:
                raise InvalidInputError(f"unknown config key {key!r}")
            tokens += _config_tokens(flags[dest], key, value)
    at = argv.index(args.command) + 1
    args = parser.parse_args(argv[:at] + tokens + argv[at:])
    if getattr(args, "threads", 1) < 1:
        raise InvalidInputError("--threads must be >= 1")
    return args


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from exc


def _cmd_diagnose(args: argparse.Namespace, argv: list[str]) -> int:
    world = _world_from(args)
    filter_cfg = FilterConfig(spacing=args.spacing) if args.spacing else None  # None: by depth
    out = Path(args.out)

    def write_samples(candidates_jsonl: str, spines_jsonl: str) -> None:
        # written before the statistics, so a late failure keeps them
        _write_text(out / "candidates.jsonl", candidates_jsonl)
        _write_text(out / "spines.jsonl", spines_jsonl)

    report = run_diagnostic(
        world,
        n_problems=args.problems,
        filter_cfg=filter_cfg,
        bootstrap_cfg=BootstrapConfig(resamples=args.resamples, seed=args.seed),
        ensemble_members=args.members,
        perturb_scale=args.perturb,
        continuations_per_child=args.continuations,
        on_samples=write_samples,
        threads=args.threads,
    )
    _write_text(out / "report.json", _dump({k: getattr(report, k) for k in REPORT_FIELDS}) + "\n")
    columns = ["bin_low", "bin_high", "n", "real_uncertain_rate", "ground_truth_reliable_rate"]
    # an empty bin's rates are None, which csv writes empty
    curve = [columns] + [[row[c] for c in columns] for row in report.position_curve]
    _write_text(out / "position_curve.csv", _csv_text(curve))
    _write_meta(out, argv, workers=report.workers)
    summary = {
        "out": str(out),
        "n_candidates": len(report.candidates),
        "label_counts": report.label_counts,
        "point_auroc": {name: rep["point_auroc"] for name, rep in report.reports.items()},
    }
    print(_dump(summary))
    return 0


def _cmd_identities(args: argparse.Namespace, argv: list[str]) -> int:
    if args.trials < 1:
        raise InvalidInputError("--trials must be >= 1")
    max_token_gap = 0.0
    max_seq_gap = 0.0
    for trial in range(args.trials):
        rng = derive_rng(args.seed, trial)
        mixture = random_branch_mixture(rng)
        student = rng.dirichlet(np.ones(mixture.components.shape[1]))
        max_token_gap = max(max_token_gap, token_identity_gap(mixture, student))
        model, student_levels = random_sequence_model(
            rng, depth=args.depth, alphabet=args.alphabet
        )
        max_seq_gap = max(max_seq_gap, sequence_identity_gap(model, student_levels))
    print(
        _dump(
            {
                "trials": args.trials,
                "depth": args.depth,
                "alphabet": args.alphabet,
                "max_token_gap": max_token_gap,
                "max_sequence_gap": max_seq_gap,
            }
        )
    )
    return 0


def _train_config(args: argparse.Namespace) -> tuple[WorldConfig, TrainConfig]:
    world = _world_from(args, seed_attr="world_seed")
    cfg = TrainConfig(
        learning_rate=args.lr,
        steps=args.steps,
        batch_sequences=args.batch,
        distill_temperature=args.temperature,
        clip_threshold=args.clip,
        weighting=weighting_from_name(
            getattr(args, "weighting", "moderate"), world.vocab_size
        ),
        reduction=Reduction(getattr(args, "reduction", "per_sequence_mean")),
        seed=args.seed,
        lr_decay=args.decay,
        train_problems=args.train_problems,
        eval_problems=args.eval_problems,
        eval_samples=args.eval_samples,
        init_noise=args.init_noise,
    )
    return world, cfg


def _cmd_train(args: argparse.Namespace, argv: list[str]) -> int:
    world, cfg = _train_config(args)
    report = run_training(cfg, world)
    payload = _dump(report.as_dict()) + "\n"
    if args.out:
        out = Path(args.out)
        _write_text(out / "result.json", payload)
        _write_meta(out, argv)
        print(_dump({"out": str(out), "final_loss": report.losses[-1]}))
    else:
        sys.stdout.write(payload)
    return 0


def _sweep_csv(table: dict, n: int) -> str:
    """summary.csv: per cell, each metric's mean and sd at n samples, then the final loss."""
    metrics = [f"{key[:-1]}{n}_{stat}" for key in METRIC_KEYS for stat in ("mean", "sd")]
    rows = [["kind", "config", *metrics, "final_loss_mean", "final_loss_sd"]]
    for kind in ("factorial", "sweep"):
        for name, cell in table[kind].items():
            s = cell["summary"]
            spread = [v for key in METRIC_KEYS for v in s["metric_spread"][key]]
            rows.append([kind, name, *spread, s["final_loss_mean"], s["final_loss_sd"]])
    return _csv_text(rows)


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    world, cfg = _train_config(args)
    table, workers = factorial_and_sweep(
        world, cfg, seeds=args.sweep_seeds, threads=args.threads
    )
    text = _dump(table) + "\n"
    if args.out:
        out = Path(args.out)
        _write_text(out / "sweep.json", text)
        _write_text(out / "summary.csv", _sweep_csv(table, cfg.eval_samples))
        _write_meta(out, argv, workers=workers)
        print(_dump({"out": str(out)}))
    else:
        sys.stdout.write(text)
    return 0


def _grade_file(raw: str, source: str, gold_field: str, marker: str) -> tuple[list, list]:
    """One JSONL file -> (CSV row tuples, per-problem metrics objects)."""
    rows = []
    per_problem = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InvalidInputError(f"{source} line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "samples" not in obj or gold_field not in obj:
            raise InvalidInputError(
                f"{source} line {lineno} must hold an object with samples and {gold_field!r}"
            )
        samples = obj["samples"]
        if not isinstance(samples, list) or not all(isinstance(s, str) for s in samples):
            raise InvalidInputError(f"{source} line {lineno}: samples must be a list of strings")
        pm = score_problem(samples, str(obj[gold_field]), marker=marker)
        per_problem.append(pm)
        problem_id = str(obj.get("problem_id", f"line{lineno}"))
        rows.append((source, problem_id, *(getattr(pm, key) for key in METRIC_KEYS)))
    if not per_problem:
        raise DegenerateInputError(f"no problems in {source}")
    return rows, per_problem


def _cmd_metrics(args: argparse.Namespace, argv: list[str]) -> int:
    if len(args.in_paths) > 1 and "-" in args.in_paths:
        raise InvalidInputError("stdin (-) can only be used as the single input")
    rows = [("source", "problem_id", *(key.removesuffix("_at_n") for key in METRIC_KEYS))]
    aggregates = []
    for path in args.in_paths:
        source = "stdin" if path == "-" else Path(path).name
        file_rows, per_problem = _grade_file(
            _read_input(path), source, args.gold_field, args.marker
        )
        rows.extend(file_rows)
        agg = aggregate_metrics(per_problem)
        aggregates.append(agg)
        rows.append((source, "aggregate", *(agg[key] for key in METRIC_KEYS)))
    if len(aggregates) > 1:
        spread = seed_spread(aggregates)
        for i, stat in enumerate(("mean", "sd")):
            rows.append(("across_seeds", stat, *(spread[key][i] for key in METRIC_KEYS)))
    text = _csv_text(rows, lineterminator="\n")
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)
        print(_dump({"out": args.out, "rows": len(rows) - 1}))
    return 0


def _cmd_gradcheck(args: argparse.Namespace, argv: list[str]) -> int:
    if args.batches < 1:
        raise InvalidInputError("--batches must be >= 1")
    if args.vocab < 2 or args.max_len < 1 or args.batch_size < 1:
        raise InvalidInputError("--vocab must be >= 2, --max-len and --batch-size >= 1")
    work = args.batches * args.batch_size * args.max_len * args.vocab**2
    if work > GRADCHECK_WORK_LIMIT:
        raise InvalidInputError(
            f"batches * batch_size * max_len * vocab^2 = {work:,} exceeds {GRADCHECK_WORK_LIMIT:,}"
        )
    objective = ObjectiveConfig(distill_temperature=args.temperature, clip_threshold=args.clip)
    weighting = weighting_from_name(args.weighting, args.vocab)
    reduction = Reduction(args.reduction)

    def check_batch(b: int):
        rng = derive_rng(args.seed, TAG_GRADCHECK, b)
        teacher = []
        logits = []
        for _ in range(args.batch_size):
            length = int(rng.integers(1, args.max_len + 1))
            teacher.append(rng.dirichlet(np.ones(args.vocab), size=length))
            logits.append(rng.standard_normal((length, args.vocab)))
        batch = RolloutBatch(teacher, logits)
        return finite_difference_check(batch, objective, weighting, reduction, step=args.step)

    # maxima and integer sums in batch order: the same totals whichever process checked a batch
    worst_rel = 0.0
    worst_abs = 0.0
    compared = 0
    skipped = 0
    for report in map_sharded(check_batch, range(args.batches), args.threads)[0]:
        worst_rel = max(worst_rel, report.max_rel_err)
        worst_abs = max(worst_abs, report.max_abs_err)
        compared += report.compared
        skipped += report.skipped_boundary_tokens
    if compared == 0:
        raise DegenerateInputError(
            f"nothing compared: each of the {skipped} tokens has a term within 10 * step of the clip"
        )
    if not worst_rel <= GRADCHECK_TOLERANCE:
        raise NumericDomainError(
            f"gradient check failed: max_rel_err {worst_rel!r} exceeds {GRADCHECK_TOLERANCE!r} "
            f"over {compared} compared coordinates"
        )
    print(
        _dump(
            {
                "batches": args.batches,
                "max_rel_err": worst_rel,
                "max_abs_err": worst_abs,
                "compared": compared,
                "skipped_boundary_tokens": skipped,
            }
        )
    )
    return 0


def _json_array(value, dtype, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # strings, objects, ragged rows
        raise InvalidInputError(f"{name} is not a rectangular array of numbers: {exc}") from exc


def _cmd_score(args: argparse.Namespace, argv: list[str]) -> int:
    raw = _read_input(args.in_path)
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "members" not in obj:
        raise InvalidInputError("input must be a JSON object with a members field")
    members = _json_array(obj["members"], float, "members")
    if members.ndim != 2 or len(members) < 2:
        raise InvalidInputError(f"members must be a 2-D array of at least 2 distributions, got shape {members.shape}")
    mask = obj.get("valid_mask")
    if mask is None:
        valid = np.ones(members.shape[1], dtype=bool)
    else:
        valid = _json_array(mask, bool, "valid_mask")
    if valid.shape != (members.shape[1],):
        raise InvalidInputError("valid_mask length must match the vocabulary")
    with np.errstate(all="ignore"):  # non-finite members or means are refused, without a warning
        as_rows(members, "members")  # before their mean is normalized
        mean_dist = members.mean(axis=0)
        mean_dist = mean_dist / mean_dist.sum()
        h_trunc = truncated_entropy(mean_dist, valid, args.top_m)
        scores = {**score_ensemble(members[None])[0], "truncated_entropy": h_trunc}
    print(_dump(scores))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.run(args, argv)
    except DegenerateInputError as exc:
        _print_error("DegenerateInputError", exc)
        return 3
    except NumericDomainError as exc:
        _print_error("NumericDomainError", exc)
        return 2
    except (InvalidInputError, UnicodeEncodeError) as exc:  # or input text UTF-8 cannot hold
        _print_error("InvalidInputError", exc)
        return 2
    except ChildProcessError as exc:  # a worker that died without a result
        _print_error("WorkerError", exc)
        return 2
    except OSError as exc:  # missing, unreadable or directory paths
        _print_error("ConfigError", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
