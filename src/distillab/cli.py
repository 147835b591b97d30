"""Command-line interface.

Subcommands: diagnose, identities, train, sweep, metrics, gradcheck, score.
All outputs are deterministic given the flags; the only timestamp lives in a
run_meta.json sidecar so the data files are byte-identical across reruns.
Errors are reported as single-line JSON on stderr with exit code 2 for
invalid input, bad configuration, or numeric-domain failures, and 3 for
degenerate inputs (not enough usable data to compute the request).

`--config FILE` supplies defaults from a JSON object whose keys are flag
names (dashes as underscores); flags given on the command line win. Unknown
keys are rejected. `--threads N` shards work over forked processes in
`diagnose` (its problems) and `sweep` (its distinct trainings), capped at the
CPU count and the number of units; the other commands run serially. No
output depends on it: `run_meta.json` records the workers actually used.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dists import truncated_entropy
from .errors import DegenerateInputError, InvalidInputError, NumericDomainError
from .identities import (
    random_branch_mixture,
    random_sequence_model,
    sequence_identity_gap,
    token_identity_gap,
)
from .metrics import aggregate_metrics, grade_and_cluster, problem_metrics, seed_spread
from .objectives import (
    ObjectiveConfig,
    Reduction,
    RolloutBatch,
    finite_difference_check,
)
from .seeding import RNG_ID, derive_rng
from .stats import BootstrapConfig
from .trainer import (
    TrainConfig,
    factorial_and_sweep_with_workers,
    run_training,
    weighting_from_name,
)
from .uncertainty import score_ensemble
from .viability import FilterConfig
from .world import WorldConfig, default_filter_for_depth, run_diagnostic


class _JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        print(json.dumps({"error": "ConfigError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _print_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


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
        default=1,
        help="worker processes for diagnose and sweep, capped at the CPU count; "
        "outputs never depend on it",
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


def _build_parser() -> _JsonArgumentParser:
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

    i = sub.add_parser("identities", help="check mixture information identities on random models")
    i.add_argument("--trials", type=int, default=20)
    i.add_argument("--depth", type=int, default=3)
    i.add_argument("--alphabet", type=int, default=2)
    i.add_argument("--seed", type=int, default=0)
    _add_common(i)

    t = sub.add_parser("train", help="run the tabular distillation trainer")
    _add_world_flags(t, seed_flag="--world-seed")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--steps", type=int, default=100)
    t.add_argument("--batch", type=int, default=8)
    t.add_argument("--lr", type=float, default=512.0)
    t.add_argument("--decay", type=str, default="linear", choices=["linear", "constant"])
    t.add_argument("--temperature", type=float, default=1.1)
    t.add_argument("--clip", type=float, default=0.05)
    t.add_argument("--weighting", type=str, default="moderate")
    t.add_argument(
        "--reduction",
        type=str,
        default="per_sequence_mean",
        choices=[r.value for r in Reduction],
    )
    t.add_argument("--train-problems", type=int, default=4)
    t.add_argument("--eval-problems", type=int, default=8)
    t.add_argument("--eval-samples", type=int, default=12)
    t.add_argument("--init-noise", type=float, default=0.05)
    t.add_argument("--out", type=str, default=None)
    _add_common(t)

    s = sub.add_parser("sweep", help="weighting-by-reduction factorial plus schedule sweep")
    _add_world_flags(s, seed_flag="--world-seed")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--steps", type=int, default=100)
    s.add_argument("--batch", type=int, default=8)
    s.add_argument("--lr", type=float, default=512.0)
    s.add_argument("--decay", type=str, default="linear", choices=["linear", "constant"])
    s.add_argument("--temperature", type=float, default=1.1)
    s.add_argument("--clip", type=float, default=0.05)
    s.add_argument("--train-problems", type=int, default=4)
    s.add_argument("--eval-problems", type=int, default=8)
    s.add_argument("--eval-samples", type=int, default=12)
    s.add_argument("--init-noise", type=float, default=0.05)
    s.add_argument("--sweep-seeds", type=int, default=3)
    s.add_argument("--out", type=str, default=None)
    _add_common(s)

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

    g = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradient")
    g.add_argument("--batches", type=int, default=5)
    g.add_argument("--batch-size", type=int, default=4)
    g.add_argument("--vocab", type=int, default=32)
    g.add_argument("--max-len", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--temperature", type=float, default=1.1)
    g.add_argument("--clip", type=float, default=0.05)
    g.add_argument("--weighting", type=str, default="uniform")
    g.add_argument(
        "--reduction",
        type=str,
        default="global_token_mean",
        choices=[r.value for r in Reduction],
    )
    _add_common(g)

    sc = sub.add_parser("score", help="uncertainty scores for one teacher ensemble")
    sc.add_argument("--in", dest="in_path", type=str, required=True, help="JSON file or -")
    sc.add_argument("--top-m", type=int, default=16)
    _add_common(sc)

    return parser


def _merge_config(parser: _JsonArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        raw = Path(args.config).read_text(encoding="utf-8")
        try:
            overrides = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InvalidInputError("config file must hold a JSON object")
        known = set(vars(args))
        cleaned = {}
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest == "config" or dest not in known:
                raise InvalidInputError(f"unknown config key {key!r}")
            cleaned[dest] = value
        # reparse with config values as defaults so explicit flags still win
        fresh = _build_parser()
        for action in fresh._subparsers._group_actions:  # noqa: SLF001
            for sub in action.choices.values():
                sub.set_defaults(**{k: v for k, v in cleaned.items()})
        args = fresh.parse_args(argv)
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
    filter_cfg = (
        default_filter_for_depth(world.depth)
        if args.spacing == 0
        else FilterConfig(spacing=args.spacing)
    )
    out = Path(args.out)

    def write_samples(candidates, spines) -> None:
        # written before the statistics, so a late failure keeps them
        lines = [_dump(c.to_json_dict()) for c in candidates]
        _write_text(out / "candidates.jsonl", "".join(line + "\n" for line in lines))
        spine_lines = [_dump(s) for s in spines]
        _write_text(out / "spines.jsonl", "".join(line + "\n" for line in spine_lines))

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
    _write_text(
        out / "report.json",
        _dump(
            {
                "world": report.world,
                "n_problems": report.n_problems,
                "n_correct_spines": report.n_correct_spines,
                "label_counts": report.label_counts,
                "reports": report.reports,
                "params": report.params,
            }
        )
        + "\n",
    )
    curve_path = out / "position_curve.csv"
    curve_path.parent.mkdir(parents=True, exist_ok=True)
    with curve_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["bin_low", "bin_high", "n", "real_uncertain_rate", "ground_truth_reliable_rate"]
        )
        for row in report.position_curve:
            writer.writerow(
                [
                    row["bin_low"],
                    row["bin_high"],
                    row["n"],
                    "" if row["real_uncertain_rate"] is None else row["real_uncertain_rate"],
                    ""
                    if row["ground_truth_reliable_rate"] is None
                    else row["ground_truth_reliable_rate"],
                ]
            )
    _write_meta(out, argv, workers=report.workers)
    summary = {
        "out": str(out),
        "n_candidates": len(report.candidates),
        "label_counts": report.label_counts,
        "point_auroc": {name: rep["point_auroc"] for name, rep in report.reports.items()},
    }
    print(_dump(summary))
    return 0


def _cmd_identities(args: argparse.Namespace) -> int:
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


def _sweep_csv(table: dict) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "kind",
            "config",
            "avg_at_12_mean",
            "avg_at_12_sd",
            "pass_at_12_mean",
            "pass_at_12_sd",
            "maj_at_12_mean",
            "maj_at_12_sd",
            "final_loss_mean",
            "final_loss_sd",
        ]
    )
    for kind in ("factorial", "sweep"):
        for name, cell in table[kind].items():
            s = cell["summary"]
            ms = s["metric_spread"]
            writer.writerow(
                [
                    kind,
                    name,
                    ms["avg_at_n"][0],
                    ms["avg_at_n"][1],
                    ms["pass_at_n"][0],
                    ms["pass_at_n"][1],
                    ms["maj_at_n"][0],
                    ms["maj_at_n"][1],
                    s["final_loss_mean"],
                    s["final_loss_sd"],
                ]
            )
    return buf.getvalue()


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    world, cfg = _train_config(args)
    table, workers = factorial_and_sweep_with_workers(
        world, cfg, seeds=args.sweep_seeds, threads=args.threads
    )
    text = _dump(table) + "\n"
    if args.out:
        out = Path(args.out)
        _write_text(out / "sweep.json", text)
        _write_text(out / "summary.csv", _sweep_csv(table))
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
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{source} line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "samples" not in obj or gold_field not in obj:
            raise InvalidInputError(
                f"{source} line {lineno} must hold an object with samples and {gold_field!r}"
            )
        samples = obj["samples"]
        if not isinstance(samples, list) or not all(isinstance(s, str) for s in samples):
            raise InvalidInputError(f"{source} line {lineno}: samples must be a list of strings")
        grades = grade_and_cluster(samples, str(obj[gold_field]), marker=marker)
        pm = problem_metrics(grades)
        per_problem.append(pm)
        problem_id = str(obj.get("problem_id", f"line{lineno}"))
        rows.append((source, problem_id, pm.avg_at_n, pm.pass_at_n, pm.maj_at_n))
    if not per_problem:
        raise DegenerateInputError(f"no problems in {source}")
    return rows, per_problem


def _cmd_metrics(args: argparse.Namespace) -> int:
    if len(args.in_paths) > 1 and "-" in args.in_paths:
        raise InvalidInputError("stdin (-) can only be used as the single input")
    rows = [("source", "problem_id", "avg", "pass", "maj")]
    aggregates = []
    for path in args.in_paths:
        source = "stdin" if path == "-" else Path(path).name
        file_rows, per_problem = _grade_file(
            _read_input(path), source, args.gold_field, args.marker
        )
        rows.extend(file_rows)
        agg = aggregate_metrics(per_problem)
        aggregates.append(agg)
        rows.append((source, "aggregate", agg["avg_at_n"], agg["pass_at_n"], agg["maj_at_n"]))
    if len(aggregates) > 1:
        spread = seed_spread(aggregates)
        rows.append(
            (
                "across_seeds",
                "mean",
                spread["avg_at_n"][0],
                spread["pass_at_n"][0],
                spread["maj_at_n"][0],
            )
        )
        rows.append(
            (
                "across_seeds",
                "sd",
                spread["avg_at_n"][1],
                spread["pass_at_n"][1],
                spread["maj_at_n"][1],
            )
        )
    text = "\n".join(",".join(_csv_cell(c) for c in row) for row in rows) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)
        print(_dump({"out": args.out, "rows": len(rows) - 1}))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.batches < 1:
        raise InvalidInputError("--batches must be >= 1")
    if args.vocab < 2 or args.max_len < 1 or args.batch_size < 1:
        raise InvalidInputError("--vocab must be >= 2, --max-len and --batch-size >= 1")
    objective = ObjectiveConfig(distill_temperature=args.temperature, clip_threshold=args.clip)
    weighting = weighting_from_name(args.weighting, args.vocab)
    reduction = Reduction(args.reduction)
    worst_rel = 0.0
    worst_abs = 0.0
    compared = 0
    skipped = 0
    for b in range(args.batches):
        rng = derive_rng(args.seed, 9, b)
        teacher = []
        logits = []
        for _ in range(args.batch_size):
            length = int(rng.integers(1, args.max_len + 1))
            teacher.append(rng.dirichlet(np.ones(args.vocab), size=length))
            logits.append(rng.standard_normal((length, args.vocab)))
        batch = RolloutBatch(teacher, logits)
        report = finite_difference_check(batch, objective, weighting, reduction, step=args.step)
        worst_rel = max(worst_rel, report.max_rel_err)
        worst_abs = max(worst_abs, report.max_abs_err)
        compared += report.compared
        skipped += report.skipped_boundary_tokens
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


def _cmd_score(args: argparse.Namespace) -> int:
    raw = _read_input(args.in_path)
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "members" not in obj:
        raise InvalidInputError("input must be a JSON object with a members field")
    members = np.asarray(obj["members"], dtype=float)
    if members.ndim != 2:
        raise InvalidInputError("members must be a 2-D array of distributions")
    mask = obj.get("valid_mask")
    valid = (
        np.ones(members.shape[1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    )
    if valid.shape != (members.shape[1],):
        raise InvalidInputError("valid_mask length must match the vocabulary")
    mean_dist = members.mean(axis=0)
    mean_dist = mean_dist / mean_dist.sum()
    h_trunc = truncated_entropy(mean_dist, valid, args.top_m)
    record = score_ensemble(members, h_trunc)
    print(_dump(record.as_dict()))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = _merge_config(parser, argv)
        if args.command == "diagnose":
            return _cmd_diagnose(args, argv)
        if args.command == "identities":
            return _cmd_identities(args)
        if args.command == "train":
            return _cmd_train(args, argv)
        if args.command == "sweep":
            return _cmd_sweep(args, argv)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "score":
            return _cmd_score(args)
        raise InvalidInputError(f"unknown command {args.command!r}")
    except DegenerateInputError as exc:
        _print_error("DegenerateInputError", exc)
        return 3
    except NumericDomainError as exc:
        _print_error("NumericDomainError", exc)
        return 2
    except InvalidInputError as exc:
        _print_error("InvalidInputError", exc)
        return 2
    except OSError as exc:  # missing, unreadable or directory paths; a worker that died
        _print_error("ConfigError", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
