"""One distillab CLI invocation, with its timings written to a side file.

    python3 child.py RECORD_JSON MODE -- CLI_ARGV...

MODE is `setup` (import `distillab.cli` and exit), `run` (call its `main`
with CLI_ARGV, as the `distillab` console script does) or `trace` (the same,
with the wrappers in `workloads.WRAPS` installed). Stdout and stderr are the
CLI's own. The record holds CLOCK_MONOTONIC readings, which are comparable
with the parent's, so the parent can time set-up from the moment it spawned
this process.
"""
import json
import sys
import time


def _traced(cli_main):
    from perfbench.spans import Tracer
    from perfbench.workloads import WRAPS

    tracer = Tracer()
    for w in WRAPS:
        tracer.patch(w.module, w.attr, w.layer, count=w.count)
    return tracer, tracer.wrap("cli.main", cli_main)


def _trace_summary(tracer) -> dict:
    from perfbench.spans import has_ancestor, summarize

    spans = tracer.finished()
    root = next(i for i, s in enumerate(spans) if s.name == "cli.main")
    summary = summarize(spans, root)
    rollouts = [i for i, s in enumerate(spans) if s.name == "trainer.rollout_from_params"]
    counts = dict(tracer.counts)
    counts["trainer.rollout.useful"] = sum(
        has_ancestor(spans, i, frozenset({"trainer.train_step"})) for i in rollouts
    )
    counts["trainer.rollout.collected"] = sum(
        not has_ancestor(spans, i, frozenset({"trainer.evaluate_policy"})) for i in rollouts
    )
    summary["counts"] = counts
    summary["sites"] = dict(tracer.site_calls)
    return summary


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    (record_path, mode), cli_argv = args[:sep], args[sep + 1 :]
    from distillab.cli import main as cli_main

    record = {"ready": time.monotonic()}
    code = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            tracer, cli_main = _traced(cli_main)
        record["main_start"] = time.monotonic()
        code = cli_main(cli_argv)
        record["main_end"] = time.monotonic()
        record["code"] = code
        if tracer is not None:
            record["trace"] = _trace_summary(tracer)
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
