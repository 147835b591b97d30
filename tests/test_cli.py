import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "distillab.cli"]

TINY_WORLD = ["--vocab", "10", "--depth", "16", "--branches", "3"]
TINY_TRAIN = TINY_WORLD + [
    "--steps", "3", "--batch", "4", "--train-problems", "2",
    "--eval-problems", "1", "--eval-samples", "3",
]


def _run(args, stdin=None):
    return subprocess.run(
        CLI + args, input=stdin, capture_output=True, text=True, timeout=300
    )


def _seed_file(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return path


SEED0 = [
    {"problem_id": "a", "gold": "7", "samples": ["x \\boxed{7}", "\\boxed{8}"]},
    {"problem_id": "b", "gold": "3", "samples": ["\\boxed{3}", "\\boxed{3}"]},
]
SEED1 = [
    {"problem_id": "a", "gold": "7", "samples": ["\\boxed{9}", "\\boxed{7}"]},
    {"problem_id": "b", "gold": "3", "samples": ["nope", "\\boxed{3}"]},
]


def test_version_flag():
    res = _run(["--version"])
    assert res.returncode == 0
    assert res.stdout.strip()
    # the package runs as a module too
    pkg = subprocess.run(
        [sys.executable, "-m", "distillab", "--version"], capture_output=True, text=True, timeout=60
    )
    assert pkg.returncode == 0, pkg.stderr
    assert pkg.stdout == res.stdout


def test_identities_command_reports_tiny_gaps():
    res = _run(["identities", "--trials", "5"])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["trials"] == 5
    assert out["max_token_gap"] < 1e-12
    assert out["max_sequence_gap"] < 1e-10
    again = _run(["identities", "--trials", "5"])
    assert again.stdout == res.stdout


def test_gradcheck_command_meets_tolerance():
    res = _run(["gradcheck", "--batches", "3", "--vocab", "16", "--max-len", "8"])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["max_rel_err"] < 1e-6
    assert out["compared"] > 0


def test_gradcheck_rejects_work_above_the_limit(capsys):
    # about 3 hours of stencil work: refused before any of it starts
    from distillab.cli import GRADCHECK_WORK_LIMIT, main

    start = time.perf_counter()
    code = main(["gradcheck", "--vocab", "100000", "--max-len", "1", "--batch-size", "1", "--batches", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "InvalidInputError"
    assert f"{GRADCHECK_WORK_LIMIT:,}" in err["message"]
    assert captured.out == ""
    # the defaults and the benchmark's --batches 40 stay far below the limit
    assert 40 * 4 * 16 * 32**2 * 10 < GRADCHECK_WORK_LIMIT


_DEEP = "[" * 100_000 + "]" * 100_000  # nested past the JSON decoder's recursion limit
BAD_REQUESTS = {
    "gradcheck-step-nan": (["gradcheck", "--step", "nan"], "", 2, "InvalidInputError"),
    "gradcheck-step-inf": (["gradcheck", "--step", "inf"], "", 2, "InvalidInputError"),
    # every token lies within 10 * step of the clip: nothing is compared
    "gradcheck-step-1e300": (
        ["gradcheck", "--step", "1e300", "--batches", "1"], "", 3, "DegenerateInputError"
    ),
    # a gradient check that misses criterion 1's tolerance is not a success
    "gradcheck-failed-check": (
        ["gradcheck", "--temperature", "1e-300", "--batches", "1"], "", 2, "NumericDomainError"
    ),
    "gradcheck-failed-check-clip": (
        ["gradcheck", "--clip", "1e-300", "--temperature", "1e-5", "--batches", "1"], "", 2,
        "NumericDomainError",
    ),
    "score-string-member": (
        ["score", "--in", "-"], '{"members": [[0.5, "x"], [0.5, 0.5]]}', 2, "InvalidInputError"
    ),
    "score-object-members": (["score", "--in", "-"], '{"members": {"a": 1}}', 2, "InvalidInputError"),
    "score-one-member": (["score", "--in", "-"], '{"members": [[1.0, 0.0]]}', 2, "InvalidInputError"),
    "score-deep-json": (["score", "--in", "-"], _DEEP, 2, "InvalidInputError"),
    "metrics-deep-json": (["metrics", "--in", "-"], _DEEP, 2, "InvalidInputError"),
    "identities-negative-alphabet": (["identities", "--alphabet", "-1"], "", 2, "InvalidInputError"),
    # refused as the configuration is built, before a numpy warning
    "train-temperature-0": (["train", "--steps", "1", "--temperature", "0"], "", 2, "InvalidInputError"),
    "sweep-temperature-0": (["sweep", "--steps", "1", "--temperature", "0"], "", 2, "InvalidInputError"),
    "train-temperature-nan": (["train", "--steps", "1", "--temperature", "nan"], "", 2, "InvalidInputError"),
    # q^(1/T) underflows to 0 in every entry of some teacher row
    "train-temperature-1e-3": (["train", "--steps", "1", "--temperature", "1e-3"], "", 2, "InvalidInputError"),
    "train-init-noise-nan": (["train", "--steps", "1", "--init-noise", "nan"], "", 2, "InvalidInputError"),
    "train-init-noise-inf": (["train", "--steps", "1", "--init-noise", "inf"], "", 2, "InvalidInputError"),
    "train-init-noise-1e308": (
        ["train", "--steps", "1", "--init-noise", "1e308"], "", 2, "NumericDomainError"
    ),
    # the step drives student probabilities at T to exactly 0 under positive teacher ones
    "train-lr-1e300": (["train", "--lr", "1e300", "--steps", "3"], "", 2, "NumericDomainError"),
    # logits that overflow, or whose shift by the row max does: refused by name
    "diagnose-perturb-1e308": (
        ["diagnose", "--out", "d", "--perturb", "1e308", "--problems", "3"], "", 2, "InvalidInputError"
    ),
    # a problem id that UTF-8 cannot encode
    "metrics-lone-surrogate": (
        ["metrics", "--in", "-"], '{"gold": 1, "samples": ["a"], "problem_id": "\\ud800"}', 2,
        "InvalidInputError",
    ),
}


@pytest.mark.parametrize("argv, stdin, code, kind", BAD_REQUESTS.values(), ids=BAD_REQUESTS.keys())
def test_bad_requests_exit_with_one_json_line(monkeypatch, capsys, argv, stdin, code, kind):
    from distillab.cli import main

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)  # numpy's, which a CLI run prints
        assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines() + [str(w.message) for w in caught if w.category is RuntimeWarning]
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == kind
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, blamed",
    [
        (["train", "--temperature", "nan"], "distill_temperature"),
        (["sweep", "--temperature", "0"], "distill_temperature"),
        (["train", "--init-noise", "nan"], "init_noise"),
        (["train", "--init-noise", "inf"], "init_noise"),
        (["train", "--init-noise", "1e308"], "init_noise"),
        (["train", "--temperature", "1e-3"], "distill_temperature"),
        (["train", "--temperature", "1e-300"], "distill_temperature"),
    ],
)
def test_bad_train_flags_are_blamed_by_name(capsys, argv, blamed):
    # not the teacher rows or logits that the bad value later spoils
    from distillab.cli import main

    assert main(argv + ["--steps", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["message"].startswith(blamed)


@pytest.mark.parametrize(
    "members, complaint",
    [
        ("[[0, 0], [0, 0]]", "members[0] sums to 0.0"),
        ("[[Infinity, 1], [0.5, 0.5]]", "members[0] contains non-finite entries"),
        ("[[0.5, 0.5], [-0.5, 1.5]]", "members[1] contains negative entries"),
    ],
)
def test_score_names_members_that_are_not_distributions(monkeypatch, capsys, members, complaint):
    # checked before the mean is normalized, whose failure named the truncated entropy
    from distillab.cli import main

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"members": ' + members + "}"))
    assert main(["score", "--in", "-"]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "InvalidInputError"
    assert err["message"].startswith(complaint)
    assert captured.out == ""


def test_gradcheck_tolerance_is_criterion_one():
    from distillab.cli import GRADCHECK_TOLERANCE

    assert GRADCHECK_TOLERANCE == 1e-6


def _sharded_gradcheck(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr, workers used) of one in-process run."""
    import distillab.cli as cli
    from distillab.workers import map_sharded

    used = []

    def spy(fn, items, threads):
        results, workers = map_sharded(fn, items, threads)
        used.append(workers)
        return results, workers

    monkeypatch.setattr(cli, "map_sharded", spy)
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, used


@pytest.mark.parametrize("weighting", ["uniform", "sharp", "entropy_gate:3.0"])
@pytest.mark.parametrize("reduction", ["global_token_mean", "per_sequence_mean"])
def test_gradcheck_stdout_does_not_depend_on_threads(monkeypatch, capsys, weighting, reduction):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # fork even on a one-CPU host
    argv = ["gradcheck", "--batches", "3", "--vocab", "12", "--max-len", "6",
            "--weighting", weighting, "--reduction", reduction]
    runs = {t: _sharded_gradcheck(monkeypatch, capsys, argv + ["--threads", t]) for t in ("1", "2", "8")}
    assert [run[3] for run in runs.values()] == [[1], [2], [3]]  # capped at the 3 batches
    assert all(run[:3] == runs["1"][:3] for run in runs.values())
    assert runs["1"][0] == 0 and runs["1"][2] == ""
    assert json.loads(runs["1"][1])["compared"] > 0


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["--temperature", "1e-300"], 2, "NumericDomainError"),
        (["--step", "1e300"], 3, "DegenerateInputError"),  # nothing compared
    ],
)
def test_gradcheck_failures_do_not_depend_on_threads(monkeypatch, capsys, argv, code, kind):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    argv = ["gradcheck", "--batches", "3", *argv]
    one, two = (_sharded_gradcheck(monkeypatch, capsys, argv + ["--threads", t]) for t in ("1", "2"))
    assert (one[3], two[3]) == ([1], [2])
    assert one[:3] == two[:3]
    assert one[0] == code and one[1] == ""
    lines = one[2].splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == kind


def test_threads_defaults_to_the_cpu_count(monkeypatch):
    from distillab.cli import _parse_args

    assert _parse_args(["gradcheck"]).threads == (os.cpu_count() or 1)
    for cpus, threads in ((5, 5), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert _parse_args(["gradcheck"]).threads == threads


def test_config_nested_too_deep_exits_two(tmp_path, capsys):
    from distillab.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": ' + _DEEP + "}", encoding="utf-8")
    assert main(["identities", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "InvalidInputError"
    assert captured.out == ""


def test_unencodable_output_leaves_no_file(tmp_path, monkeypatch, capsys):
    from distillab.cli import main

    out = tmp_path / "rows.csv"
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"gold": 1, "samples": ["a"], "problem_id": "\\ud800"}'))
    assert main(["metrics", "--in", "-", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInputError"
    assert not out.exists()


def test_score_command_from_file_and_stdin(tmp_path):
    payload = json.dumps({"members": [[0.6, 0.4], [0.5, 0.5], [0.7, 0.3]]})
    path = tmp_path / "ens.json"
    path.write_text(payload, encoding="utf-8")
    res = _run(["score", "--in", str(path)])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert set(out) == {"mean_entropy", "mutual_information", "log_kappa", "truncated_entropy"}
    piped = _run(["score", "--in", "-"], stdin=payload)
    assert piped.stdout == res.stdout


def test_metrics_single_file_csv(tmp_path):
    path = _seed_file(tmp_path, "seed0.jsonl", SEED0)
    res = _run(["metrics", "--in", str(path)])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "source,problem_id,avg,pass,maj"
    assert lines[1] == "seed0.jsonl,a,0.5,1.0,1.0"
    assert lines[2] == "seed0.jsonl,b,1.0,1.0,1.0"
    assert lines[3] == "seed0.jsonl,aggregate,0.75,1.0,1.0"
    assert len(lines) == 4


def test_metrics_csv_quotes_fields_that_need_it(tmp_path):
    ids = ["a,b", 'q"x', "line\nbreak", "plain"]
    lines = [
        {"problem_id": pid, "gold": "7", "samples": ["\\boxed{7}", "\\boxed{8}"]} for pid in ids
    ]
    path = _seed_file(tmp_path, "odd,name.jsonl", lines)
    res = _run(["metrics", "--in", str(path)])
    assert res.returncode == 0, res.stderr
    rows = list(csv.reader(io.StringIO(res.stdout, newline="")))
    assert rows[0] == ["source", "problem_id", "avg", "pass", "maj"]
    assert all(len(row) == 5 for row in rows)
    assert [row[1] for row in rows[1:]] == ids + ["aggregate"]
    assert {row[0] for row in rows[1:]} == {"odd,name.jsonl"}
    assert '"odd,name.jsonl",plain,0.5,1.0,1.0\n' in res.stdout


def test_metrics_multi_file_adds_seed_spread(tmp_path):
    p0 = _seed_file(tmp_path, "seed0.jsonl", SEED0)
    p1 = _seed_file(tmp_path, "seed1.jsonl", SEED1)
    res = _run(["metrics", "--in", str(p0), str(p1)])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[-2].startswith("across_seeds,mean,")
    assert lines[-1].startswith("across_seeds,sd,")
    mean_cells = lines[-2].split(",")
    assert mean_cells[2] == "0.625"  # avg: (0.75 + 0.5) / 2
    assert mean_cells[3] == "1.0"
    assert mean_cells[4] == "0.5"  # maj: (1.0 + 0.0) / 2
    sd_cells = lines[-1].split(",")
    assert abs(float(sd_cells[2]) - 0.1767766952966369) < 1e-15
    assert float(sd_cells[3]) == 0.0


def test_metrics_stdin_and_out_file(tmp_path):
    raw = "".join(json.dumps(obj) + "\n" for obj in SEED0)
    res = _run(["metrics", "--in", "-"], stdin=raw)
    assert res.returncode == 0
    assert res.stdout.splitlines()[1].startswith("stdin,a,")
    out_csv = tmp_path / "m.csv"
    res2 = _run(["metrics", "--in", "-", "--out", str(out_csv)], stdin=raw)
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["rows"] == 3
    assert out_csv.read_text(encoding="utf-8").splitlines()[0] == "source,problem_id,avg,pass,maj"


def test_metrics_gold_field_flag(tmp_path):
    path = _seed_file(
        tmp_path, "alt.jsonl",
        [{"problem_id": "a", "answer": "7", "samples": ["\\boxed{7}"]}],
    )
    res = _run(["metrics", "--in", str(path), "--gold-field", "answer"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1] == "alt.jsonl,a,1.0,1.0,1.0"
    # without the flag the default field is missing: invalid input
    res2 = _run(["metrics", "--in", str(path)])
    assert res2.returncode == 2


def test_metrics_error_paths(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    res = _run(["metrics", "--in", str(bad)])
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "InvalidInputError"

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    res2 = _run(["metrics", "--in", str(empty)])
    assert res2.returncode == 3
    assert json.loads(res2.stderr)["error"] == "DegenerateInputError"

    res3 = _run(["metrics", "--in", str(empty), "-"])
    assert res3.returncode == 2

    res4 = _run(["metrics", "--in", str(tmp_path / "missing.jsonl")])
    assert res4.returncode == 2


def _assert_json_error_exit_two(res):
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_metrics_directory_input_exits_two(tmp_path):
    _assert_json_error_exit_two(_run(["metrics", "--in", str(tmp_path)]))


def test_metrics_non_utf8_input_exits_two(tmp_path):
    raw = tmp_path / "latin1.jsonl"
    raw.write_bytes(b'{"gold": "\xe9", "samples": []}\n\xff\xfe\n')
    _assert_json_error_exit_two(_run(["metrics", "--in", str(raw)]))


def test_train_unparseable_gate_threshold_exits_two():
    for weighting in ("entropy_gate:abc", "entropy_gatexyz"):
        res = _run(["train", "--weighting", weighting] + TINY_TRAIN)
        _assert_json_error_exit_two(res)
        assert json.loads(res.stderr)["error"] == "InvalidInputError"


def test_train_non_finite_logits_exit_two(monkeypatch, capsys):
    # no flag value drives the logits non-finite, so fake the end-of-training check
    from distillab.cli import main
    from distillab.trainer import StudentParams

    monkeypatch.setattr(StudentParams, "logits_finite", lambda self: False)
    code = main(["train"] + TINY_TRAIN)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "NumericDomainError"
    assert "in 3 steps" in err["message"]
    assert captured.out == ""


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, distillab.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_import_loads_numpy_random_and_no_scipy():
    code = (
        "import sys, distillab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print('numpy.random' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True"]


def test_diagnose_late_failure_keeps_sampled_data(tmp_path):
    # no dead branches: every candidate gets one label, so the AUROC fails
    # after every continuation has run
    out = tmp_path / "diag"
    res = _run(["diagnose"] + TINY_WORLD + [
        "--depth", "24", "--problems", "8", "--resamples", "50", "--members", "3",
        "--continuations", "3", "--early", "0", "--late", "0", "--out", str(out),
    ])
    assert res.returncode == 3
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "DegenerateInputError", "message": "AUROC needs both label classes",
    }
    assert res.stdout == ""
    assert sorted(p.name for p in out.iterdir()) == ["candidates.jsonl", "spines.jsonl"]
    spines = (out / "spines.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(spines) == 8
    candidates = [
        json.loads(line) for line in (out / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert candidates
    assert len({c["label"] for c in candidates} - {"gray"}) == 1
    assert all(c["scores"] for c in candidates)


def test_unknown_flag_exits_two():
    res = _run(["identities", "--bogus", "1"])
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "ConfigError"


def test_train_stdout_mode_and_out_dir(tmp_path):
    res = _run(["train"] + TINY_TRAIN)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert len(report["losses"]) == 3
    assert report["config"]["weighting"] == "moderate"
    assert report["fd_spot"]["max_rel_err"] < 1e-6

    out = tmp_path / "run"
    res2 = _run(["train"] + TINY_TRAIN + ["--out", str(out)])
    assert res2.returncode == 0, res2.stderr
    summary = json.loads(res2.stdout)
    assert summary["out"] == str(out)
    written = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert written == report
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    assert "rng_id" in meta and "argv" in meta


def test_train_output_is_run_to_run_identical():
    a = _run(["train"] + TINY_TRAIN)
    b = _run(["train"] + TINY_TRAIN)
    assert a.stdout == b.stdout


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 4}), encoding="utf-8")
    res = _run(["train"] + TINY_TRAIN[:-10] + [
        "--batch", "4", "--train-problems", "2", "--eval-problems", "1",
        "--eval-samples", "3", "--config", str(cfg),
    ])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["config"]["steps"] == 4
    # an explicit flag beats the config value
    res2 = _run(["train"] + TINY_TRAIN + ["--config", str(cfg)])
    assert json.loads(res2.stdout)["config"]["steps"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense_key": 1}), encoding="utf-8")
    res3 = _run(["train"] + TINY_TRAIN + ["--config", str(bad)])
    assert res3.returncode == 2
    assert json.loads(res3.stderr)["error"] == "InvalidInputError"
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    res4 = _run(["train"] + TINY_TRAIN + ["--config", str(notjson)])
    assert res4.returncode == 2


def test_config_file_can_supply_a_required_flag(tmp_path):
    args = ["diagnose"] + TINY_WORLD + [
        "--problems", "4", "--resamples", "20", "--members", "3", "--continuations", "2",
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "from_config")}), encoding="utf-8")
    res = _run(args + ["--config", str(cfg)])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["out"] == str(tmp_path / "from_config")
    for name in ("candidates.jsonl", "spines.jsonl", "report.json", "position_curve.csv"):
        assert (tmp_path / "from_config" / name).is_file()
    # an explicit --out still wins over the file
    res = _run(args + ["--config", str(cfg), "--out", str(tmp_path / "explicit")])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["out"] == str(tmp_path / "explicit")
    assert (tmp_path / "explicit" / "report.json").is_file()
    # the same for metrics' --in, whose config key is its dest
    answers = _seed_file(tmp_path, "seed0.jsonl", SEED0)
    cfg.write_text(json.dumps({"in_paths": [str(answers)]}), encoding="utf-8")
    res = _run(["metrics", "--config", str(cfg)])
    assert res.returncode == 0, res.stderr
    assert res.stdout == _run(["metrics", "--in", str(answers)]).stdout
    # given neither on the command line nor in the file, it is still required
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"problems": 4}), encoding="utf-8")
    for argv in (args + ["--config", str(other)], args):
        res = _run(argv)
        assert res.returncode == 2
        assert json.loads(res.stderr) == {
            "error": "ConfigError",
            "message": "the following arguments are required: --out",
        }


def test_diagnose_writes_all_artifacts(tmp_path):
    out = tmp_path / "diag"
    args = ["diagnose"] + TINY_WORLD + [
        "--depth", "24", "--problems", "8", "--resamples", "50",
        "--members", "3", "--continuations", "3", "--out", str(out),
    ]
    res = _run(args)
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert sum(summary["label_counts"].values()) == summary["n_candidates"]
    for name in ("candidates.jsonl", "spines.jsonl", "report.json",
                 "position_curve.csv", "run_meta.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(report["reports"]) == {
        "oriented_position", "truncated_entropy", "mean_entropy",
        "mutual_information", "log_kappa",
    }
    curve = (out / "position_curve.csv").read_text(encoding="utf-8").splitlines()
    assert curve[0] == "bin_low,bin_high,n,real_uncertain_rate,ground_truth_reliable_rate"
    assert len(curve) == 11


def test_diagnose_threads_flag_does_not_change_output(tmp_path):
    base = ["diagnose"] + TINY_WORLD + [
        "--depth", "24", "--problems", "6", "--resamples", "30",
        "--members", "3", "--continuations", "2",
    ]
    a = _run(base + ["--out", str(tmp_path / "a"), "--threads", "1"])
    b = _run(base + ["--out", str(tmp_path / "b"), "--threads", "8"])
    assert a.returncode == 0 and b.returncode == 0
    for name in ("candidates.jsonl", "spines.jsonl", "report.json", "position_curve.csv"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb, name


def _diagnose_in(monkeypatch, capsys, run_dir, argv):
    """(exit code, stdout, stderr, data files' bytes) of one in-process
    diagnose run writing to `out` under `run_dir`."""
    from distillab.cli import main

    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    code = main(argv + ["--out", "out"])
    captured = capsys.readouterr()
    names = ("candidates.jsonl", "spines.jsonl", "report.json", "position_curve.csv")
    files = [(run_dir / "out" / name).read_bytes() for name in names if (run_dir / "out" / name).exists()]
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("flags", [[], ["--perturb", "0"], ["--continuations", "2"]])
def test_diagnose_outputs_do_not_depend_on_threads(monkeypatch, capsys, tmp_path, flags):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # fork even on a one-CPU host
    argv = ["diagnose", "--problems", "9", "--members", "3", "--perturb", "3", *flags]
    runs = [_diagnose_in(monkeypatch, capsys, tmp_path / t, argv + ["--threads", t]) for t in ("1", "2", "3")]
    assert runs[0][0] == 0 and runs[0][2] == "" and len(runs[0][3]) == 4
    assert runs[1] == runs[0] and runs[2] == runs[0]
    meta = [json.loads((tmp_path / t / "out" / "run_meta.json").read_text(encoding="utf-8")) for t in ("1", "2", "3")]
    assert [m["workers"] for m in meta] == [1, 2, 3]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--perturb", "1e308"], "perturb_scale 1e+308 overflows the ensemble logits"),
        (["--continuations", "0"], "attempts must be >= 1, got 0"),
        # the continuations run before the ensembles, in every process
        (["--perturb", "1e308", "--continuations", "0"], "attempts must be >= 1, got 0"),
    ],
)
def test_diagnose_failures_do_not_depend_on_threads(monkeypatch, capsys, tmp_path, flags, message):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    argv = ["diagnose", "--problems", "9", *flags]
    one, two = (_diagnose_in(monkeypatch, capsys, tmp_path / t, argv + ["--threads", t]) for t in ("1", "2"))
    assert one == two
    assert one[0] == 2 and one[1] == "" and one[3] == []
    assert one[2].splitlines() == [json.dumps({"error": "InvalidInputError", "message": message})]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--members", "1"], "members must be >= 2, got 1"),
        (["--perturb", "-1"], "perturb_scale must be >= 0, got -1.0"),
        (["--continuations", "0"], "attempts must be >= 1, got 0"),
        (["--perturb", "nan"], "perturb_scale nan overflows the ensemble logits"),
        (["--perturb", "inf"], "perturb_scale inf overflows the ensemble logits"),
    ],
)
def test_bad_ensemble_and_continuation_flags_are_refused_before_probing(monkeypatch, capsys, tmp_path, flags, message):
    # a world with no candidates: a probe would end in "no candidates" (exit 3), after writing two files
    argv = ["diagnose", "--ambiguity", "0.01", "--problems", "4", *flags]
    code, out, err, files = _diagnose_in(monkeypatch, capsys, tmp_path / "run", argv)
    assert (code, out, files) == (2, "", [])
    assert err.splitlines() == [json.dumps({"error": "InvalidInputError", "message": message})]
    assert not (tmp_path / "run" / "out").exists()


def test_flag_defaults_equal_the_defaults_they_set():
    # each default is stated twice, in the parser and in the config or signature it sets
    from distillab.cli import _parse_args, _train_config, _world_from
    from distillab.objectives import ObjectiveConfig
    from distillab.stats import BootstrapConfig
    from distillab.trainer import TrainConfig
    from distillab.world import WorldConfig, run_diagnostic

    diagnose = _parse_args(["diagnose", "--out", "o"])
    assert _world_from(diagnose) == WorldConfig()
    assert BootstrapConfig(resamples=diagnose.resamples, seed=diagnose.seed) == BootstrapConfig()
    # --threads picks only the process count and defaults to the CPU count
    flags = {
        "n_problems": diagnose.problems,
        "ensemble_members": diagnose.members,
        "perturb_scale": diagnose.perturb,
        "continuations_per_child": diagnose.continuations,
    }
    parameters = inspect.signature(run_diagnostic).parameters
    assert flags == {name: parameters[name].default for name in flags}
    # train's --weighting and --reduction included; sweep, which has neither flag, takes _train_config's fallbacks
    for command in ("train", "sweep"):
        assert _train_config(_parse_args([command])) == (WorldConfig(), TrainConfig())
    gradcheck = _parse_args(["gradcheck"])
    assert ObjectiveConfig(gradcheck.temperature, gradcheck.clip) == ObjectiveConfig() == TrainConfig().objective


def test_continuations_change_only_their_echo_in_the_report(monkeypatch, capsys, tmp_path):
    # every attempt of a child reads one outcome, so the flag moves no data
    argv = ["diagnose", "--problems", "9", "--members", "3", "--resamples", "200", "--threads", "1"]
    one, six = (_diagnose_in(monkeypatch, capsys, tmp_path / k, argv + ["--continuations", k]) for k in ("1", "6"))
    assert one[0] == six[0] == 0 and one[1:3] == six[1:3] and len(one[3]) == 4
    candidates, spines, report, curve = one[3]
    assert [candidates, spines, curve] == [six[3][0], six[3][1], six[3][3]]
    reports = [json.loads(run[3][2]) for run in (one, six)]
    assert [r["params"].pop("continuations_per_child") for r in reports] == [1, 6]
    assert reports[0] == reports[1]


def test_sweep_writes_json_and_csv(tmp_path):
    out = tmp_path / "sweep"
    res = _run(["sweep"] + TINY_WORLD + [
        "--steps", "2", "--batch", "2", "--train-problems", "2",
        "--eval-problems", "1", "--eval-samples", "2", "--sweep-seeds", "1",
        "--out", str(out),
    ])
    assert res.returncode == 0, res.stderr
    table = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert set(table["factorial"]) == {
        "uniform/global_token_mean", "uniform/per_sequence_mean",
        "moderate/global_token_mean", "moderate/per_sequence_mean",
    }
    assert set(table["sweep"]) == {"mild", "moderate", "sharp", "aggressive"}
    csv_lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("kind,config,")
    assert csv_lines[0].split(",")[2] == "avg_at_2_mean"  # --eval-samples 2
    assert len(csv_lines) == 9  # header + 4 factorial cells + 4 sweep rows


def _reference_sweep_csv(table):
    """The former cli._sweep_csv, whose header said 12 samples at any N."""
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


_CELL_NAMES = {
    "factorial": ["uniform/global_token_mean", "uniform/per_sequence_mean", "moderate/global_token_mean"],
    "sweep": ["mild", "moderate", "sharp", "aggressive"],
}


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(), min_size=56, max_size=56), n=st.integers(1, 30))
def test_sweep_csv_equals_the_replaced_writer(values, n):
    from distillab.cli import _sweep_csv

    numbers = iter(values)
    table = {"seeds": 3}
    for kind, names in _CELL_NAMES.items():
        table[kind] = {}
        for name in names:
            spread = {key: [next(numbers), next(numbers)] for key in ("avg_at_n", "pass_at_n", "maj_at_n")}
            summary = {"metric_spread": spread, "final_loss_mean": next(numbers), "final_loss_sd": next(numbers)}
            table[kind][name] = {"summary": summary}
    want = _reference_sweep_csv(table)
    assert _sweep_csv(table, 12) == want
    header, rows = _sweep_csv(table, n).split("\r\n", 1)
    assert header == want.split("\r\n", 1)[0].replace("_12_", f"_{n}_")
    assert rows == want.split("\r\n", 1)[1]


def test_sweep_threads_flag_does_not_change_output(tmp_path):
    base = ["sweep"] + TINY_WORLD + [
        "--steps", "2", "--batch", "2", "--train-problems", "2",
        "--eval-problems", "1", "--eval-samples", "2", "--sweep-seeds", "1",
    ]
    a = _run(base + ["--out", str(tmp_path / "a"), "--threads", "1"])
    b = _run(base + ["--out", str(tmp_path / "b"), "--threads", "2"])
    assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
    for name in ("sweep.json", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    meta = json.loads((tmp_path / "a" / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["workers"] == 1


def test_invalid_world_flag_value_exits_two():
    res = _run(["train"] + TINY_TRAIN + ["--vocab", "2"])
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "InvalidInputError"


@pytest.mark.parametrize(
    "entry, kind",
    [
        ({"reduction": "bogus"}, "ConfigError"),  # not one of the flag's choices
        ({"vocab": 12.5}, "ConfigError"),  # not an int
        ({"threads": [2]}, "InvalidInputError"),  # a list for a one-value flag
        ({"seed": True}, "InvalidInputError"),
        ({"seed": None}, "InvalidInputError"),
        ({"seed": {"value": 1}}, "InvalidInputError"),
    ],
)
def test_config_values_pass_the_flag_checks(tmp_path, entry, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry), encoding="utf-8")
    res = _run(["train"] + TINY_TRAIN + ["--config", str(cfg)])
    _assert_json_error_exit_two(res)
    assert json.loads(res.stderr)["error"] == kind
    assert res.stdout == ""


def test_config_values_are_converted_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"temperature": 1, "eval-samples": "2"}), encoding="utf-8")
    res = _run(["train"] + TINY_TRAIN[:-2] + ["--config", str(cfg)])
    assert res.returncode == 0, res.stderr
    config = json.loads(res.stdout)["config"]
    assert config["eval_samples"] == 2
    assert isinstance(config["distill_temperature"], float)
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"seed": "\xe9"}')
    _assert_json_error_exit_two(_run(["identities", "--config", str(bad)]))


def test_config_list_values_fill_a_flag_that_takes_several():
    from distillab.cli import _build_parser, _config_tokens

    _, commands = _build_parser()
    in_paths = commands["metrics"].flags["in_paths"]
    assert _config_tokens(in_paths, "in_paths", ["a.jsonl", "b.jsonl"]) == ["--in", "a.jsonl", "b.jsonl"]
    assert _config_tokens(in_paths, "in_paths", "a.jsonl") == ["--in", "a.jsonl"]
    assert _config_tokens(commands["train"].flags["lr"], "lr", 0.5) == ["--lr=0.5"]
