import json
import subprocess
import sys

import pytest

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
    assert len(csv_lines) == 9  # header + 4 factorial cells + 4 sweep rows


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
