import json

import pytest

from perfbench.checks import check_run, load_reference, output_digests
from perfbench.run import Child, Run, Runner, tail_percentile
from perfbench.workloads import OUT

ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


def _train_output(tmp_path, losses=(0.5, 0.25), rel_err=1e-9):
    (tmp_path / OUT).mkdir()
    result = {"losses": list(losses), "fd_spot": {"max_rel_err": rel_err}}
    (tmp_path / OUT / "result.json").write_text(json.dumps(result))
    return b'{"final_loss": 0.25, "out": "out"}\n'


def test_matching_digests_pass(tmp_path):
    stdout = _train_output(tmp_path)
    expected = output_digests("train", tmp_path, stdout)
    _, reasons = check_run("train", tmp_path, stdout, 0, expected)
    assert reasons == []


@pytest.mark.parametrize("name", ["stdout", "result.json"])
def test_corrupted_digest_is_counted_as_a_failure(tmp_path, name):
    stdout = _train_output(tmp_path)
    expected = output_digests("train", tmp_path, stdout)
    expected[name] = ("0" if expected[name][0] != "0" else "1") + expected[name][1:]
    digests, reasons = check_run("train", tmp_path, stdout, 0, expected)
    assert len(reasons) == 1 and reasons[0].startswith(name)

    runner = Runner("train", 0, {})
    child = Child(0, 1.0, 100.0, {}, stdout, b"", 0.5, 0.5)
    runner.runs += [Run(child, digests, [], {}), Run(child, digests, reasons, {})]
    assert runner.failed == 1


def test_invariants_fail_on_any_seed(tmp_path):
    stdout = _train_output(tmp_path, losses=(0.5, float("nan")), rel_err=1e-3)
    _, reasons = check_run("train", tmp_path, stdout, 0, None)
    assert len(reasons) == 2

    bad = json.dumps({"max_rel_err": 2e-6, "compared": 10}).encode()
    assert check_run("gradcheck", tmp_path, bad, 0, None)[1]


def test_diagnose_interval_and_score_count(tmp_path):
    (tmp_path / OUT).mkdir()
    reports = {f"s{i}": {"point_auroc": 0.6, "ci": [0.5, 0.7]} for i in range(5)}
    reports["s0"]["ci"] = [0.8, 0.7]
    (tmp_path / OUT / "report.json").write_text(json.dumps({"reports": reports}))
    assert check_run("diagnose", tmp_path, b"{}", 0, None)[1] == ["s0: ci_low 0.8 > ci_high 0.7"]
    del reports["s1"]
    (tmp_path / OUT / "report.json").write_text(json.dumps({"reports": reports}))
    assert len(check_run("diagnose", tmp_path, b"{}", 0, None)[1]) == 2


def test_missing_output_and_nonzero_exit_fail(tmp_path):
    assert check_run("train", tmp_path, b"", 0, None)[1]
    assert check_run("gradcheck", tmp_path, b"", 2, None)[1] == ["exit code 2"]


def test_reference_from_other_library_versions_is_not_used(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({"env": ENV, "digests": {"train": {"0": {"stdout": "x"}}}}))
    assert load_reference(path, ENV) == ({"train": {"0": {"stdout": "x"}}}, None)
    digests, note = load_reference(path, dict(ENV, numpy="9.9.9"))
    assert digests == {} and "not used" in note


def test_tail_percentile_needs_ten_samples_above():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile(list(range(1, 21))) == (50, 10)
    assert tail_percentile(list(range(1, 101))) == (90, 90)
