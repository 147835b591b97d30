"""Every wrapped lookup site records calls on the workload it is listed for.

A wrapper patched into a module that does not look the name up records
nothing; this catches it. The workloads run traced at reduced sizes (later
flags override the workload's own), which exercise the same call sites.
"""
import pytest

from perfbench.run import spawn
from perfbench.workloads import COUNTS, LAYERS, WORKLOADS, WRAPS

SMALL = {
    "diagnose": ["--problems", "8", "--resamples", "40"],
    "train": ["--steps", "3", "--eval-samples", "2", "--eval-problems", "1"],
    "gradcheck": ["--batches", "2"],
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    out = {}
    for name, workload in WORKLOADS.items():
        cwd = tmp_path_factory.mktemp(name)
        child = spawn("trace", workload.argv(0) + SMALL[name], cwd)
        assert child.exit_code == 0, child.stderr.decode()
        out[name] = child.record["trace"]
    return out


@pytest.mark.parametrize("wrap", WRAPS, ids=lambda w: f"{w.module}.{w.attr}@{w.workload}")
def test_site_records_calls_on_its_workload(traces, wrap):
    assert traces[wrap.workload]["sites"].get(f"{wrap.module}.{wrap.attr}", 0) >= 1


def test_layers_and_counts_appear_only_where_expected(traces):
    for name, trace in traces.items():
        expected = {w.layer for w in WRAPS if w.workload == name}
        assert expected <= set(trace["layers"]) <= set(LAYERS) | {"cli.main"}
        assert set(trace["counts"]) <= set(COUNTS)
    assert traces["diagnose"]["counts"]["viability.candidates"] > 0
    assert traces["gradcheck"]["counts"]["objectives.fd_coords"] > 0
    assert traces["train"]["counts"]["trainer.rollout.useful"] == 3 * 8
