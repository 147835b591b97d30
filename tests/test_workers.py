import json
import os
import signal
import subprocess
import sys
import time

import pytest

from distillab.errors import DegenerateInputError, InvalidInputError, NumericDomainError
from distillab.workers import map_sharded, worker_count

TINY_DIAGNOSE = [
    "diagnose", "--vocab", "10", "--depth", "24", "--branches", "3", "--problems", "6",
    "--resamples", "30", "--members", "3", "--continuations", "2",
]


def test_worker_count_caps_at_cpus_and_shards(monkeypatch):
    # pure arithmetic: no process is started here
    monkeypatch.setattr(os, "fork", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert worker_count(100000, 60) == 2
    assert worker_count(1, 60) == 1
    assert worker_count(8, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count(100000, 60) == 60
    assert worker_count(8, 3) == 3
    assert worker_count(8, 60) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(100000, 60) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_sharded_returns_large_results_in_shard_order(monkeypatch, n):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    parent = os.getpid()
    results, workers = map_sharded(lambda k: (k, os.getpid(), [k] * (k * 50000)), range(n), n)
    assert workers == n
    assert [k for k, _, _ in results] == list(range(n))
    assert [len(big) for _, _, big in results] == [k * 50000 for k in range(n)]
    pids = [pid for _, pid, _ in results]
    assert pids[0] == parent  # shard 0 runs in the calling process
    assert len(set(pids)) == n


def test_map_sharded_keeps_item_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    parent = os.getpid()
    for n_items in (0, 1, 2, 5, 7):
        for threads in (1, 3, 8):
            got, workers = map_sharded(lambda x: (x * x, os.getpid()), range(n_items), threads)
            assert [sq for sq, _ in got] == [x * x for x in range(n_items)]
            pids = [pid for _, pid in got]
            assert len(set(pids)) == min(threads, 4, n_items)
            assert workers == max(1, min(threads, 4, n_items))
            assert pids[:1] in ([], [parent])  # item 0 runs in the calling process


def test_map_sharded_without_fork_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    parent = os.getpid()
    got = map_sharded(lambda x: (x, os.getpid()), range(3), 3)
    assert got == ([(0, parent), (1, parent), (2, parent)], 3)  # still 3 workers, as run_meta.json records


@pytest.mark.parametrize("cls", [InvalidInputError, DegenerateInputError, NumericDomainError])
def test_child_error_is_reraised_with_class_and_message(monkeypatch, cls):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def fn(k):
        if k == 2:
            assert os.getpid() != parent
            raise cls(f"shard {k} failed")
        return k

    parent = os.getpid()
    with pytest.raises(cls) as info:
        map_sharded(fn, range(3), 3)
    assert type(info.value) is cls
    assert str(info.value) == "shard 2 failed"


def test_lowest_failing_child_wins(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def fn(k):
        if k:
            raise InvalidInputError(f"shard {k}")
        return k

    with pytest.raises(InvalidInputError, match="^shard 1$"):
        map_sharded(fn, range(4), 4)


def test_map_sharded_raises_the_first_failing_item_at_any_thread_count(monkeypatch):
    # at 2 workers item 1 fails in a child and item 2 in the caller's own shard
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    errors = {1: DegenerateInputError, 2: NumericDomainError, 4: InvalidInputError}

    def fn(x):
        if x in errors:
            raise errors[x](f"item {x}")
        return x

    for threads in (1, 2, 3, 4):
        with pytest.raises(DegenerateInputError, match="^item 1$"):
            map_sharded(fn, range(6), threads)


def test_map_sharded_finish_maps_each_shard_in_its_own_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def finish(done):
        return [(x, len(done), os.getpid()) for x in done]

    for threads in (1, 3):
        got, workers = map_sharded(lambda x: x * x, range(7), threads, finish=finish)
        assert workers == threads
        assert [x for x, _, _ in got] == [i * i for i in range(7)]
        # shard k holds items k, k + workers, ...: its finish sees those alone
        assert [n for _, n, _ in got] == [len(range(i % workers, 7, workers)) for i in range(7)]
        pids = [pid for _, _, pid in got]
        assert pids[0] == os.getpid() and len(set(pids)) == workers
        assert all(pid == pids[i % workers] for i, pid in enumerate(pids))


def test_map_sharded_charges_a_finish_error_to_the_shards_first_item(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def fn(x):
        if x == 5:  # in shard 2 of 3, after item 2 is done
            raise NumericDomainError("item 5")
        return x

    def finish(done):
        if 1 in done:
            raise InvalidInputError("shard of item 1")
        return done

    # at 3 workers the finish of shard 1 counts as item 1's, before item 5
    with pytest.raises(InvalidInputError, match="^shard of item 1$"):
        map_sharded(fn, range(6), 3, finish=finish)
    # at 2 workers item 3 fails in shard 1, and item 4 in shard 0, whose
    # finish then fails too: that counts as item 0's, so it wins
    fails = {3: DegenerateInputError, 4: NumericDomainError}

    def fn_two(x):
        if x in fails:
            raise fails[x](f"item {x}")
        return x

    def finish_zero(done):
        if 0 in done:
            raise InvalidInputError("shard of item 0")
        return done

    with pytest.raises(InvalidInputError, match="^shard of item 0$"):
        map_sharded(fn_two, range(6), 2, finish=finish_zero)
    with pytest.raises(DegenerateInputError, match="^item 3$"):
        map_sharded(fn_two, range(6), 2, finish=lambda done: done)
    # at 1 worker the one shard stops at item 5, and its finish sees items 0-4
    with pytest.raises(InvalidInputError, match="^shard of item 1$"):
        map_sharded(fn, range(6), 1, finish=finish)
    with pytest.raises(NumericDomainError, match="^item 5$"):  # a finish that passes
        map_sharded(fn, range(6), 3, finish=lambda done: done)


def test_child_exit_without_result_raises_child_process_error(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def fn(k):
        if k == 1:
            os._exit(1)
        return k

    with pytest.raises(ChildProcessError, match="shard 1 .*without a result: exit status 1"):
        map_sharded(fn, range(2), 2)


def test_child_system_exit_ends_it_without_a_result(monkeypatch):
    # a BaseException that is not an Exception never crosses the fork: the
    # child leaves without a result, and the caller's shard is not stopped
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def fn(k):
        if k == 1:
            raise SystemExit(0)
        return k

    with pytest.raises(ChildProcessError, match="shard 1 .*without a result: exit status 1"):
        map_sharded(fn, range(2), 2)


def test_killed_child_raises_child_process_error(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def fn(k):
        if k == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    with pytest.raises(ChildProcessError, match="signal SIGKILL"):
        map_sharded(fn, range(2), 2)


class _Interrupt(BaseException):
    """Stands for KeyboardInterrupt: the one kind of failure a shard raises."""


def test_parent_shard_error_kills_and_reaps_children(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def fn(k):
        if k:
            (tmp_path / f"{k}.tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / f"{k}.tmp", tmp_path / f"{k}.pid")  # seen whole or not at all
            time.sleep(60)
            return k
        deadline = time.monotonic() + 30
        while len(list(tmp_path.glob("*.pid"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        raise _Interrupt("parent shard failed")

    start = time.monotonic()
    with pytest.raises(_Interrupt, match="parent shard failed"):
        map_sharded(fn, range(3), 3)
    assert time.monotonic() - start < 30
    pids = [int(p.read_text()) for p in sorted(tmp_path.glob("*.pid"))]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # already reaped


def _one_json_error(capsys) -> dict:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert captured.out == ""
    return json.loads(lines[0])


def test_cli_reports_a_child_error_as_one_json_line(monkeypatch, capsys, tmp_path):
    from distillab import world
    from distillab.cli import main

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    real = world._probe_problem

    def probe(cfg, index, *rest):
        if index == 3:  # problem 3 lands on shard 1, a child
            assert os.getpid() != parent
            raise DegenerateInputError("problem 3 is degenerate")
        return real(cfg, index, *rest)

    parent = os.getpid()
    monkeypatch.setattr(world, "_probe_problem", probe)
    code = main(TINY_DIAGNOSE + ["--out", str(tmp_path / "d"), "--threads", "2"])
    assert code == 3
    assert _one_json_error(capsys) == {
        "error": "DegenerateInputError", "message": "problem 3 is degenerate",
    }


def test_cli_reports_a_dead_child_as_one_json_line(monkeypatch, capsys, tmp_path):
    from distillab import world
    from distillab.cli import main

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    real = world._probe_problem

    def probe(cfg, index, *rest):
        if index == 3:
            os._exit(1)
        return real(cfg, index, *rest)

    monkeypatch.setattr(world, "_probe_problem", probe)
    code = main(TINY_DIAGNOSE + ["--out", str(tmp_path / "d"), "--threads", "2"])
    assert code == 2
    err = _one_json_error(capsys)
    assert err["error"] == "WorkerError"
    assert "shard 1" in err["message"] and "exit status 1" in err["message"]


def test_run_meta_records_workers_used(monkeypatch, capsys, tmp_path):
    from distillab.cli import main

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    out = tmp_path / "d"
    assert main(TINY_DIAGNOSE + ["--out", str(out), "--threads", "100000"]) == 0
    capsys.readouterr()
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["workers"] == 6  # one per problem, never more


def test_import_loads_no_process_pool():
    code = (
        "import sys, distillab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
