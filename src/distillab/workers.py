"""Fork-based fan-out of independent shards of work.

`fan_out(fn, n)` runs `fn(0)` in the calling process and `fn(1)`..`fn(n-1)`
in children made with `os.fork()`, and returns the n results in shard order.
A child sends its pickled result, or the exception it raised, through its
own pipe and always leaves by `os._exit`, so it never runs the caller's
`finally` blocks, atexit handlers or stdout flushes. An exception from a
shard is re-raised in the caller with its class and message; the caller's
own shard wins, then the lowest failing child. A child that ends without a
result raises `ChildProcessError` naming its exit status. On any failure the
remaining children are killed and every child is reaped. Without `os.fork`
the shards run one after another.

`map_sharded(fn, items, threads)` deals the items out to shards and raises
the error of the lowest failing item, as a serial run would. Shards must not
depend on one another: every draw in this package comes from its own
tag-path generator, so a result does not depend on which process computed it.

Fork rather than a spawned pool: a child starts with the caller's imports
and memory, so it re-imports nothing and adds little resident memory. The
only other thread at fork time is OpenBLAS's idle pool, which OpenBLAS shuts
down before a fork through its own atfork handler.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")
U = TypeVar("U")


def worker_count(threads: int, shards: int) -> int:
    """Processes to use: `threads`, capped at the CPU count and the shard count."""
    return max(1, min(threads, os.cpu_count() or 1, shards))


def _spawn(fn: Callable[[int], object], k: int) -> tuple[int, int]:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, fn(k))
            except BaseException as exc:  # noqa: BLE001 - sent to the parent
                payload = (False, exc)
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _result(k: int, pid: int, data: bytes, code: int):
    if code != 0 or not data:
        how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(f"worker for shard {k} (pid {pid}) ended without a result: {how}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def fan_out(fn: Callable[[int], T], n: int) -> list[T]:
    """[fn(0), ..., fn(n-1)], with shards 1..n-1 computed in forked children."""
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(k) for k in range(n)]
    pending: list[tuple[int, int, int]] = []  # (shard, pid, read end) not yet reaped
    try:
        for k in range(1, n):
            pending.append((k, *_spawn(fn, k)))
        results = [fn(0)]
        while pending:
            k, pid, read_fd = pending[0]
            with os.fdopen(read_fd, "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(0)
            results.append(_result(k, pid, data, code))
        return results
    finally:
        _kill_and_reap(pending)  # left over only when a shard failed


def _kill_and_reap(children: list[tuple[int, int, int]]) -> None:
    for _k, pid, read_fd in children:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            os.close(read_fd)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def map_sharded(fn: Callable[[U], T], items: Iterable[U], threads: int) -> tuple[list[T], int]:
    """([fn(x) for x in items], workers), on `worker_count(threads, len(items))`
    processes; item i goes to shard i % workers, and results come back in item
    order. A shard stops at its first failing item, and the exception of the
    lowest failing item is raised, as a serial run would raise it."""
    items = list(items)
    workers = worker_count(threads, len(items))

    def shard(k: int) -> tuple[list[T], tuple[int, Exception] | None]:
        done = []
        for i in range(k, len(items), workers):
            try:
                done.append(fn(items[i]))
            except Exception as exc:  # noqa: BLE001 - ordered against the other shards
                return done, (i, exc)
        return done, None

    shards = fan_out(shard, workers)
    failures = [failure for _, failure in shards if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * len(items)
    for k, (done, _) in enumerate(shards):
        results[k::workers] = done
    return results, workers
