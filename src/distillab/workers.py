"""Fork-based sharding of independent items of work.

`map_sharded(fn, items, threads)` deals the items out to shards, runs shard 0
in the calling process and the others in children made with `os.fork()`, and
returns the results in item order. A shard stops at its first failing item
and returns what it got through with that failure; the exception of the
lowest failing item is raised in the caller with its class and message, as a
serial run would raise it. A child sends its shard's pickled result through
its own pipe and always leaves by `os._exit`, so it never runs the caller's
`finally` blocks, atexit handlers or stdout flushes. A child that ends
without a result, as one whose shard raised a `BaseException` that is not an
`Exception` does, raises `ChildProcessError` naming its exit status. On any
failure the remaining children are killed and every child is reaped. Without
`os.fork` the shards run one after another.

Shards must not depend on one another: every draw in this package comes from
its own tag-path generator, so a result does not depend on which process
computed it.

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


def _spawn(shard: Callable[[int], object], k: int) -> tuple[int, int]:
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
            data = pickle.dumps(shard(k), protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def map_sharded(
    fn: Callable[[U], T], items: Iterable[U], threads: int, finish: Callable[[list[T]], list] | None = None
) -> tuple[list, int]:
    """([fn(x) for x in items], workers), on `worker_count(threads, len(items))`
    processes; item i goes to shard i % workers, and results come back in item
    order. A shard stops at its first failing item, and the exception of the
    lowest failing item is raised, as a serial run would raise it.

    `finish`, when given, maps a shard's results (of the items it got through,
    in item order) to the values it sends back, one per result, in the shard's
    process; an exception from it counts as the shard's first item's."""
    items = list(items)
    workers = worker_count(threads, len(items))

    def shard(k: int) -> tuple[list, tuple[int, Exception] | None]:
        done, failure = [], None
        for i in range(k, len(items), workers):
            try:
                done.append(fn(items[i]))
            except Exception as exc:  # noqa: BLE001 - ordered against the other shards
                failure = (i, exc)
                break
        try:
            return (finish(done) if finish and done else done), failure
        except Exception as exc:  # noqa: BLE001 - charged to the shard's first item
            return done, (k, exc)

    serial = 1 if hasattr(os, "fork") else workers  # shards 0..serial-1 run in the calling process
    pending: list[tuple[int, int, int]] = []  # (shard, pid, read end) not yet reaped
    try:
        for k in range(serial, workers):
            pending.append((k, *_spawn(shard, k)))
        shards = [shard(k) for k in range(serial)]
        while pending:
            k, pid, read_fd = pending[0]
            with os.fdopen(read_fd, "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.pop(0)  # reaped: its pid may be reused, so it is never signalled
            if code != 0 or not data:
                how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(f"worker for shard {k} (pid {pid}) ended without a result: {how}")
            shards.append(pickle.loads(data))
    finally:
        for _k, pid, read_fd in pending:  # left over only when a shard failed
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(OSError):
                os.close(read_fd)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    failures = [failure for _, failure in shards if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results: list = [None] * len(items)
    for k, (done, _) in enumerate(shards):
        results[k::workers] = done
    return results, workers
