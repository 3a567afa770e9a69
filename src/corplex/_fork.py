"""The package's one way to fork: extract's and conflict's dump shares
(ingest._read_in_shares) and sharded n-gram counting run through it.  Only
a run in several processes imports this module."""

from __future__ import annotations

import codecs
import contextlib
import functools
import io
import os
import pickle
import signal
import tempfile
from collections import Counter
from typing import IO

from .errors import CorplexError

# raised again as themselves in the parent; any other error becomes RuntimeError
_CHILD_ERRORS = {cls.__name__: cls for cls in (CorplexError, OSError, AssertionError)}
_PIECE = 1 << 13  # bytes copied to out at a time: decoded, under malloc's mmap threshold
_spool = functools.partial(tempfile.TemporaryFile, "w+b")  # an unlinked file for one child


def run_jobs(jobs: list, out: IO[str] | None, warnings: Counter) -> list:
    """Each job's result, in job order, each job in its own process.

    job(stream, warnings) writes records to the text stream, adds to warnings
    and returns a picklable result.  Job 0 runs here, straight to out; each
    other in a forked child that writes its records, then its outcome, to a
    spool made before the fork, copied to out in turn.  So out, warnings, the
    first error and the results are those of the jobs run in turn here, as
    they are without os.fork or a spool.  No child outlives the call, and the
    caller runs one thread, since a child holds only the thread that forked.
    """
    with contextlib.ExitStack() as stack:  # closes every spool made
        try:
            spools = [stack.enter_context(_spool()) for _ in jobs[1:] if hasattr(os, "fork")]
        except OSError:  # no room for a spool
            spools = []
        if not spools:
            return [job(out, warnings) for job in jobs]
        pids: list[int] = []
        try:
            for spool, job in zip(spools, jobs[1:]):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        _run_child(job, spool)
                        code = 0
                    finally:
                        os._exit(code)  # never return into the parent's code, nor flush its buffers
                pids.append(pid)
            results = [jobs[0](out, warnings)]
            for spool in spools:
                results.append(_copy_spool(spool, os.waitpid(pids.pop(0), 0)[1], out, warnings))
            return results
        finally:  # children not reaped: the run failed
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)


def _run_child(job, spool: IO[bytes]) -> None:
    """In spool: where the records end (8 bytes, 0 until the outcome is
    written), the job's records, then its pickled outcome."""
    spool.write(bytes(8))
    records = io.TextIOWrapper(spool, encoding="utf-8", newline="\n")
    warnings: Counter = Counter()
    try:
        outcome = ("result", warnings, job(records, warnings))
    except Exception as exc:  # sent to the parent, which raises it
        name = next((name for name, cls in _CHILD_ERRORS.items() if isinstance(exc, cls)), None)
        outcome = ("error", name, f"{type(exc).__name__} in a forked process: {exc}"
                   if name is None else str(exc))
    records.flush()
    end = spool.tell()
    pickle.dump(outcome, spool, pickle.HIGHEST_PROTOCOL)
    spool.seek(0)
    spool.write(end.to_bytes(8, "little"))
    spool.flush()


def _copy_spool(spool: IO[bytes], status: int, out: IO[str] | None, warnings: Counter):
    """The records of a child that ended with wait status status copied to
    out, then its warnings added and its result returned, or its error raised."""
    spool.seek(0)
    left = int.from_bytes(spool.read(8), "little") - 8
    if status or left < 0:
        raise RuntimeError(f"a forked process ended without a result (wait status {status})")
    decode = codecs.getincrementaldecoder("utf-8")().decode
    while left > 0:
        piece = spool.read(min(left, _PIECE))
        left -= len(piece)
        out.write(decode(piece))
    kind, first, second = pickle.load(spool)
    if kind == "result":
        warnings.update(first)
        return second
    raise _CHILD_ERRORS.get(first, RuntimeError)(second)
