"""Deterministic artifact serialization: JSON with %.17g floats, one CSV
writer for curves, config hashing for run directories, and the package's
one forked worker.

``_Worker`` forks a process that runs one task with ``send``, which
pickles each object it is given (protocol 5: arrays travel as their raw
bytes) into a pipe; the parent loads them in order with ``recv``.  A
worker that exits before it has sent all it owes raises OSError, and every
caller reaps its workers before it returns or raises.  A caller forks at
most one process per CPU this process may run on (``_fork_cpus``:
``os.sched_getaffinity``, 1 where ``os.fork`` does not exist), and only for
work that outweighs a fork round trip of a few milliseconds.  Three
callers use it:

* The CSV writer.  It formats 4096 rows per ``%`` operation, and that
  formatting holds the interpreter lock, so a batch of CSVs is spread over
  P processes.  Its blocks, taken file by file in order, are dealt
  round-robin: the parent formats blocks 0, P, 2P, ... straight into the
  files, and worker k sends blocks k, P + k, ..., one message each, which
  the parent writes to its file when it reaches that block.  A worker thus
  runs at most about one block ahead of the parent.  P is capped so that
  each process formats at least ``_MIN_SHARE`` floats and one block; at
  P = 1 nothing is forked.
* ``spiral.spiral_profile`` and ``flow.stability_experiment``, through
  ``_beside``: each runs one independent half of its work in a worker
  (the profile's s <= 0 side, the stability run's Schrodinger stage) while
  it does the other half, and gets the worker's result, or the
  FilamentError it raised, back as one message.

The bytes written do not depend on the number of processes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pickle
import signal

import numpy as np

from .errors import FilamentError


def _fmt_float(x):
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _serialize(obj, parts):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, np.ndarray):
        _serialize(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _serialize(v, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            _serialize(str(k), parts)
            parts.append(": ")
            _serialize(v, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj):
    """Deterministic JSON: insertion-ordered keys, %.17g float formatting."""
    parts = []
    _serialize(obj, parts)
    return "".join(parts) + "\n"


def dump_json(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


_CSV_BLOCK = 4096      # rows formatted per % operation; bounds the string held
_MIN_SHARE = 1 << 16   # floats per process at least: a fork costs milliseconds


def _n_rows(columns):
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError("a CSV needs one or more columns of one length")
    return lengths.pop()


def _format_block(columns, start):
    """Rows ``start:start + _CSV_BLOCK`` of ``columns`` as %.17g CSV lines."""
    block = np.column_stack([c[start : start + _CSV_BLOCK] for c in columns])
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


class _Worker:
    """A forked process that runs ``task(send)`` and exits 0 when it
    returns; ``send(obj)`` pickles ``obj`` into a pipe whose read end the
    parent holds, and ``recv`` loads the objects in the order sent."""

    def __init__(self, name, task, inherited=()):
        """Fork; ``name`` names the worker in errors and ``inherited`` are
        the parent's read ends that the child closes."""
        self.name, self.code = name, None
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if self.pid:
            os.close(w)
            self.pipe = open(r, "rb")
            return
        # the child never returns: it leaves by os._exit, without running
        # the parent's handlers or flushing its buffers; a write to a
        # pipe whose reader has gone fails with EPIPE and ends it too
        code = 1
        try:
            for fd in (r, *inherited):
                os.close(fd)
            out = open(w, "wb")

            def send(obj):
                pickle.dump(obj, out, protocol=5)
                out.flush()

            task(send)
            code = 0
        finally:
            os._exit(code)

    def recv(self):
        """The next object the worker sent; OSError if it ended first."""
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            raise OSError(f"{self.name} {self.pid} exited with code {self.reap()} "
                          "before sending its rows") from None

    def reap(self, kill=False):
        """Close the pipe, wait for the process and return its exit code
        (-signal if a signal ended it); ``kill`` sends SIGKILL first, for
        a caller that is failing and will not read the rest."""
        if self.code is None:
            self.pipe.close()
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code


def _fork_cpus():
    """The CPUs this process may run on, 1 where ``os.fork`` or
    ``os.sched_getaffinity`` does not exist: the most processes worth
    forking."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _send_result(fn, send):
    """A ``_beside`` worker's task: send (True, ``fn()``), or (False, the
    FilamentError that ``fn`` raised)."""
    try:
        value = fn()
    except FilamentError as exc:
        send((False, exc))
    else:
        send((True, value))


@contextlib.contextmanager
def _beside(name, fn, worth_forking):
    """Yield a callable that returns ``fn()``.

    Where ``worth_forking`` holds and this process may run on two CPUs,
    ``fn`` starts at once in a worker named ``name``, and the callable
    waits for its result: a FilamentError that ``fn`` raised there is
    raised here as itself, and any other failure ends the worker with code
    1, an OSError here.  Otherwise the callable runs ``fn`` here.  A worker
    still running when the context exits, on a failure, is killed; it is
    always reaped.
    """
    if not worth_forking or _fork_cpus() < 2:
        yield fn
        return
    worker = _Worker(name, functools.partial(_send_result, fn))

    def result():
        ok, value = worker.recv()
        worker.reap()
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        worker.reap(kill=True)  # a no-op once the result has been read


def _send_blocks(jobs, blocks, send):
    """A CSV worker's task: send each (job index, first row) block of
    ``blocks``, formatted, as one message, in order."""
    for j, start in blocks:
        send(_format_block(jobs[j][2], start))


def _n_processes(n_floats, n_blocks):
    return max(1, min(_fork_cpus(), n_floats // _MIN_SHARE, n_blocks))


def write_csvs(jobs):
    """Write one CSV per ``(path, header, columns)`` job: the header line,
    then one row per index with one %.17g field per array in ``columns``.

    The rows are formatted by up to one process per CPU, as the module
    docstring describes; the files are the same bytes whatever that count.
    A worker that fails or is killed before it has sent its blocks raises
    OSError, and no worker outlives the call.
    """
    jobs = list(jobs)
    starts = [range(0, _n_rows(columns), _CSV_BLOCK) for _, _, columns in jobs]
    blocks = [(j, start) for j, rows in enumerate(starts) for start in rows]
    n_floats = sum(np.size(c) for _, _, columns in jobs for c in columns)
    p = _n_processes(n_floats, len(blocks))
    workers = []
    try:
        for k in range(1, p):
            workers.append(_Worker(
                "CSV worker", functools.partial(_send_blocks, jobs, blocks[k::p]),
                [w.pipe.fileno() for w in workers]))
        i = 0
        for (path, header, columns), rows in zip(jobs, starts):
            with open(path, "wb") as fh:
                fh.write(header.encode() + b"\n")
                for start in rows:
                    if i % p:
                        fh.write(workers[i % p - 1].recv())
                    else:
                        fh.write(_format_block(columns, start))
                    i += 1
    finally:
        for w in workers:
            w.reap()


def write(path, header, columns):
    """One CSV: the one-job case of :func:`write_csvs`."""
    write_csvs([(path, header, columns)])


def config_hash(params):
    """Short stable hash of a flat parameter mapping."""
    lines = []
    for k in sorted(params):
        v = params[k]
        if isinstance(v, (float, np.floating)):
            v = "%.17g" % float(v)
        lines.append(f"{k} = {v}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:12]
