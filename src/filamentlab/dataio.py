"""Deterministic artifact serialization: JSON with %.17g floats, one CSV
writer for curves, config hashing for run directories, and the package's
one forked worker.

``_Worker`` forks a process that runs one task with the write end of a
pipe, reads what it sends, and reaps it; a worker that exits before it has
sent all it owes raises OSError, and every caller reaps its workers before
it returns or raises.  A caller forks at most one process per CPU this
process may run on (``_fork_cpus``: ``os.sched_getaffinity``, 1 where
``os.fork`` does not exist), and only for work that outweighs a fork round
trip of a few milliseconds.  Three callers use it:

* The CSV writer.  It formats 4096 rows per ``%`` operation, and that
  formatting holds the interpreter lock, so a batch of CSVs is spread over
  P processes.  Its blocks, taken file by file in order, are dealt
  round-robin: the parent formats blocks 0, P, 2P, ... straight into the
  files, and worker k formats blocks k, P + k, ... into its pipe, one
  length-prefixed segment per block, which the parent copies into its file
  in bounded chunks when it reaches that block.  A worker thus runs at most
  about one block ahead of the parent, and neither side holds more than a
  block's text.  P is capped so that each process formats at least
  ``_MIN_SHARE`` floats and one block; at P = 1 nothing is forked.
* ``spiral.spiral_profile``, which runs the s <= 0 side of its profile in
  one worker (see ``spiral._sides``).
* ``flow.stability_experiment``, which runs its Schrodinger stage in one
  worker while it builds and evaluates the reference profile (see
  ``flow._stage``).

The bytes written do not depend on the number of processes.
"""

from __future__ import annotations

import functools
import hashlib
import os
import signal

import numpy as np


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
_PIPE_CHUNK = 1 << 20  # bytes copied from a worker's pipe at once


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


def _send(fd, data):
    """Write all of the C-contiguous buffer ``data`` to ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


class _Worker:
    """A forked process that runs ``task(fd)``, ``fd`` the write end of a
    pipe whose read end the parent holds, and exits 0 when it returns."""

    def __init__(self, name, task, inherited=()):
        """Fork; ``name`` names the worker in errors and ``inherited`` are
        the parent's read ends that the child closes."""
        self.name, self.code = name, None
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.fd)
            os.close(w)
            raise
        if self.pid:
            os.close(w)
            return
        # the child never returns: it leaves by os._exit, without running
        # the parent's handlers or flushing its buffers; a write to a
        # pipe whose reader has gone fails with EPIPE and ends it too
        code = 1
        try:
            for fd in (self.fd, *inherited):
                os.close(fd)
            task(w)
            code = 0
        finally:
            os._exit(code)

    def _ended(self):
        return OSError(f"{self.name} {self.pid} exited with code {self.reap()} "
                       "before sending its rows")

    def read(self, n):
        """At most ``n`` bytes, at least one, from the worker's pipe."""
        data = os.read(self.fd, n)
        if not data:
            raise self._ended()
        return data

    def readinto(self, buf):
        """Fill the C-contiguous buffer ``buf`` from the pipe; return it."""
        view = memoryview(buf).cast("B")
        while view:
            n = os.readv(self.fd, [view])
            if not n:
                raise self._ended()
            view = view[n:]
        return buf

    def reap(self, kill=False):
        """Close the pipe, wait for the process and return its exit code
        (-signal if a signal ended it); ``kill`` sends SIGKILL first, for
        a caller that is failing and will not read the rest."""
        if self.code is None:
            os.close(self.fd)
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


def _send_blocks(jobs, blocks, fd):
    """A CSV worker's task: each (job index, first row) block of ``blocks``
    as one 8-byte-length-prefixed segment, in order."""
    for j, start in blocks:
        text = _format_block(jobs[j][2], start)
        _send(fd, len(text).to_bytes(8, "little"))
        _send(fd, text)


def _copy_block(worker, out):
    """Copy a CSV worker's next block into the binary file ``out``."""
    n = int.from_bytes(worker.readinto(bytearray(8)), "little")
    while n:
        chunk = worker.read(min(n, _PIPE_CHUNK))
        out.write(chunk)
        n -= len(chunk)


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
            workers.append(_Worker("CSV worker", functools.partial(
                _send_blocks, jobs, blocks[k::p]), [w.fd for w in workers]))
        i = 0
        for (path, header, columns), rows in zip(jobs, starts):
            with open(path, "wb") as fh:
                fh.write(header.encode() + b"\n")
                for start in rows:
                    if i % p:
                        _copy_block(workers[i % p - 1], fh)
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
