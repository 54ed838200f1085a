"""Deterministic artifact serialization: JSON with %.17g floats, one CSV
writer for curves and fields, and config hashing for run directories.

The CSV writer formats 4096 rows per ``%`` operation, and that formatting
holds the interpreter lock, so a batch of CSVs is spread over P processes.
Its blocks, taken file by file in order, are dealt round-robin: the parent
formats blocks 0, P, 2P, ... straight into the files, and forked worker k
formats blocks k, P + k, ... into a pipe, one length-prefixed segment per
block, which the parent copies into its file in bounded chunks when it
reaches that block.  A worker thus runs at most about one block ahead of
the parent, and neither side holds more than a block's text.  P is the
number of CPUs this process may run on (``os.sched_getaffinity``), capped
so that each process formats at least ``_MIN_SHARE`` floats and one block,
and 1 where ``os.fork`` does not exist; at P = 1 nothing is forked.  The bytes written
do not depend on P, and every worker is reaped before the writer returns
or raises.
"""

from __future__ import annotations

import hashlib
import os

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
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


class _Worker:
    """A forked process that formats its blocks into a pipe, in order."""

    def __init__(self, jobs, blocks, inherited):
        """Fork; ``blocks`` are (job index, first row) pairs and
        ``inherited`` the parent's read ends that the child closes."""
        self.code = None
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
            for j, start in blocks:
                text = _format_block(jobs[j][2], start)
                _send(w, len(text).to_bytes(8, "little"))
                _send(w, text)
            code = 0
        finally:
            os._exit(code)

    def _read(self, n):
        data = os.read(self.fd, n)
        if not data:
            raise OSError(f"CSV worker {self.pid} exited with code {self.reap()} "
                          "before sending its rows")
        return data

    def copy_block(self, out):
        """Copy the worker's next block into the binary file ``out``."""
        head = b""
        while len(head) < 8:
            head += self._read(8 - len(head))
        n = int.from_bytes(head, "little")
        while n:
            chunk = self._read(min(n, _PIPE_CHUNK))
            out.write(chunk)
            n -= len(chunk)

    def reap(self):
        """Close the pipe, wait for the process and return its exit code
        (-signal if a signal ended it)."""
        if self.code is None:
            os.close(self.fd)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code


def _n_processes(n_floats, n_blocks):
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_floats // _MIN_SHARE, n_blocks))


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
            workers.append(_Worker(jobs, blocks[k::p], [w.fd for w in workers]))
        i = 0
        for (path, header, columns), rows in zip(jobs, starts):
            with open(path, "wb") as fh:
                fh.write(header.encode() + b"\n")
                for start in rows:
                    if i % p:
                        workers[i % p - 1].copy_block(fh)
                    else:
                        fh.write(_format_block(columns, start))
                    i += 1
    finally:
        for w in workers:
            w.reap()


def write(path, header, columns):
    """One CSV: the one-job case of :func:`write_csvs`."""
    write_csvs([(path, header, columns)])


def write_field_csvs(fields, paths):
    """Snapshot CSVs with header s,re,im, one per field; the fields must
    share one grid, which is computed once."""
    fields = list(fields)
    boxes = {(f.domain_length, f.n_points, f.s0) for f in fields}
    if len(boxes) > 1:
        raise ValueError("snapshot fields on different grids")
    s = fields[0].grid() if fields else None
    write_csvs([(path, "s,re,im", [s, f.values.real, f.values.imag])
                for f, path in zip(fields, paths, strict=True)])


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
