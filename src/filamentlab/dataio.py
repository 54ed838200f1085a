"""Deterministic artifact serialization: JSON with %.17g floats, one CSV
writer for curves, config hashing for run directories, and the package's
one forked worker.

The worker protocol is one for every caller.  ``_beside`` runs a generator
function beside the caller: in a forked ``_Worker`` where that pays, else
in this process when its items are asked for.  A worker sends each item as
one protocol-5 pickle (arrays travel as their raw bytes) as soon as it is
made, then an end message that carries the FilamentError the generator
raised, if any, which the parent raises as itself.  A worker that exits
before its last message raises OSError, and one that is still running when
its context exits is killed; every worker is reaped.  A caller forks at
most one process per CPU this process may run on (``_fork_cpus``:
``os.sched_getaffinity``, 1 where ``os.fork`` does not exist), and only for
work that outweighs a fork round trip of a few milliseconds.  The items
are:

* The sizes of the CSV writer's texts.  It formats 4096 rows per ``%``
  operation, and that formatting holds the interpreter lock, so a batch of
  CSVs is spread over P processes.  Its blocks, taken file by file in the
  order they are written, are cut into P contiguous shares.  Each share is
  one ``_format_share`` generator over its own unlinked spill file, opened
  beside the first CSV before any fork: it formats its share into the
  spill and yields one item, the sizes of the texts it wrote there.  Share
  0 runs in this process and each other share in a worker, so a worker
  runs to the end of its share without waiting for the parent, and no
  text goes through a pipe.  Once the parent has written the shares before one, it
  reads that share's item and copies its texts from the spill into the
  files, one text at a time.  P is capped so that each process formats at
  least ``_MIN_SHARE`` floats and one block; at P = 1 nothing is forked.

  A mirrored job is a curve with a parity, such as the self-similar
  profile: it gives only the rows from its mirror node s = 0 upward, and
  the rows of s < 0 are ``parity * row + 0.0`` in reverse order.  One
  ``%`` per block formats the given rows with a marker before each odd
  field; dropping the markers gives the s >= 0 lines, and turning them
  into sign flips gives the s < 0 lines, which are written first, last
  block first.  The s >= 0 texts stay in their shares' spills meanwhile
  and are copied in block order once the s < 0 rows are written, so every
  text goes through one spill, once.
* The independent part of ``spiral.spiral_profile`` and of
  ``flow.stability_experiment``, which each caller reads while it does the
  rest of its work.  The spiral profile's s <= 0 side is one item; the
  stability run's Schrodinger stage yields two, its slices' (c, tau) rows
  once they are all read and its origin series at the end, and the caller
  integrates the slices in between.

The bytes written do not depend on the number of processes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import os
import pickle
import signal
import tempfile

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


def _mirror_text(text, start, zeros, nans):
    """The s < 0 lines of a mirrored block's marked ``text`` (rows from
    ``start``): each marked field negated, -0 and -nan printed as 0 and nan
    as ``+ 0.0`` gives, and the lines reversed, without the node at s = 0."""
    text = b"".join(text.split(b"~-")).replace(b"~", b"-")
    if zeros:
        text = text.replace(b"-0,", b"0,").replace(b"-0\n", b"0\n")
    if nans:
        text = text.replace(b"-nan", b"nan")
    lines = text[:-1].split(b"\n")[not start:]
    lines.reverse()
    return b"\n".join(lines) + b"\n" if lines else b""


def _format_block(job, start):
    """The texts of rows ``start:start + _CSV_BLOCK`` of a job's columns, in
    the order written: their %.17g CSV lines, or of a mirrored job, its
    s < 0 lines and its lines."""
    columns = job[2]
    parity = job[3] if len(job) > 3 else [1] * len(columns)
    block = np.column_stack([c[start : start + _CSV_BLOCK] for c in columns])
    row = ",".join("~%.17g" if p < 0 else "%.17g" for p in parity) + "\n"
    text = ((row * len(block)) % tuple(block.ravel().tolist())).encode()
    if len(job) == 3:
        return (text,)
    return (_mirror_text(text, start, not block.all(), np.isnan(block).any()),
            text.replace(b"~", b""))


class _Worker:
    """A forked process that runs ``fn()``, a generator, and sends each
    item it yields as (True, item), then (False, None), or (False, exc) once
    ``fn`` raised the FilamentError ``exc``: one protocol-5 pickle each, so
    arrays travel as their raw bytes.  Iterating the worker in the parent
    gives the items in order and raises that error after them."""

    def __init__(self, name, fn):
        """Fork; ``name`` names the worker in errors."""
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
        # the parent's handlers or flushing its buffers; any other failure,
        # such as EPIPE once its reader has gone, ends it with code 1
        code = 1
        try:
            os.close(r)
            out = open(w, "wb")
            try:
                for item in fn():
                    pickle.dump((True, item), out, protocol=5)
                    out.flush()
                end = (False, None)
            except FilamentError as exc:
                end = (False, exc)
            pickle.dump(end, out, protocol=5)
            out.flush()
            code = 0
        finally:
            os._exit(code)

    def __iter__(self):
        """The items in the order sent; OSError if the worker ended before
        its last message."""
        while True:
            try:
                ok, value = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                raise OSError(f"{self.name} {self.pid} exited with code {self.reap()} "
                              "before its last message") from None
            if not ok:
                break
            yield value
        self.reap()
        if value is not None:
            raise value

    def reap(self, kill=False):
        """Close the pipe, wait for the process and return its exit code
        (-signal if a signal ended it); ``kill`` sends SIGKILL first, for
        a caller that will not read the rest."""
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


@contextlib.contextmanager
def _beside(name, fn, worth_forking):
    """Yield an iterator over the items of ``fn()``, a generator.

    Where ``worth_forking`` holds and this process may run on two CPUs,
    ``fn`` starts at once in a ``_Worker`` named ``name``, and the iterator
    is that worker: a FilamentError that ``fn`` raised there is raised here
    as itself, after the items sent before it, and any other failure ends
    the worker with code 1, an OSError here.  Otherwise the iterator is
    ``fn()`` itself, which makes each item here when it is asked for.  A
    worker still running when the context exits, on a failure or before its
    items are all read, is killed; it is always reaped.
    """
    if not worth_forking or _fork_cpus() < 2:
        yield fn()
        return
    worker = _Worker(name, fn)
    try:
        yield iter(worker)
    finally:
        worker.reap(kill=True)  # a no-op once its end message has been read


def _format_share(jobs, blocks, spill):
    """Write the texts of ``blocks``, (job index, first row) pairs, to
    ``spill`` in order, then yield their sizes, one list per block."""
    sizes = [[spill.write(text) for text in _format_block(jobs[j], start)]
             for j, start in blocks]
    spill.flush()
    yield sizes


def _spilled(spill, share):
    """The places of a share's texts in its ``spill``, block by block, each
    (spill, offset, size), once ``share`` has given their sizes and ended."""
    (sizes,) = share
    offset = 0
    for block in sizes:
        places = []
        for size in block:
            places.append((spill, offset, size))
            offset += size
        yield places


def _copy(fh, spill, offset, size):
    spill.seek(offset)
    fh.write(spill.read(size))


def _n_processes(n_floats, n_blocks):
    return max(1, min(_fork_cpus(), n_floats // _MIN_SHARE, n_blocks))


def _starts(job):
    """The first rows of a job's blocks, in the order they are written."""
    if len(job) > 3 and len(job[3]) != len(job[2]):
        raise ValueError("a mirrored CSV needs one parity per column")
    starts = range(0, _n_rows(job[2]), _CSV_BLOCK)
    return starts[::-1] if len(job) > 3 else starts


def write_csvs(jobs):
    """Write one CSV per job: the header line, then one row per index with
    one %.17g field per array in ``columns``.

    A job is ``(path, header, columns)`` or a mirrored ``(path, header,
    columns, parity)``, whose columns hold the rows from the mirror node
    s = 0 upward and whose file also holds the rows of s < 0 first, each
    ``parity * row + 0.0`` with one +-1 per column (see the module
    docstring).  The blocks are cut into contiguous shares, one per
    process, up to one per CPU; each share is formatted into its own
    unlinked spill file beside the first CSV, this process's share here
    and every other in a forked worker, and copied from there into the
    files.  The files are the same bytes whatever the process count.  A
    worker that fails or is killed before it has sent the sizes of its
    texts raises OSError, and no worker outlives the call.
    """
    jobs = list(jobs)
    if not jobs:
        return
    starts = [_starts(job) for job in jobs]
    blocks = [(j, start) for j, rows in enumerate(starts) for start in rows]
    n_floats = sum(np.size(c) for job in jobs for c in job[2])
    p = _n_processes(n_floats, len(blocks))
    cuts = [len(blocks) * k // p for k in range(p + 1)]
    with contextlib.ExitStack() as stack:
        shares = []
        for k in range(p):
            spill = stack.enter_context(
                tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(jobs[0][0]))))
            share = functools.partial(_format_share, jobs, blocks[cuts[k]:cuts[k + 1]], spill)
            shares.append(_spilled(spill, stack.enter_context(_beside("CSV worker", share, k > 0))))
        places = itertools.chain.from_iterable(shares)
        for job, rows in zip(jobs, starts):
            with open(job[0], "wb") as fh:
                fh.write(job[1].encode() + b"\n")
                # a block's first text goes in at once; a mirrored block's
                # s >= 0 lines follow the s < 0 lines, in block order
                kept = []
                for _ in rows:
                    first, *rest = next(places)
                    _copy(fh, *first)
                    kept += rest
                for place in reversed(kept):
                    _copy(fh, *place)


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
