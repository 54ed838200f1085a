"""The batch CSV writer: the same bytes as the serial loop whatever the
process count, and no child process left behind, on success or failure."""

import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_properties import curves

from filamentlab import cli, dataio

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324]


def _previous_write(path, header, columns):
    """The serial writer the batch writer replaced, kept as the reference."""
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(data), 4096):
            block = data[i : i + 4096]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


@pytest.fixture(autouse=True)
def _time_limit():
    """A hung wait fails the test instead of the suite."""
    def expire(signum, frame):
        raise TimeoutError("the writer test took over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _split(monkeypatch, cpus, block=None):
    """Let every batch use ``cpus`` processes, optionally with short blocks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(dataio, "_MIN_SHARE", 1)
    if block is not None:
        monkeypatch.setattr(dataio, "_CSV_BLOCK", block)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _same_files(jobs, ref_dir):
    for path, header, columns in jobs:
        ref = ref_dir / path.name
        _previous_write(ref, header, columns)
        assert path.read_bytes() == ref.read_bytes()


_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))


@st.composite
def batches(draw):
    """1 to 4 files of 0 to 25 rows and 1 to 4 columns."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 25), st.integers(1, 4)),
                           min_size=1, max_size=4))
    return [(f"f{j}.csv", f"h{j}", [draw(arrays(float, rows, elements=_floats))
                                    for _ in range(cols)])
            for j, (rows, cols) in enumerate(shapes)]


@settings(max_examples=60, deadline=None)
@given(batches(), st.integers(1, 4), st.integers(1, 5))
def test_batches_match_the_serial_writer(tmp_path_factory, batch, cpus, block):
    # short blocks put share boundaries inside files and between them
    out, ref = tmp_path_factory.mktemp("out"), tmp_path_factory.mktemp("ref")
    jobs = [(out / name, header, columns) for name, header, columns in batch]
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, cpus, block)
        dataio.write_csvs(jobs)
    _same_files(jobs, ref)
    _assert_no_child()


@settings(max_examples=60, deadline=None)
@given(curves())
def test_curves_match_the_serial_writer(tmp_path_factory, curve):
    out, ref = tmp_path_factory.mktemp("out"), tmp_path_factory.mktemp("ref")
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, 3, block=2)
        curve.write_csv(out / "curve.csv")
    _same_files([curve.csv_job(out / "curve.csv")], ref)


def test_full_blocks_with_special_floats_match_the_serial_writer(tmp_path, monkeypatch):
    # 4096-row blocks of 13 columns are larger than a pipe chunk; special
    # values sit on both sides of each file's block boundaries
    rng = np.random.default_rng(0)
    jobs = []
    for j, rows in enumerate((3 * 4096 + 7, 4096, 5000, 1)):
        data = rng.normal(size=(rows, 13))
        for edge in range(4096, rows, 4096):
            data[edge - 3 : edge + 2, j % 13] = SPECIAL_FLOATS
        data[-1, :5] = SPECIAL_FLOATS
        jobs.append((tmp_path / f"f{j}.csv", "s,x", [data[:, k] for k in range(13)]))
    _split(monkeypatch, 3)
    assert dataio._n_processes(sum(13 * len(c[0]) for _, _, c in jobs), 7) == 3
    dataio.write_csvs(jobs)
    ref = tmp_path / "ref"
    ref.mkdir()
    _same_files(jobs, ref)
    _assert_no_child()


def test_processes_follow_cpus_and_minimum_share(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    share = dataio._MIN_SHARE
    assert dataio._n_processes(share - 1, 10) == 1
    assert dataio._n_processes(3 * share, 10) == 3
    assert dataio._n_processes(10 * share, 10) == 4
    assert dataio._n_processes(10 * share, 2) == 2
    monkeypatch.delattr(os, "fork")
    assert dataio._n_processes(10 * share, 10) == 1


def test_one_cpu_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    _split(monkeypatch, 1, block=2)
    monkeypatch.setattr(os, "fork", no_fork)
    jobs = [(tmp_path / "a.csv", "h", [np.arange(9.0), -np.arange(9.0)])]
    dataio.write_csvs(jobs)
    ref = tmp_path / "ref"
    ref.mkdir()
    _same_files(jobs, ref)


def _failing_formatter(monkeypatch, how):
    """Make ``_format_block`` fail in every process but this one."""
    parent, original = os.getpid(), dataio._format_block

    def fmt(columns, start):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("formatter failed in a worker")
        return original(columns, start)

    monkeypatch.setattr(dataio, "_format_block", fmt)


@pytest.mark.parametrize("how, code", [("raise", "code 1"), ("kill", "code -9")])
def test_failed_worker_raises_oserror_and_is_reaped(tmp_path, monkeypatch, how, code):
    _split(monkeypatch, 3, block=4)
    _failing_formatter(monkeypatch, how)
    jobs = [(tmp_path / f"f{j}.csv", "h", [np.arange(30.0)]) for j in range(3)]
    with pytest.raises(OSError, match=code):
        dataio.write_csvs(jobs)
    _assert_no_child()


def test_failed_worker_is_one_io_error_line(tmp_path, monkeypatch, capsys):
    _split(monkeypatch, 2, block=100)
    _failing_formatter(monkeypatch, "raise")
    assert cli.main(["profile", "--smax", "20", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[io]: CSV worker") and err.count("\n") == 1
    _assert_no_child()


def test_parent_failure_reaps_workers(tmp_path, monkeypatch):
    # the second file cannot be opened while the workers still run
    _split(monkeypatch, 3, block=4)
    jobs = [(tmp_path / "a.csv", "h", [np.arange(40.0)]),
            (tmp_path / "missing" / "b.csv", "h", [np.arange(40.0)])]
    with pytest.raises(FileNotFoundError):
        dataio.write_csvs(jobs)
    _assert_no_child()


def test_worker_exits_when_its_reader_has_gone():
    # three 4096-row blocks are more than a pipe holds, so the worker is
    # still writing when the pipe's read end closes: it ends on EPIPE
    data = np.random.default_rng(1).normal(size=(3 * 4096, 13))
    jobs = [(None, "h", [data[:, k] for k in range(13)])]
    worker = dataio._Worker(jobs, [(0, 0), (0, 4096), (0, 8192)], [])
    assert worker.reap() == 1
    _assert_no_child()
