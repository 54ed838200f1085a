"""The forked workers: the batch CSV writer, the spiral profile's s <= 0
side and the stability run's Schrodinger stage give the same bytes as the
serial code whatever the process count, and leave no child process behind,
on success or failure."""

import json
import math
import os
import signal
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_properties import curves

from filamentlab import cli, dataio, errors, flow, nls, selfsimilar, spiral
from filamentlab.errors import CurvatureVanishes

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


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _split(monkeypatch, cpus, block=None):
    """Let every batch use ``cpus`` processes, optionally with short blocks."""
    _cpus(monkeypatch, cpus)
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
        dataio.write_csvs([curve.csv_job(out / "curve.csv")])
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


def test_parent_failure_kills_workers_blocked_on_a_full_pipe(tmp_path, monkeypatch):
    # each worker's share, 4096-row blocks of 13 columns, is more than a
    # pipe holds; when the second file cannot be opened, every worker is
    # killed if it still runs, and all are reaped at once
    monkeypatch.setattr(dataio, "_fork_cpus", lambda: 3)
    monkeypatch.setattr(dataio, "_MIN_SHARE", 1)
    parent, original = os.getpid(), dataio._format_block

    def slow_in_parent(job, start):
        if os.getpid() == parent:
            time.sleep(0.5)
        return original(job, start)

    monkeypatch.setattr(dataio, "_format_block", slow_in_parent)
    data = np.random.default_rng(3).normal(size=(4096, 13))
    columns = [data[:, k] for k in range(13)]
    jobs = [(tmp_path / "a.csv", "h", columns),
            (tmp_path / "missing" / "b.csv", "h", [np.tile(c, 3) for c in columns])]
    assert dataio._n_processes(4 * data.size, 4) == 3
    forks = _count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(FileNotFoundError):
        dataio.write_csvs(jobs)
    assert time.monotonic() - start < 10
    assert forks == [1, 1]
    _assert_no_child()


def test_worker_exits_when_its_reader_has_gone():
    # three 1 MB items are more than a pipe holds, so the worker is still
    # writing when the pipe's read end closes: it ends on EPIPE
    worker = dataio._Worker("test worker", lambda: (bytes(1 << 20) for _ in range(3)))
    assert worker.reap() == 1
    _assert_no_child()


def test_worker_formats_its_whole_share_without_the_parent(tmp_path, monkeypatch):
    # two one-block files over two processes: the worker's share is the
    # second file, 4096 rows of 13 columns, more than a pipe holds.  The
    # parent's first block waits until the worker's spill holds all of it,
    # which a worker that sends its texts to the parent never reaches
    _split(monkeypatch, 2)
    rng = np.random.default_rng(5)
    jobs = [(tmp_path / f"f{j}.csv", "h", list(rng.normal(size=(13, 4096))))
            for j in range(2)]
    ref = tmp_path / "ref"
    ref.mkdir()
    _previous_write(ref / "f1.csv", "h", jobs[1][2])
    share = (ref / "f1.csv").stat().st_size - len("h\n")
    spills, opened = [], tempfile.TemporaryFile

    def recorded(**kwargs):
        spills.append(opened(**kwargs))
        return spills[-1]

    parent, original = os.getpid(), dataio._format_block

    def waiting_in_parent(job, start):
        deadline = time.monotonic() + 10
        while os.getpid() == parent and not any(
                os.fstat(f.fileno()).st_size == share for f in spills):
            assert time.monotonic() < deadline, "the worker's spill never held its share"
            time.sleep(0.01)
        return original(job, start)

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    monkeypatch.setattr(dataio, "_format_block", waiting_in_parent)
    dataio.write_csvs(jobs)
    _same_files(jobs, ref)
    _assert_no_child()


def test_worker_read_to_its_end_message_exits_with_code_0():
    # a None item is an item, not the end; the array is more than a pipe holds
    items = [np.arange(20_000.0), None, "last"]
    worker = dataio._Worker("test worker", lambda: iter(items))
    got = list(worker)
    assert got[1:] == items[1:] and np.array_equal(got[0], items[0])
    assert worker.code == 0 and worker.reap() == 0
    _assert_no_child()


# --- mirrored jobs: the s < 0 rows written from the s >= 0 text by parity ---

def _full_columns(columns, parity):
    """A mirrored job's whole curve: parity * row + 0.0 for the rows above
    the mirror node, last first, then the rows."""
    return [np.concatenate([p * c[:0:-1] + 0.0, c]) for c, p in zip(columns, parity)]


def _assert_only(directory, names):
    # the spill file was unlinked from the start: nothing of it is left
    assert sorted(os.listdir(directory)) == sorted(names)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(10.0, 900.0), st.sampled_from([1, 3]),
       st.integers(1, 5))
@example(0.0, 51.0, 1, 1)
@example(0.0, 51.0, 3, 4)
def test_mirrored_profile_matches_the_serial_writer_of_the_curve(tmp_path_factory, a,
                                                                 span, cpus, block):
    # exact zeros and -0.0 fill the frame columns at a = 0; a half of more
    # than 2000 rows is thinned to about 40, every stride-th row from s = 0
    out, ref = tmp_path_factory.mktemp("out"), tmp_path_factory.mktemp("ref")
    prof = selfsimilar.profile(a, span)
    path, header, half, parity = prof.csv_job(out / "profile.csv")
    full = prof.curve.csv_job(None)[2]
    zero, n_half = len(full[0]) // 2, len(half[0])
    stride = 1 if n_half <= 2000 else n_half // 40
    k = (n_half - 1) // stride
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, cpus, block)
        dataio.write_csvs([(path, header, [c[::stride] for c in half], parity)])
    _previous_write(ref / "profile.csv", header,
                    [c[zero - stride * k : zero + stride * k + 1 : stride] for c in full])
    assert path.read_bytes() == (ref / "profile.csv").read_bytes()
    _assert_only(out, ["profile.csv"])
    _assert_no_child()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25).flatmap(lambda rows: st.lists(
           st.tuples(arrays(float, rows, elements=_floats), st.sampled_from([-1.0, 1.0])),
           min_size=1, max_size=4)),
       st.sampled_from([1, 3]), st.integers(1, 5))
def test_mirrored_special_floats_match_the_serial_writer(tmp_path_factory, cols, cpus,
                                                         block):
    # nan prints as nan whatever its sign, and -0.0 mirrors to +0.0 in every
    # column; such a value is written exactly, never rejected
    out, ref = tmp_path_factory.mktemp("out"), tmp_path_factory.mktemp("ref")
    columns, parity = [c for c, _ in cols], [p for _, p in cols]
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, cpus, block)
        dataio.write_csvs([(out / "m.csv", "h", columns, parity)])
    _previous_write(ref / "m.csv", "h", _full_columns(columns, parity))
    assert (out / "m.csv").read_bytes() == (ref / "m.csv").read_bytes()
    _assert_only(out, ["m.csv"])
    _assert_no_child()


def test_batch_in_two_directories_with_shares_cut_inside_files(tmp_path, monkeypatch):
    # two files of three 4-row blocks over three processes: the shares are
    # blocks 0-1, 2-3 and 4-5, so a cut falls inside each file.  Every
    # share's spill sits beside the first file, and each directory keeps
    # only its CSV
    _split(monkeypatch, 3, block=4)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    x = np.linspace(0.0, 2.0, 12)
    columns, parity = [x, np.cos(x), x ** 3], [-1.0, 1.0, -1.0]
    assert dataio._n_processes(2 * 3 * 12, 6) == 3
    dataio.write_csvs([(a / "f.csv", "s,c,q", columns), (b / "m.csv", "s,c,q", columns, parity)])
    ref = tmp_path / "ref"
    ref.mkdir()
    _previous_write(ref / "f.csv", "s,c,q", columns)
    _previous_write(ref / "m.csv", "s,c,q", _full_columns(columns, parity))
    assert (a / "f.csv").read_bytes() == (ref / "f.csv").read_bytes()
    assert (b / "m.csv").read_bytes() == (ref / "m.csv").read_bytes()
    _assert_only(a, ["f.csv"])
    _assert_only(b, ["m.csv"])
    _assert_no_child()


def test_without_fork_and_pread_one_process_writes_the_serial_bytes(tmp_path, monkeypatch):
    # where os.fork does not exist the whole batch is this process's share,
    # read back from its spill through the file object; os.pread is Unix only
    _split(monkeypatch, 3, block=4)
    monkeypatch.delattr(os, "fork")
    monkeypatch.delattr(os, "pread")
    dataio.write_csvs([])
    x = np.linspace(0.0, 2.0, 12)
    columns, parity = [x, np.cos(x), x ** 3], [-1.0, 1.0, -1.0]
    dataio.write_csvs([(tmp_path / "f.csv", "s,c,q", columns),
                       (tmp_path / "m.csv", "s,c,q", columns, parity)])
    ref = tmp_path / "ref"
    ref.mkdir()
    _previous_write(ref / "f.csv", "s,c,q", columns)
    _previous_write(ref / "m.csv", "s,c,q", _full_columns(columns, parity))
    assert (tmp_path / "f.csv").read_bytes() == (ref / "f.csv").read_bytes()
    assert (tmp_path / "m.csv").read_bytes() == (ref / "m.csv").read_bytes()
    _assert_only(tmp_path, ["f.csv", "m.csv", "ref"])


@pytest.mark.parametrize("cpus", [1, 3])
def test_every_text_goes_through_one_spill_once(tmp_path, monkeypatch, cpus):
    # a spill is only appended to, so its size is the bytes written to it:
    # together the spills hold each CSV body once, this process's share and
    # the mirrored job's s >= 0 lines included
    _split(monkeypatch, cpus, block=4)
    fds, opened = [], tempfile.TemporaryFile

    def recorded(**kwargs):
        spill = opened(**kwargs)
        fds.append(os.dup(spill.fileno()))  # keeps the unlinked file to measure
        return spill

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    forks = _count_forks(monkeypatch)
    x = np.linspace(0.0, 2.0, 12)
    columns, parity = [x, np.cos(x), x ** 3], [-1.0, 1.0, -1.0]
    jobs = [(tmp_path / "f.csv", "s,c,q", columns),
            (tmp_path / "m.csv", "s,c,q", columns, parity)]
    dataio.write_csvs(jobs)
    try:
        spilled = sum(os.fstat(fd).st_size for fd in fds)
    finally:
        for fd in fds:
            os.close(fd)
    assert len(forks) == cpus - 1
    assert spilled == sum(job[0].stat().st_size - len("s,c,q\n") for job in jobs)
    _assert_no_child()


def test_mirrored_job_needs_one_parity_per_column(tmp_path):
    with pytest.raises(ValueError, match="one parity per column"):
        dataio.write_csvs([(tmp_path / "m.csv", "h", [np.arange(3.0)] * 2, [1.0])])
    _assert_only(tmp_path, [])


def test_mirrored_job_forks_for_the_floats_it_formats(tmp_path, monkeypatch):
    # 11 000 rows of 13 columns are 2 shares of floats formatted, not the 4
    # of the whole curve, so 4 CPUs fork one worker
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    rows = np.random.default_rng(2).normal(size=(11_000, 13))
    dataio.write_csvs([(tmp_path / "m.csv", "h", list(rows.T), [1.0, -1.0] * 6 + [1.0])])
    assert forks == [1]
    _assert_no_child()


@pytest.mark.parametrize("how, code", [("raise", "code 1"), ("kill", "code -9")])
def test_failed_worker_on_a_mirrored_job_leaves_no_spill(tmp_path, monkeypatch, how,
                                                        code):
    _split(monkeypatch, 3, block=4)
    _failing_formatter(monkeypatch, how)
    job = (tmp_path / "m.csv", "h", [np.arange(30.0), np.arange(30.0)], [-1.0, 1.0])
    with pytest.raises(OSError, match=code):
        dataio.write_csvs([job])
    _assert_only(tmp_path, ["m.csv"])
    _assert_no_child()


FILAMENT_ERRORS = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.FilamentError)]


@pytest.mark.parametrize("cls", FILAMENT_ERRORS, ids=lambda c: c.__name__)
def test_filament_error_in_a_worker_is_raised_as_itself(monkeypatch, cls):
    def fail():
        raise cls(f"{cls.__name__} in process {os.getpid()}")

    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    with pytest.raises(cls) as caught:
        with dataio._beside("test worker", fail, True) as items:
            list(items)
    assert type(caught.value) is cls
    pid = int(str(caught.value).rpartition(" ")[2])
    assert str(caught.value) == f"{cls.__name__} in process {pid}" and pid != os.getpid()
    assert forks == [1]
    _assert_no_child()

# --- the spiral profile: its s <= 0 side in a forked worker ---

SPIRAL = spiral.SpiralParams(0.4, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))


def _count_forks(monkeypatch):
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _profile_bytes(res):
    return [np.ascontiguousarray(x).tobytes() for x in
            (res.curve.s_grid, res.curve.points, res.curve.frames, res.c_sq, res.y, res.tau)]


@pytest.mark.parametrize("span", [(-3.0, 5.0), (-5.0, 3.0), (-4.0, 4.0)])
def test_spiral_sides_at_once_are_bit_identical(monkeypatch, span):
    _cpus(monkeypatch, 1)
    serial = _profile_bytes(spiral.spiral_profile(SPIRAL, span))
    monkeypatch.undo()
    assert _profile_bytes(spiral.spiral_profile(SPIRAL, span)) == serial
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert _profile_bytes(spiral.spiral_profile(SPIRAL, span)) == serial
    assert forks == [1]
    _assert_no_child()


@pytest.mark.parametrize("cpus, s_lo, n_forks", [
    (1, -30.0, 0), (4, -0.5, 0), (4, 0.0, 0), (4, -0.75, 1), (2, -30.0, 1)])
def test_spiral_forks_with_two_cpus_and_enough_steps_per_side(monkeypatch, cpus, s_lo,
                                                              n_forks):
    # at the default step 4.8e-3 and 2 steps per block, s = -0.5 is 106
    # fine steps and s = -0.75 is 158, either side of the minimum of 150
    assert spiral._MIN_SIDE_STEPS == 150
    _cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    spiral.spiral_profile(SPIRAL, (s_lo, 30.0))
    assert len(forks) == n_forks
    _assert_no_child()


def _failing_block(monkeypatch, in_parent, how="raise"):
    """Make the DOP853 block fail in this process or in every other one."""
    parent, original = os.getpid(), spiral._body

    def body(rhs):
        block = original(rhs)

        def run(*args):
            if (os.getpid() == parent) == in_parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if how == "sleep":
                    time.sleep(30)
                raise RuntimeError("block failed in the " + ("parent" if in_parent
                                                            else "worker"))
            return block(*args)

        return run

    monkeypatch.setattr(spiral, "_body", body)


@pytest.mark.parametrize("how, code", [("raise", "code 1"), ("kill", "code -9")])
def test_failed_side_worker_raises_oserror_and_is_reaped(monkeypatch, how, code):
    _cpus(monkeypatch, 2)
    _failing_block(monkeypatch, False, how)
    with pytest.raises(OSError, match=f"spiral side worker .* {code}"):
        spiral.spiral_profile(SPIRAL, (-5.0, 5.0))
    _assert_no_child()


def test_failed_side_worker_is_one_io_error_line(tmp_path, monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    _failing_block(monkeypatch, False)
    assert cli.main(["spiral", "--smax", "5", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[io]: spiral side worker") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())
    _assert_no_child()


def test_parent_failure_kills_and_reaps_the_side_worker(monkeypatch):
    # the worker sleeps 30 s before it fails: only a kill ends it at once
    _cpus(monkeypatch, 2)
    _failing_block(monkeypatch, False, "sleep")
    _failing_block(monkeypatch, True)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="in the parent"):
        spiral.spiral_profile(SPIRAL, (-5.0, 5.0))
    assert time.monotonic() - start < 10
    _assert_no_child()


def test_mirrored_profile_and_stability_slices_fork_nothing(monkeypatch):
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    selfsimilar.profile(0.5, 40.0)
    up = nls.gaussian_field(100.0, 256, 5e-3, width=2.0)
    rep = flow.stability_experiment(0.5, up, 1.0, t_min_factor=1e-2, s_max=1.0,
                                    ds=0.05, n_steps=20, n_slices=8)
    assert rep.profile_slices < 8  # some slices were integrated
    assert not forks


# --- the stability run: its Schrodinger stage in a forked worker ---

# 101 steps of N = 512 points, above the stage's fork minimum; its slices lie
# on both sides of t_clean
STAGE = dict(t_min_factor=1e-2, s_max=1.0, ds=0.05, n_steps=100, n_slices=12)
STAGE_ARGS = ["stability", "--n-points", "512", "--n-steps", "100", "--n-slices", "12",
              "--tmin-factor", "1e-2", "--smax", "1", "--ds", "0.05"]


def _stability():
    assert (STAGE["n_steps"] + 1) * 512 >= flow._MIN_STAGE_SIZE
    up = nls.gaussian_field(125.0, 512, 1e-2, width=2.0)
    return flow.stability_experiment(0.5, up, 1.0, **STAGE)


def _report_bytes(rep):
    curves = [np.concatenate([c.points.ravel(), c.frames.ravel()]).tobytes()
              for c in rep.flow.curves]
    return dataio.dumps_json(rep.to_dict()), curves


def _stage_in_worker(monkeypatch, how):
    """Make the Schrodinger stage fail in every process but this one."""
    parent, original = os.getpid(), flow._schrodinger_stage

    def stage(*args):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "sleep":
                time.sleep(30)
            raise RuntimeError("stage failed in the worker")
        return original(*args)

    monkeypatch.setattr(flow, "_schrodinger_stage", stage)


def test_stability_stage_in_a_worker_is_bit_identical(monkeypatch):
    _cpus(monkeypatch, 1)
    serial = _report_bytes(_stability())
    assert 0 < json.loads(serial[0])["profile_slices"] < STAGE["n_slices"]
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    assert _report_bytes(_stability()) == serial
    assert forks == [1]
    _assert_no_child()


def test_curvature_vanishes_in_the_stage_worker_reaches_the_parent(monkeypatch):
    # the datum of test_flow's first-dip test: v dips below a/2 at once
    a, t0 = 0.5, 1e6
    bump = nls.gaussian_field(10.0, 4096, 0.09 * a, width=0.01)
    up = bump.copy_with(-bump.values * np.exp(-0.5j * a * a * math.log(1.0 / t0)))
    errors = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        with pytest.raises(CurvatureVanishes) as caught:
            flow.stability_experiment(a, up, t0, n_steps=100_000, n_slices=40)
        assert len(forks) == cpus - 1
        errors.append((type(caught.value), str(caught.value)))
        _assert_no_child()
    assert errors[0] == errors[1]
    assert "dipped to" in errors[0][1]


@pytest.mark.parametrize("how, code", [("raise", "code 1"), ("kill", "code -9")])
def test_failed_stage_worker_raises_oserror_and_is_reaped(monkeypatch, how, code):
    _cpus(monkeypatch, 2)
    _stage_in_worker(monkeypatch, how)
    with pytest.raises(OSError, match=f"stability stage worker .* exited with {code}"):
        _stability()
    _assert_no_child()


def test_killed_stage_worker_is_one_io_error_line(tmp_path, monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    _stage_in_worker(monkeypatch, "kill")
    assert cli.main([*STAGE_ARGS, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[io]: stability stage worker") and err.count("\n") == 1
    assert "code -9" in err
    assert not list(tmp_path.iterdir())
    _assert_no_child()


def _stage_failing_after_rows(monkeypatch, fail):
    """Make the Schrodinger stage call ``fail`` in every process but this
    one once it has sent its (c, tau) rows; returns the list to which each
    slice integrated in this process appends."""
    parent, original = os.getpid(), flow._schrodinger_stage

    def stage(*args):
        items = original(*args)
        if os.getpid() != parent:
            yield next(items)
            fail()
        yield from items

    integrated, integrate = [], flow._integrated_slice

    def counted(*args):
        integrated.append(os.getpid())
        return integrate(*args)

    monkeypatch.setattr(flow, "_schrodinger_stage", stage)
    monkeypatch.setattr(flow, "_integrated_slice", counted)
    return integrated


def test_stage_worker_killed_after_its_rows_raises_oserror(monkeypatch):
    _cpus(monkeypatch, 2)
    integrated = _stage_failing_after_rows(
        monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(OSError, match=r"^stability stage worker \d+ exited with code -9 "
                                      "before its last message$"):
        _stability()
    # the rows came: their slices were integrated here before the failure
    assert integrated and set(integrated) == {os.getpid()}
    _assert_no_child()


def test_curvature_vanishes_after_the_rows_reaches_the_parent_as_itself(monkeypatch):
    def fail():
        raise CurvatureVanishes(f"filament function dipped in process {os.getpid()}")

    _cpus(monkeypatch, 2)
    integrated = _stage_failing_after_rows(monkeypatch, fail)
    forks = _count_forks(monkeypatch)
    with pytest.raises(CurvatureVanishes) as caught:
        _stability()
    assert type(caught.value) is CurvatureVanishes
    assert int(str(caught.value).rpartition(" ")[2]) not in (os.getpid(), 0)
    assert integrated and forks == [1]
    _assert_no_child()


def test_stage_whose_only_integrated_slice_is_the_datum_is_bit_identical(monkeypatch):
    # t_clean = 0.82 lies between the slice times 0.66 and 0.95 (step 1):
    # every slice but the datum is built from the reference, so k_c = 0 and
    # the stage sends its rows before its first step
    up = nls.gaussian_field(20.0, 512, 1e-2, width=1.0)
    reports = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        rep = flow.stability_experiment(0.5, up, 1.0, **STAGE)
        assert len(forks) == cpus - 1
        reports.append(_report_bytes(rep))
        _assert_no_child()
    assert rep.horizon_step == 0 and rep.profile_slices == STAGE["n_slices"] - 1
    assert reports[0] == reports[1]


def test_parent_failure_kills_and_reaps_the_stage_worker(monkeypatch):
    # the worker sleeps 30 s before it fails: only a kill ends it at once
    _cpus(monkeypatch, 2)
    _stage_in_worker(monkeypatch, "sleep")

    def failing_sample(a, s_max, sigma):
        raise RuntimeError("reference profile failed in the parent")

    monkeypatch.setattr(selfsimilar, "sample", failing_sample)
    forks = _count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="in the parent"):
        _stability()
    assert time.monotonic() - start < 10
    assert forks == [1]
    _assert_no_child()
