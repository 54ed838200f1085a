"""The forked workers: the batch CSV writer, the spiral profile's s <= 0
side and the stability run's Schrodinger stage give the same bytes as the
serial code whatever the process count, and leave no child process behind,
on success or failure."""

import functools
import json
import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_properties import curves

from filamentlab import cli, dataio, flow, nls, selfsimilar, spiral
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
    blocks = [(0, 0), (0, 4096), (0, 8192)]
    worker = dataio._Worker("CSV worker",
                            functools.partial(dataio._send_blocks, jobs, blocks))
    assert worker.reap() == 1
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


def test_parent_failure_kills_and_reaps_the_stage_worker(monkeypatch):
    # the worker sleeps 30 s before it fails: only a kill ends it at once
    _cpus(monkeypatch, 2)
    _stage_in_worker(monkeypatch, "sleep")

    def failing_profile(a, s_max, cfg=None):
        raise RuntimeError("profile failed in the parent")

    monkeypatch.setattr(selfsimilar, "profile", failing_profile)
    forks = _count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="in the parent"):
        _stability()
    assert time.monotonic() - start < 10
    assert forks == [1]
    _assert_no_child()
