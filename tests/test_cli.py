import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from filamentlab import cli, dataio, nls, selfsimilar
from filamentlab.dataio import dumps_json
from filamentlab.errors import FilamentError, MemoryBudgetExceeded


def run_cli(args, tmp_path, monkeypatch=None, env_out=None):
    argv = list(args)
    if env_out is None:
        argv += ["--out-dir", str(tmp_path)]
    return cli.main(argv)


def read_run_json(tmp_path, sub):
    runs = list(tmp_path.glob(f"{sub}-*/run.json"))
    assert len(runs) == 1
    return json.loads(runs[0].read_text()), runs[0]


def test_angle_both_routes(tmp_path):
    rc = run_cli(["angle", "--a", "0.5", "--smax", "400"], tmp_path)
    assert rc == 0
    data, _ = read_run_json(tmp_path, "angle")
    exact = math.exp(-math.pi * 0.25 / 2)
    assert data["closed_form"] == pytest.approx(exact, abs=1e-15)
    assert abs(data["ode_estimate"] - exact) <= 1e-3
    assert abs(data["theta_estimate"] - exact) <= 1e-3
    assert data["theta_energy_drift"] <= 1e-8


def test_angle_at_zero_a_has_no_theta_route(tmp_path):
    # the theta route needs a > 0; at a = 0 its fields are null
    assert run_cli(["angle", "--a", "0", "--smax", "20"], tmp_path) == 0
    data, _ = read_run_json(tmp_path, "angle")
    assert data["ode_estimate"] == pytest.approx(1.0, abs=1e-12)
    for key in ("theta_estimate", "theta_spread", "theta_energy_drift"):
        assert data[key] is None


def test_angle_reads_the_profile_end_node_alone(tmp_path, monkeypatch):
    # A+/- come from an end-node run (selfsimilar.sample), not from the
    # profile's nodes: they agree with the profile's reading to roundoff
    prof = selfsimilar.profile(0.5, 400.0)

    def no_profile(*args):
        raise AssertionError("the angle run built the profile")

    monkeypatch.setattr(selfsimilar, "profile", no_profile)
    assert run_cli(["angle", "--a", "0.5", "--smax", "400"], tmp_path) == 0
    data, _ = read_run_json(tmp_path, "angle")
    assert data["ode_error_bound"] == prof.a1_error_bound
    assert abs(data["ode_estimate"] - prof.a1_estimate) <= 1e-14
    assert abs(data["gamma_measured"] - prof.gamma_measured()) <= 1e-13


def test_profile_zero_curvature_writes_line(tmp_path):
    rc = run_cli(["profile", "--a", "0", "--smax", "10"], tmp_path)
    assert rc == 0
    csvs = list(tmp_path.glob("profile-*/profile.csv"))
    assert len(csvs) == 1
    rows = np.genfromtxt(csvs[0], delimiter=",", names=True)
    assert np.max(np.abs(rows["y"])) < 1e-12
    assert np.max(np.abs(rows["z"])) < 1e-12
    assert np.max(np.abs(rows["x"] - rows["s"])) < 1e-12
    data, _ = read_run_json(tmp_path, "profile")
    assert data["intersections"] == []


def test_determinism_modulo_timestamp(tmp_path):
    args = ["angle", "--a", "0.3", "--smax", "20"]
    assert run_cli(args, tmp_path) == 0
    _, path = read_run_json(tmp_path, "angle")
    first = path.read_bytes()
    assert run_cli(args, tmp_path) == 0
    second = path.read_bytes()
    mask = re.compile(rb'"timestamp": "[^"]*"')
    assert mask.sub(b"T", first) == mask.sub(b"T", second)
    assert mask.search(first)


def test_spiral_command_metadata(tmp_path):
    rc = run_cli(["spiral", "--mu", "0.4", "--a", "0.5", "--smax", "15"], tmp_path)
    assert rc == 0
    data, _ = read_run_json(tmp_path, "spiral")
    assert data["nu"] == pytest.approx(-0.25, abs=1e-12)
    assert data["rotation_invariant_defect"] <= 1e-8
    assert data["unit_speed_defect"] <= 1e-8


def test_stability_command_writes_frames_and_report(tmp_path):
    rc = run_cli(
        ["stability", "--a", "0.5", "--uplus-norm", "0", "--smax", "3",
         "--ds", "0.05", "--n-steps", "400", "--n-slices", "12",
         "--tmin-factor", "1e-3"],
        tmp_path,
    )
    assert rc == 0
    data, path = read_run_json(tmp_path, "stability")
    for key in ("a", "t_grid", "cone_defect", "gamma_measured",
                "trace_constant", "sup_T_defect"):
        assert key in data
    assert data["trace_constant"] <= 1.5
    frames = list(path.parent.glob("frame_*.csv"))
    assert len(frames) == len(data["t_grid"])


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")

    assert cli.main(["angle", "--nope", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")


@pytest.mark.parametrize("args", [
    ["theta"],
    ["angle", "--method", "both"],
    ["evolve"],
    ["evolve", "--problem", "gp"],
    ["profile", "--step", "1e-3"],
], ids=["theta-subcommand", "angle-method", "evolve-subcommand", "evolve-problem",
        "profile-step"])
def test_retired_entry_points_are_usage_errors(tmp_path, capsys, args):
    # one subcommand per figure: angle is the one way to the angle-law
    # figure, nls the one way onto the split-step stepper; the profile's
    # grid is selfsimilar's alone, so profile takes no step
    assert run_cli(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_validation_errors_exit_2(tmp_path, capsys):
    rc = run_cli(["profile", "--a", "-1", "--smax", "10"], tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[validation]:")
    assert "\n" not in err.strip("\n")


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = 0.7\nsmax = 20\n# comment\n")
    rc = cli.main(["angle", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 0
    data, _ = read_run_json(tmp_path, "angle")
    assert data["a"] == 0.7

    # flags override the file
    rc = cli.main(["angle", "--config", str(cfg), "--a", "0.2",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    runs = sorted(tmp_path.glob("angle-*/run.json"))
    values = {json.loads(p.read_text())["a"] for p in runs}
    assert 0.2 in values


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    rc = cli.main(["angle", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[usage]:")


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FILAMENTLAB_OUT", str(tmp_path / "envout"))
    rc = cli.main(["angle", "--a", "0.4", "--smax", "20"])
    assert rc == 0
    assert list((tmp_path / "envout").glob("angle-*/run.json"))


def test_json_float_formatting():
    text = dumps_json({"x": 0.1, "arr": np.array([1.5, 2.0]), "n": 3})
    assert '"x": 0.10000000000000001' in text
    assert text.endswith("\n")


@pytest.mark.parametrize("sub", list(cli.SPECS))
def test_threads_option_rejected(tmp_path, capsys, sub):
    # slices are built in one loop: no subcommand takes a worker count
    rc = run_cli([sub, "--threads", "2"], tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")
    assert "--threads" in err
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_stability_run_repeats_identically(tmp_path):
    args = ["stability", "--n-steps", "300", "--n-slices", "8",
            "--tmin-factor", "1e-2"]
    mask = re.compile(rb'"timestamp": "[^"]*"')
    runs = []
    for rep in ("first", "second"):
        out = tmp_path / rep
        assert cli.main(args + ["--out-dir", str(out)]) == 0
        (run_dir,) = out.iterdir()
        runs.append({p.name: mask.sub(b"T", p.read_bytes())
                     for p in sorted(run_dir.iterdir())})
        # some slices lie past t_clean and are built from the reference profile
        assert json.loads((run_dir / "run.json").read_text())["profile_slices"] > 0
    assert len(runs[0]) == 9  # run.json and one frame CSV per slice
    assert runs[0] == runs[1]


@pytest.mark.parametrize("args", [
    ["nls", "--n-steps", "-3", "--n-points", "256", "--length", "100"],
    ["nls", "--n-steps", "1", "--n-points", "256", "--length", "100"],
], ids=["nls-negative-steps", "nls-one-step"])
def test_bad_step_counts_exit_2(tmp_path, capsys, args):
    assert run_cli(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[validation]:")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("all_ok, code", [(True, 0), (False, 1)])
def test_selfcheck_exit_code_follows_checks(tmp_path, monkeypatch, all_ok, code):
    monkeypatch.setitem(cli.RUNNERS, "selfcheck",
                        lambda params, outdir: {"checks": [], "all_ok": all_ok})
    assert run_cli(["selfcheck"], tmp_path) == code
    data, _ = read_run_json(tmp_path, "selfcheck")
    assert data["all_ok"] is all_ok


SMALL_GRID = ["--n-points", "256", "--n-steps", "10"]
SWEEP_GRID = ["--n-points", "256", "--n-steps", "20", "--n-slices", "8", "--tmin-factor", "1e-2"]
# a huge t1 breaks the split step's time step, not the datum
PHASE = "half-step phase xi^2 dt/2 = 3.23e+301 rad overflows"
# failed-run rows whose one line must also name what is wrong
FAILURE_NAMES = {("stability", "--ds", "0.3"): "s = 0 must be a grid node",
                 # the reference span sigma = 5000 fits the plan, but at 4096
                 # points the box's grid step, 2.5, exceeds the datum's width 2
                 ("stability", "--tmin-factor", "1e-6"): "narrower than the grid step",
                 ("stability", "--smax", "0.5"): "the cone defect reads |s| >= 1",
                 # 2 a^2 overflows, so the A+ error bound is inf: rejected
                 # before the frame kernel's non-finite check is reached
                 ("profile", "--a", "1e300"): "s_max = 20 is too small for a = 1e+300",
                 # a^2 is finite, but the reference profile's step turns the
                 # frame by h a = 2e147 rad, before the origin frame's Magnus
                 # exponent overflows (test_flow pins that message)
                 ("stability", "--a", "1e150", *SMALL_GRID, "--n-slices", "8",
                  "--tmin-factor", "1e-2"): "h max(|c|, |tau|) = 2e+147 rad per step",
                 # finite frames whose rotation angles round to noise
                 ("stability", "--a", "1e30", *SWEEP_GRID): "= 2e+27 rad per step overflows",
                 ("stability", "--a", "1e60", *SWEEP_GRID): "= 2e+57 rad per step overflows",
                 ("profile", "--a", "1e150", "--smax", "20"): "= 2e+147 rad per step overflows",
                 # a finite block count whose step count, two per block, overflows
                 ("spiral", "--smax", "1e306"): "inf steps needed",
                 ("profile", "--smax", "6000"): "MiB budget",
                 ("spiral", "--smax", "1e5"): "MiB budget",
                 # a finite E0, but a step of 4.8e-3 turns the frame through
                 # hundreds of radians or more: the fixed-step state overflows
                 ("spiral", "--mu", "1e8"): "state became non-finite",
                 ("spiral", "--a", "1e8"): "state became non-finite",
                 ("nls", "--length", "1e300", *SMALL_GRID): "narrower than the grid step",
                 ("nls", "--t0", "inf", *SMALL_GRID, "--length", "100"): "must be finite",
                 ("nls", "--t1", "inf", *SMALL_GRID, "--length", "100"): "must be finite",
                 # the datum's free evolution to t0 loses its phase before a step does
                 ("nls", "--t0", "1e300", *SMALL_GRID, "--length", "100"):
                     "free phase xi^2 t = 6.47e+301 rad overflows",
                 ("nls", "--t1", "1e300", *SMALL_GRID, "--length", "100"): PHASE,
                 ("nls", "--t1", "1e300", "--n-steps", "10000"): "2.72e+301 rad overflows",
                 ("nls", "--length", "1e-300", "--n-points", "64", "--n-steps", "4"):
                     "free phase xi^2 t = inf rad overflows",
                 # the A+ error bound's S^2 underflows (0/0 at a = 0) or 2a/S
                 # overflows: the run would report it as inf or nan
                 ("profile", "--smax", "1e-300"): "s_max = 1e-300 is too small",
                 ("profile", "--a", "0", "--smax", "1e-300"): "s_max = 1e-300 is too small",
                 ("angle", "--smax", "1e-300"): "s_max = 1e-300 is too small",
                 ("profile", "--a", "1e10", "--smax", "1e-150"): "s_max = 1e-150 is too small",
                 # t1 = t0 (10 by default) or an ulp above it: every later
                 # stored time has one log, so no decay slope can be fitted
                 ("nls", "--t1", "10"): "not distinct in log t",
                 ("nls", "--t1", "10.000000000000002"): "not distinct in log t",
                 # distinct log t, but too close for np.polyfit's rank tolerance
                 ("nls", "--t1", "10.0000000000002"): "np.polyfit's rank tolerance"}


@pytest.mark.parametrize("args", [
    ["spiral", "--smax", "-1"],
    ["spiral", "--smax", "1e6"],
    ["profile", "--step", "inf"],
    ["profile", "--smax", "inf"],
    ["angle", "--smax", "inf"],
    ["profile", "--smax", "1e300"],
    ["angle", "--smax", "1e300"],
    ["nls", "--t1", "inf", *SMALL_GRID, "--length", "100"],
    ["nls", "--uplus-norm", "inf", *SMALL_GRID],
    ["stability", "--width", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--t0", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--tmin-factor", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--ds", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--smax=inf", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--ds=-inf", *SMALL_GRID, "--n-slices", "8"],
    ["nls", "--length=-inf", *SMALL_GRID],
    ["nls", "--t0", "inf", *SMALL_GRID, "--length", "100"],
    ["nls", "--uplus-norm", "-0.01", *SMALL_GRID],
    ["profile", "--step", "nan"],
    ["profile", "--step", "-1"],
    ["profile", "--step", "10", "--smax", "20"],
    ["angle", "--config", "{bad_config}"],
    ["nls", "--width", "1e-300", *SMALL_GRID, "--length", "100"],
    ["stability", "--width", "1e-300", "--n-points", "256", "--n-steps", "20",
     "--n-slices", "8", "--tmin-factor", "1e-2"],
    ["stability", "--width", "0.1", "--tmin-factor", "1e-2"],
    ["stability", "--width", "0.01"],
    ["stability", "--n-steps", "100000000"],
    ["stability", "--n-points", str(2**40)],
    ["stability", "--tmin-factor", "1e-6"],
    ["stability", "--smax", "1e300", "--ds", "1e300", "--t0", "1e-97",
     "--tmin-factor", "1e-2"],
    ["nls", "--n-points", "134217728"],
    ["stability", "--t0", "1e300"],
    ["stability", "--tmin-factor", "1e300"],
    ["stability", "--uplus-norm", "1e300"],
    ["nls", "--uplus-norm", "1e300"],
    ["spiral", "--mu", "1e300"],
    ["nls", "--a", "1e300"],
    ["stability", "--ds", "0.3"],
    ["stability", "--smax", "0.5"],
    ["profile", "--a", "1e300"],
    ["stability", "--a", "1e150", *SMALL_GRID, "--n-slices", "8", "--tmin-factor", "1e-2"],
    ["stability", "--a", "1e30", *SWEEP_GRID],
    ["stability", "--a", "1e60", *SWEEP_GRID],
    ["profile", "--a", "1e150", "--smax", "20"],
    ["spiral", "--a", "1e300"],
    ["angle", "--a", "1e300"],
    ["nls", "--length", "1e300", *SMALL_GRID],
    ["spiral", "--smax", "1e306"],
    ["nls", "--t0", "1e300", *SMALL_GRID, "--length", "100"],
    ["nls", "--t1", "1e300", *SMALL_GRID, "--length", "100"],
    ["nls", "--t1", "1e300", "--n-steps", "10000"],
    ["nls", "--length", "1e-300", "--n-points", "64", "--n-steps", "4"],
    ["profile", "--smax", "6000"],
    ["spiral", "--smax", "1e5"],
    ["spiral", "--mu", "1e8"],
    ["spiral", "--a", "1e8"],
    ["profile", "--smax", "1e-300"],
    ["profile", "--a", "0", "--smax", "1e-300"],
    ["angle", "--smax", "1e-300"],
    ["profile", "--a", "1e10", "--smax", "1e-150"],
    ["nls", "--t1", "10"],
    ["nls", "--t1", "10.000000000000002"],
    ["nls", "--t1", "10.0000000000002"],
], ids=["spiral-negative-smax", "spiral-over-step-limit",
        "profile-inf-step", "profile-inf-smax", "angle-inf-smax",
        "profile-huge-smax", "angle-huge-smax", "nls-inf-t1",
        "nls-inf-uplus-norm",
        "stability-zero-width", "stability-zero-t0", "stability-zero-tmin-factor",
        "stability-zero-ds", "stability-inf-smax", "stability-minus-inf-ds",
        "nls-minus-inf-length", "nls-inf-t0", "nls-negative-uplus-norm",
        "profile-nan-step", "profile-negative-step", "profile-step-above-spacing",
        "angle-bad-config-value",
        "nls-width-squared-underflows", "stability-width-squared-underflows",
        "stability-no-time-past-horizon", "stability-unresolved-datum",
        "stability-huge-n-steps",
        "stability-huge-n-points", "stability-huge-profile-span",
        "stability-infinite-profile-span", "nls-huge-n-points",
        "stability-huge-t0", "stability-huge-tmin-factor", "stability-huge-uplus-norm",
        "nls-huge-uplus-norm", "spiral-huge-mu", "nls-huge-a",
        "stability-no-node-at-zero", "stability-smax-below-cone-floor",
        "profile-huge-a", "stability-huge-a", "stability-a-1e30", "stability-a-1e60",
        "profile-a-1e150", "spiral-huge-a", "angle-huge-a", "nls-huge-length",
        "profile-step-count-beyond-float", "nls-huge-t0", "nls-huge-t1",
        "nls-huge-t1-many-steps", "nls-tiny-length", "profile-over-memory-budget",
        "spiral-over-memory-budget", "spiral-unstable-mu", "spiral-unstable-a",
        "profile-tiny-smax", "profile-a-0-tiny-smax", "angle-tiny-smax",
        "profile-huge-a-tiny-smax", "nls-empty-span", "nls-span-of-one-ulp",
        "nls-span-below-fit-rank"])
def test_failed_run_leaves_no_directory(tmp_path_factory, tmp_path, capsys, args):
    bad_config = tmp_path_factory.mktemp("config") / "bad.cfg"
    bad_config.write_text("a = abc\n")
    args = [str(bad_config) if x == "{bad_config}" else x for x in args]
    # a config value is parsed like its flag: a bad one is a usage error,
    # as is the retired profile --step, whatever its value
    kind = "usage" if "--config" in args or "--step" in args else "validation"
    named = FAILURE_NAMES.get(tuple(args), "")
    # exactly one stderr line, and no numpy warning on the way to it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # the out dir given on the command line exists: it stays, left empty
        assert run_cli(args, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{kind}]:") and err.count("\n") == 1
        assert named in err
        assert not list(tmp_path.iterdir())
        # it does not exist yet: the run removes every directory it made
        out = tmp_path / "new" / "runs"
        assert cli.main(args + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{kind}]:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh", "rerun"])
def test_failed_run_removes_its_partial_files(tmp_path, monkeypatch, capsys,
                                              earlier_run):
    args = ["profile", "--smax", "15", "--out-dir", str(tmp_path / "runs")]
    if earlier_run:
        assert cli.main(args) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "run.json").exists()
    capsys.readouterr()

    def fails_after_writing(params, outdir):
        dataio.write_csvs([(outdir / "profile.csv", "s", [np.arange(3.0)])])
        raise FilamentError("failed after writing")

    monkeypatch.setitem(cli.RUNNERS, "profile", fails_after_writing)
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[validation]:") and err.count("\n") == 1
    # no run.json and no partial file; only a run directory that was there
    # before the failed run stays, empty
    left = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert left == ([Path("runs"), run_dir.relative_to(tmp_path)] if earlier_run else [])


# every numeric flag of every subcommand on a small grid; an int flag cannot
# take nan or inf (argparse rejects it), so it gets 0, -1 and a huge 2**40
# where a float flag gets 1e300
SWEEP_BASE = {
    "profile": [],
    "angle": ["--smax", "20"],
    # a box of 100 resolves the width-2 bump on 256 points (the default 900
    # does not, and the alias gate would reject every run)
    "nls": ["--n-points", "256", "--n-steps", "10", "--length", "100"],
    "spiral": ["--smax", "5"],
    "stability": SWEEP_GRID,
    "evolve": ["--n-points", "256", "--n-steps", "10"],
}
# the numeric options of the retired evolve subcommand and the retired
# profile --step: an old invocation with any of them stays a usage error,
# whatever value it passes
RETIRED_SPECS = {
    "evolve": {key: (kind, None) for key, kind in (
        ("sign", int), ("a", float), ("t0", float), ("t1", float),
        ("n_steps", int), ("n_points", int), ("length", float),
        ("amp", float), ("width", float), ("seed", int),
        ("store_every", int), ("coeff", float))},
    "profile": {"step": (float, None)},
}
SWEEP = [(sub, key.replace("_", "-"), value)
         for specs in (cli.SPECS, RETIRED_SPECS) for sub, spec in specs.items()
         for key, (kind, _default) in spec.items() if kind in (int, float)
         for value in (("nan", "inf", "-inf", "5e-324", "1e300") if kind is float
                       else (str(2**40),)) + ("0", "-1")]


@pytest.mark.parametrize("sub, flag, value", SWEEP,
                         ids=[f"{s}-{f}={v}" for s, f, v in SWEEP])
def test_numeric_flag_sweep(tmp_path, capsys, sub, flag, value):
    # a run either succeeds quietly or fails with exactly one typed line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli([sub, *SWEEP_BASE[sub], f"--{flag}={value}"], tmp_path)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    if flag.replace("-", "_") in RETIRED_SPECS.get(sub, {}):
        assert rc == 2 and err.startswith("error[usage]:"), err
    if rc == 0:
        assert err == ""
    else:
        assert rc == 2
        assert re.fullmatch(r"error\[(usage|validation)\]: [^\n]*\n", err), err
        assert len(err) - 1 <= 200, err  # no 300-digit count in the line
        assert not list(tmp_path.iterdir())


RUNTIME_ONLY = """
import sys
from filamentlab import cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
sys.modules["scipy"] = None  # any later import of scipy now fails
sys.exit(cli.main(["selfcheck", "--out-dir", sys.argv[1]]))
"""


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test-oracle dependency only: importing the CLI must not
    # load it, and selfcheck must run with it unavailable
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", RUNTIME_ONLY, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("selfcheck-*/run.json"))


@pytest.mark.parametrize("sub, args", [
    ("evolve", {"n_points": 2**14, "n_steps": 40, "store_every": 1}),
    ("nls", {"n_points": 2**14, "n_steps": 240}),
])
def test_nls_runs_stay_inside_their_memory_plan(tmp_path, sub, args):
    # evolve: the library stepper storing every step, on a gaussian bump
    # over a background that is built while traced, as the nls runner
    # builds its datum; nls: the CLI runner
    if sub == "evolve":
        store = args["store_every"]
        problem = nls.NlsProblem(sign=-1, background_a=0.5, t_span=(1.0, 10.0))

        def run():
            bump = nls.gaussian_field(100.0, args["n_points"], 1e-2, 2.0)
            nls.evolve(problem, bump.copy_with(0.5 + bump.values), args["n_steps"],
                       store_every=store)
    else:
        params = {key: kind(default) for key, (kind, default) in cli.SPECS[sub].items()}
        params.update(args)
        store = nls._long_range_store(params["n_steps"])

        def run():
            cli.RUNNERS[sub](params, tmp_path)
    # the nls runner passes each snapshot on as it is made and keeps none
    plan = nls.check_memory(args["n_points"], args["n_steps"], store,
                            streamed=sub == "nls")
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy reports its allocations to tracemalloc; the plan covers the
    # peak and is not loose by more than 2x
    assert peak <= plan <= 2 * peak


def test_nls_cli_plans_2_22_points_inside_the_budget(tmp_path, monkeypatch):
    # plan only: the runner stops where it would build the datum.  Its 26
    # snapshots are not held, so 2^22 points plan under 1 GB, not 2.58 GB
    class Planned(Exception):
        pass

    plans, check = [], nls.check_memory

    def recorded(*args, **kwargs):
        plans.append(check(*args, **kwargs))
        return plans[-1]

    def stop(*args, **kwargs):
        raise Planned

    monkeypatch.setattr(nls, "check_memory", recorded)
    monkeypatch.setattr(nls, "gaussian_field", stop)
    params = {key: kind(default) for key, (kind, default) in cli.SPECS["nls"].items()}
    params["n_points"] = 2**22
    with pytest.raises(Planned):
        cli.RUNNERS["nls"](params, tmp_path)
    assert len(plans) == 1 and plans[0] <= MemoryBudgetExceeded.BUDGET
