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

from filamentlab import cli, dataio, nls
from filamentlab.dataio import dumps_json
from filamentlab.errors import FilamentError


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


def test_evolve_gp_const_datum(tmp_path):
    rc = run_cli(
        ["evolve", "--problem", "gp", "--a", "0.5", "--datum", "const",
         "--t0", "1", "--t1", "4", "--n-steps", "100", "--n-points", "256",
         "--length", "50"],
        tmp_path,
    )
    assert rc == 0
    data, path = read_run_json(tmp_path, "evolve")
    assert data["mass_drift"] <= 1e-10
    assert max(abs(e) for e in data["energy_series"]) < 1e-12
    fields = list(path.parent.glob("field_*.csv"))
    assert len(fields) >= 2


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")

    assert cli.main(["angle", "--nope", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[usage]:")


@pytest.mark.parametrize("args", [["theta"], ["angle", "--method", "both"]],
                         ids=["theta-subcommand", "angle-method"])
def test_retired_angle_entry_points_are_usage_errors(tmp_path, capsys, args):
    # angle is the one way to the angle-law figure
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
    ["evolve", "--n-steps", "0"],
    ["evolve", "--n-steps", "-3"],
    ["nls", "--n-steps", "-3", "--n-points", "256", "--length", "100"],
    ["nls", "--n-steps", "1", "--n-points", "256", "--length", "100"],
    ["evolve", "--store-every", "-1"],
], ids=["evolve-zero-steps", "evolve-negative-steps", "nls-negative-steps",
        "nls-one-step", "evolve-negative-store-every"])
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
# failed-run rows whose one line must also name what is wrong
FAILURE_NAMES = {("stability", "--ds", "0.3"): "s = 0 must be a grid node",
                 ("stability", "--smax", "0.5"): "the cone defect reads |s| >= 1",
                 ("profile", "--a", "1e300"): "propagator became non-finite",
                 ("profile", "--smax", "1e154", "--step", "1e-160"): "inf steps needed",
                 ("nls", "--length", "1e300", *SMALL_GRID): "narrower than the grid step"}


@pytest.mark.parametrize("args", [
    ["evolve", "--n-steps", "0"],
    ["spiral", "--smax", "-1"],
    ["spiral", "--smax", "1e6"],
    ["profile", "--step", "inf"],
    ["profile", "--smax", "inf"],
    ["angle", "--smax", "inf"],
    ["profile", "--smax", "1e300"],
    ["angle", "--smax", "1e300"],
    ["evolve", "--t0", "inf", *SMALL_GRID],
    ["nls", "--t1", "inf", *SMALL_GRID],
    ["nls", "--uplus-norm", "inf", *SMALL_GRID],
    ["stability", "--width", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--t0", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--tmin-factor", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--ds", "0", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--smax=inf", *SMALL_GRID, "--n-slices", "8"],
    ["stability", "--ds=-inf", *SMALL_GRID, "--n-slices", "8"],
    ["evolve", "--length", "0", *SMALL_GRID],
    ["evolve", "--length", "-5", *SMALL_GRID],
    ["evolve", "--length", "inf", *SMALL_GRID],
    ["nls", "--length=-inf", *SMALL_GRID],
    ["nls", "--t0", "inf", *SMALL_GRID],
    ["nls", "--uplus-norm", "-0.01", *SMALL_GRID],
    ["evolve", "--coeff", "nan", *SMALL_GRID],
    ["evolve", "--coeff", "-1", *SMALL_GRID],
    ["profile", "--step", "nan"],
    ["profile", "--step", "-1"],
    ["profile", "--step", "10", "--smax", "20"],
    ["angle", "--config", "{bad_config}"],
    ["evolve", "--length", "5e-324", "--n-points", "64", "--n-steps", "4"],
    ["evolve", "--length", "1e-300", "--n-points", "64", "--n-steps", "4"],
    ["nls", "--width", "1e-300", *SMALL_GRID, "--length", "100"],
    ["stability", "--width", "1e-300", "--n-points", "256", "--n-steps", "20",
     "--n-slices", "8", "--tmin-factor", "1e-2"],
    ["stability", "--width", "0.1", "--tmin-factor", "1e-2"],
    ["stability", "--width", "0.01"],
    ["evolve", "--datum", "gaussian", "--width", "1e200", *SMALL_GRID],
    ["stability", "--n-steps", "100000000"],
    ["stability", "--n-points", str(2**40)],
    ["stability", "--tmin-factor", "1e-6"],
    ["stability", "--smax", "1e300", "--ds", "1e300", "--t0", "1e-97",
     "--tmin-factor", "1e-2"],
    ["nls", "--n-points", "134217728"],
    ["evolve", "--n-points", "268435456", "--n-steps", "2"],
    ["evolve", "--n-steps", "1000000", "--store-every", "1", "--n-points", "4096"],
    ["stability", "--t0", "1e300"],
    ["stability", "--tmin-factor", "1e300"],
    ["stability", "--uplus-norm", "1e300"],
    ["nls", "--uplus-norm", "1e300"],
    ["evolve", "--a", "1e300"],
    ["spiral", "--mu", "1e300"],
    ["nls", "--a", "1e300"],
    ["stability", "--ds", "0.3"],
    ["stability", "--smax", "0.5"],
    ["profile", "--a", "1e300"],
    ["spiral", "--a", "1e300"],
    ["angle", "--a", "1e300"],
    ["nls", "--length", "1e300", *SMALL_GRID],
    ["profile", "--smax", "1e154", "--step", "1e-160"],
], ids=["evolve-zero-steps", "spiral-negative-smax", "spiral-over-step-limit",
        "profile-inf-step", "profile-inf-smax", "angle-inf-smax",
        "profile-huge-smax", "angle-huge-smax", "evolve-inf-t0", "nls-inf-t1",
        "nls-inf-uplus-norm",
        "stability-zero-width", "stability-zero-t0", "stability-zero-tmin-factor",
        "stability-zero-ds", "stability-inf-smax", "stability-minus-inf-ds",
        "evolve-zero-length", "evolve-negative-length", "evolve-inf-length",
        "nls-minus-inf-length", "nls-inf-t0", "nls-negative-uplus-norm",
        "evolve-nan-coeff", "evolve-negative-coeff",
        "profile-nan-step", "profile-negative-step", "profile-step-above-spacing",
        "angle-bad-config-value",
        "evolve-subnormal-grid-step", "evolve-tiny-grid-step",
        "nls-width-squared-underflows", "stability-width-squared-underflows",
        "stability-no-time-past-horizon", "stability-unresolved-datum",
        "evolve-width-squared-overflows", "stability-huge-n-steps",
        "stability-huge-n-points", "stability-huge-profile-span",
        "stability-infinite-profile-span", "nls-huge-n-points",
        "evolve-huge-n-points", "evolve-huge-snapshot-count",
        "stability-huge-t0", "stability-huge-tmin-factor", "stability-huge-uplus-norm",
        "nls-huge-uplus-norm", "evolve-huge-a", "spiral-huge-mu", "nls-huge-a",
        "stability-no-node-at-zero", "stability-smax-below-cone-floor",
        "profile-huge-a", "spiral-huge-a", "angle-huge-a", "nls-huge-length",
        "profile-step-count-beyond-float"])
def test_failed_run_leaves_no_directory(tmp_path_factory, tmp_path, capsys, args):
    bad_config = tmp_path_factory.mktemp("config") / "bad.cfg"
    bad_config.write_text("a = abc\n")
    args = [str(bad_config) if x == "{bad_config}" else x for x in args]
    # a config value is parsed like its flag: a bad one is a usage error
    kind = "usage" if "--config" in args else "validation"
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
        dataio.write(outdir / "profile.csv", "s", [np.arange(3.0)])
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
    "evolve": ["--n-points", "256", "--n-steps", "10"],
    # a box of 100 resolves the width-2 bump on 256 points (the default 900
    # does not, and the alias gate would reject every run)
    "nls": ["--n-points", "256", "--n-steps", "10", "--length", "100"],
    "spiral": ["--smax", "5"],
    "stability": ["--n-points", "256", "--n-steps", "20", "--n-slices", "8",
                  "--tmin-factor", "1e-2"],
}
SWEEP = [(sub, key.replace("_", "-"), value)
         for sub, spec in cli.SPECS.items()
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
    ("evolve", {"n_points": 2**14, "n_steps": 40, "store_every": 1, "datum": "gaussian"}),
    ("nls", {"n_points": 2**14, "n_steps": 240}),
])
def test_nls_runs_stay_inside_their_memory_plan(tmp_path, sub, args):
    params = {key: kind(default) for key, (kind, default) in cli.SPECS[sub].items()}
    params.update(args)
    store = params["store_every"] if sub == "evolve" else nls._long_range_store(
        params["n_steps"])
    plan = nls.check_memory(params["n_points"], params["n_steps"], store)
    tracemalloc.start()
    try:
        cli.RUNNERS[sub](params, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # numpy reports its allocations to tracemalloc; the plan covers the
    # peak and is not loose by more than 2x
    assert peak <= plan <= 2 * peak
