"""Command-line front end: one subcommand per experiment, deterministic
CSV/JSON artifacts under <out_dir>/<subcommand>-<config-hash>/."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, flow, geometry, nls, selfsimilar, spiral, theta
from .errors import FilamentError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_config(path):
    params = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line: {line!r}")
        k, v = (x.strip() for x in line.split("=", 1))
        params[k.replace("-", "_")] = v
    return params


def _outdir(args, sub, params):
    """Create the run directory; also return the directories this call made,
    deepest first."""
    base = args.out_dir or os.environ.get("FILAMENTLAB_OUT") or "runs"
    h = dataio.config_hash(params)
    d = Path(base) / f"{sub}-{h}"
    made = [p for p in (d, *d.parents) if not p.exists()]
    d.mkdir(parents=True, exist_ok=True)
    return d, made


def _discard(outdir, made):
    """Remove what a failed run leaves: every file in its run directory, so
    that a run.json there always belongs to a run that completed, then the
    directories the run created."""
    try:
        for f in outdir.iterdir() if outdir else ():
            f.unlink()
        for d in made:
            d.rmdir()
    except OSError:
        return


def _emit(outdir, summary):
    payload = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    payload.update(summary)
    dataio.dump_json(payload, outdir / "run.json")


# ---------------------------------------------------------------- commands

SPECS = {
    "profile": {"a": (float, 0.5), "smax": (float, 20.0), "step": (float, 0.0)},
    "angle": {"a": (float, 0.5), "smax": (float, 400.0)},
    "evolve": {
        "problem": (str, "gp"), "sign": (int, -1), "a": (float, 0.5),
        "t0": (float, 1.0), "t1": (float, 10.0), "n_steps": (int, 400),
        "n_points": (int, 1024), "length": (float, 100.0),
        "datum": (str, "const"), "amp": (float, 1e-2), "width": (float, 2.0),
        "seed": (int, 0), "store_every": (int, 50), "coeff": (float, 0.0),
    },
    "nls": {
        "a": (float, 0.5), "uplus_norm": (float, 1e-2), "width": (float, 2.0),
        "sign": (int, -1), "t0": (float, 10.0), "t1": (float, 1e4),
        "n_steps": (int, 3000), "n_points": (int, 8192), "length": (float, 900.0),
    },
    "spiral": {"mu": (float, 0.5), "a": (float, 0.5), "smax": (float, 20.0)},
    "stability": {
        "a": (float, 0.5), "uplus_norm": (float, 1e-2), "width": (float, 2.0),
        "t0": (float, 1.0), "tmin_factor": (float, 1e-4), "smax": (float, 5.0),
        "ds": (float, 0.01), "n_steps": (int, 1400), "n_slices": (int, 40),
        "n_points": (int, 4096),
    },
    "selfcheck": {},
}


def _run_profile(params, outdir):
    a, smax = params["a"], params["smax"]
    if a < 0 or smax <= 0:
        raise FilamentError("profile needs a >= 0 and smax > 0")
    # --step 0 keeps the default step; a given step keeps the default
    # spacing, and one above that spacing is rejected
    cfg = selfsimilar._default_cfg(smax, params["step"]) if params["step"] != 0 else None
    prof = selfsimilar.profile(a, smax, cfg)
    prof.curve.write_csv(outdir / "profile.csv")
    inter = selfsimilar.self_intersections(prof) if a > 0 else np.array([])
    return {
        "a": prof.a,
        "s_max": prof.s_max,
        "A_plus": prof.A_plus,
        "A_minus": prof.A_minus,
        "a1_estimate": prof.a1_estimate,
        "a1_error_bound": prof.a1_error_bound,
        "gamma": prof.gamma_measured(),
        "intersections": inter,
    }


def _run_angle(params, outdir):
    a, smax = params["a"], params["smax"]
    a1_cf, gamma_cf = selfsimilar.corner_angle(a)
    prof = selfsimilar.profile(a, smax)
    est = theta.a1_from_theta(a, smax) if a > 0 else None  # route needs a > 0
    return {"a": a, "closed_form": a1_cf, "gamma_closed_form": gamma_cf,
            "ode_estimate": prof.a1_estimate, "ode_error_bound": prof.a1_error_bound,
            "theta_estimate": est.a1 if est else None,
            "theta_spread": est.spread if est else None,
            "theta_energy_drift": est.energy_drift if est else None,
            "gamma_measured": prof.gamma_measured()}


def _run_evolve(params, outdir):
    potential = {"gp": "gp", "cubic": "none"}.get(params["problem"])
    if potential is None:
        raise FilamentError("problem must be 'gp' or 'cubic'")
    coeff = params["coeff"] if params["coeff"] != 0 else None  # 0: the default
    problem = nls.NlsProblem(sign=params["sign"], background_a=params["a"],
                             potential=potential,
                             t_span=(params["t0"], params["t1"]), coeff=coeff)
    nls.check_memory(params["n_points"], params["n_steps"], params["store_every"])
    f0 = nls.ComplexField.zeros(params["length"], params["n_points"])
    if params["datum"] == "const":
        v0 = f0.copy_with(np.full(params["n_points"], params["a"], dtype=complex))
    elif params["datum"] == "gaussian":
        bump = nls.gaussian_field(params["length"], params["n_points"],
                                  params["amp"], params["width"])
        v0 = f0.copy_with(params["a"] + bump.values)
    elif params["datum"] == "random":
        rng = np.random.default_rng(params["seed"])
        modes = np.arange(-4, 5)
        coefs = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        x = f0.grid()
        w = sum(c * np.exp(2j * np.pi * m * x / params["length"])
                for m, c in zip(modes, coefs))
        v0 = f0.copy_with(params["a"] + params["amp"] * w / np.abs(w).max())
    else:
        raise FilamentError("datum must be const/gaussian/random")
    res = nls.evolve(problem, v0, params["n_steps"],
                     store_every=params["store_every"])
    dataio.write_field_csvs(res.fields, [outdir / f"field_{i:04d}.csv"
                                         for i in range(len(res.fields))])
    energy = None
    if potential == "gp":
        energy = [nls.gp_energy(f, t, params["a"], params["sign"], problem.coeff)
                  for f, t in zip(res.fields, res.times)]
    return {"sign": params["sign"], "a": params["a"], "t_grid": res.times,
            "mass_drift": res.mass_drift(), "energy_series": energy}


def _run_nls(params, outdir):
    nls.check_memory(params["n_points"], params["n_steps"],
                     nls._long_range_store(params["n_steps"]))
    up = nls.gaussian_field(params["length"], params["n_points"],
                            params["uplus_norm"], params["width"])
    report = nls.long_range_comparison(
        params["a"], up, params["sign"], (params["t0"], params["t1"]),
        params["n_steps"],
    )
    return {"a": params["a"], "sign": params["sign"], **report}


def _run_spiral(params, outdir):
    a = params["a"]
    sp = spiral.SpiralParams(params["mu"], np.array([0.0, 0.0, 2 * a]),
                             np.array([1.0, 0.0, 0.0]))
    res = spiral.spiral_profile(sp, (-params["smax"], params["smax"]))
    res.curve.write_csv(outdir / "spiral.csv")
    return {"mu": sp.mu, "nu": sp.nu, "E0": sp.E0, "a": a,
            "rotation_invariant_defect": res.rotation_invariant_defect(),
            "unit_speed_defect": res.unit_speed_defect()}


def _run_stability(params, outdir):
    a = params["a"]
    flow.check_scales(params["t0"], params["tmin_factor"], params["smax"], params["ds"],
                      params["n_points"], params["n_steps"], params["n_slices"])
    # periodic box: perturbation support plus the dispersive spreading scale
    length = 8.0 * (params["width"]
                    + math.sqrt(1.0 / (params["t0"] * params["tmin_factor"]))) * 1.3
    up = nls.gaussian_field(length, params["n_points"], params["uplus_norm"],
                            params["width"])
    report = flow.stability_experiment(
        a, up, params["t0"], t_min_factor=params["tmin_factor"],
        s_max=params["smax"], ds=params["ds"], n_steps=params["n_steps"],
        n_slices=params["n_slices"],
    )
    dataio.write_csvs([curve.csv_job(outdir / f"frame_{i:04d}.csv")
                       for i, curve in enumerate(report.flow.curves)])
    return report.to_dict()


def _run_selfcheck(params, outdir):
    checks = []

    def check(name, value, bound):
        ok = value <= bound
        checks.append((name, ok, value, bound))
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.3e} (bound {bound:g})")

    cfg = geometry.SolverConfig(step=1e-3, renorm_every=16)
    circ = geometry.frenet_integrate(lambda s: np.ones(np.shape(s)),
                                     lambda s: np.zeros(np.shape(s)),
                                     geometry.FrenetFrame.identity(),
                                     (0.0, 2 * math.pi), cfg)
    check("geometry.circle_closure", float(np.linalg.norm(circ.T[-1] - circ.T[0])), 1e-6)
    check("geometry.orthonormality", geometry.frame_orthonormality_defect(circ.frames), 1e-8)

    prof = selfsimilar.profile(0.5, 60.0)
    # the profile's left half is the mirror of its right half, so its parity
    # holds by construction: measure the mirror against a direct run instead
    check("selfsimilar.parity", selfsimilar.mirror_defect(0.5, 60.0), 1e-8)
    check("selfsimilar.modulus_law", selfsimilar.modulus_defect(prof), 1e-6)
    t = 0.25
    sig = prof.curve.s_grid
    keep = np.abs(sig) <= 5.0 / math.sqrt(t)
    chi_v = math.sqrt(t) * prof.curve.points[keep]
    sA = selfsimilar.chi(prof, sig[keep] * math.sqrt(t), 0.0)
    check("selfsimilar.corner_bound",
          float(np.max(np.linalg.norm(chi_v - sA, axis=1)) / (2 * 0.5 * math.sqrt(t))),
          1.0 + 1e-12)

    est = theta.a1_from_theta(0.5, 100.0)
    check("theta.energy_drift", est.energy_drift, 1e-8)
    check("theta.angle_vs_closed_form",
          abs(est.a1 - selfsimilar.corner_angle(0.5)[0]), 1e-3)

    sp = spiral.SpiralParams(0.4, np.array([0.0, 0.0, 1.0]),
                             np.array([1.0, 0.0, 0.0]))
    res = spiral.spiral_profile(sp, (-30.0, 30.0))
    check("spiral.rotation_invariant", res.rotation_invariant_defect(), 1e-8)
    sarr, fv, fp = spiral.f_solve(1.0, 0.3j, 0.5, (0.0, 30.0))
    E = spiral.f_energy(fv, fp, 0.5)
    check("spiral.f_energy_drift", float(np.max(np.abs(E - E[0])) / E[0]), 1e-8)

    box = nls.ComplexField(50.0, 256, np.full(256, 0.5, dtype=complex))
    pr = nls.NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(1.0, 5.0))
    out = nls.evolve(pr, box, 200)
    check("nls.constant_solution",
          float(np.max(np.abs(out.fields[-1].values - 0.5))), 1e-12)
    check("nls.mass_drift", out.mass_drift(), 1e-10)

    ok = all(c[1] for c in checks)
    return {"checks": [{"name": n, "ok": o, "value": v, "bound": b}
                       for n, o, v, b in checks], "all_ok": ok}


RUNNERS = {
    "profile": _run_profile,
    "angle": _run_angle,
    "evolve": _run_evolve,
    "nls": _run_nls,
    "spiral": _run_spiral,
    "stability": _run_stability,
    "selfcheck": _run_selfcheck,
}


def build_parser():
    p = _Parser(prog="filamentlab",
                description="Self-similar binormal-flow laboratory")
    sub = p.add_subparsers(dest="command")
    for name, spec in SPECS.items():
        sp = sub.add_parser(name, prog=f"filamentlab {name}")
        for key, (kind, default) in spec.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                            default=default)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out-dir", "-o", dest="out_dir", default=None)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("missing subcommand")
        if args.config:
            config = _read_config(args.config)
            unknown = set(config) - set(SPECS[args.command])
            if unknown:
                raise _UsageError(f"unknown config keys: {sorted(unknown)}")
            # config entries parse as flags placed before the explicit ones,
            # which therefore win (argparse keeps the last occurrence)
            entries = [f"--{k.replace('_', '-')}={v}" for k, v in config.items()]
            args = parser.parse_args([argv[0], *entries, *argv[1:]])
        params = {key: getattr(args, key) for key in SPECS[args.command]}
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2
    outdir, made = None, []
    try:
        outdir, made = _outdir(args, args.command, params)
        summary = RUNNERS[args.command](params, outdir)
        _emit(outdir, summary)
        print(outdir)
        return 0 if summary.get("all_ok", True) else 1
    except (FilamentError, ValueError) as exc:
        _discard(outdir, made)
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        _discard(outdir, made)
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
