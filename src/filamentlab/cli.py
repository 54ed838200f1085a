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

from . import dataio, flow, geometry, integrators, nls, selfsimilar, spiral, theta
from .errors import FilamentError, GridTooCoarse


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
    "profile": {"a": (float, 0.5), "smax": (float, 20.0)},
    "angle": {"a": (float, 0.5), "smax": (float, 400.0)},
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
    prof = selfsimilar.profile(params["a"], params["smax"])
    dataio.write_csvs([prof.csv_job(outdir / "profile.csv")])
    inter = selfsimilar.self_intersections(prof) if prof.a > 0 else np.array([])
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
    # the profile's limit directions and their bound, from its end node alone
    bound = selfsimilar.span_and_bound(a, smax)[1]
    *_, A_plus, A_minus = selfsimilar.sample(a, smax, [])
    est = theta.a1_from_theta(a, smax) if a > 0 else None  # route needs a > 0
    return {"a": a, "closed_form": a1_cf, "gamma_closed_form": gamma_cf,
            "ode_estimate": float(A_plus[0]), "ode_error_bound": bound,
            "theta_estimate": est.a1 if est else None,
            "theta_spread": est.spread if est else None,
            "theta_energy_drift": est.energy_drift if est else None,
            "gamma_measured": selfsimilar.gamma_between(A_plus, A_minus)}


def _run_nls(params, outdir):
    nls.check_memory(params["n_points"], params["n_steps"])
    up = nls.gaussian_field(params["length"], params["n_points"],
                            params["uplus_norm"], params["width"])
    report = nls.long_range_comparison(
        params["a"], up, params["sign"], (params["t0"], params["t1"]),
        params["n_steps"],
    )
    return {"a": params["a"], "sign": params["sign"], **report}


# criterion 4's bound on a rotating profile's invariant |c^2 + mu T3 + nu|
_ROTATION_INVARIANT_MAX = 1e-8


def _run_spiral(params, outdir):
    a = params["a"]
    sp = spiral.SpiralParams(params["mu"], np.array([0.0, 0.0, 2 * a]),
                             np.array([1.0, 0.0, 0.0]))
    res = spiral.spiral_profile(sp, (-params["smax"], params["smax"]))
    defect = res.rotation_invariant_defect()
    if not defect <= _ROTATION_INVARIANT_MAX:
        raise GridTooCoarse(
            f"rotation invariant defect {defect:.3g} above {_ROTATION_INVARIANT_MAX:g}: "
            f"the profile grid spiral._GRID = {spiral._GRID} (step, out_every) "
            "does not resolve this profile")
    dataio.write_csvs([res.curve.csv_job(outdir / "spiral.csv")])
    return {"mu": sp.mu, "nu": sp.nu, "E0": sp.E0, "a": a,
            "rotation_invariant_defect": defect,
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

    _, circ, _ = integrators.propagate_frame(lambda s: np.ones(np.shape(s)),
                                             lambda s: np.zeros(np.shape(s)), 0.0,
                                             2 * math.pi, np.eye(3), step=1e-3, out_every=16)
    check("geometry.circle_closure", float(np.linalg.norm(circ[-1, 0] - circ[0, 0])), 1e-6)
    check("geometry.orthonormality", geometry.frame_orthonormality_defect(circ), 1e-8)

    prof = selfsimilar.profile(0.5, 60.0)
    # the profile's left half is the mirror of its right half, so its parity
    # holds by construction: measure the mirror against a direct run instead
    check("selfsimilar.parity", selfsimilar.mirror_defect(0.5, 60.0), 1e-8)
    check("selfsimilar.modulus_law", selfsimilar.modulus_defect(prof), 1e-6)
    # read on the half: by parity the distance to the cone at -s is the one
    # at s, component for component up to sign
    t = 0.25
    sig = prof.half.s_grid
    keep = sig <= 5.0 / math.sqrt(t)
    chi_v = math.sqrt(t) * prof.half.points[keep]
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
    check("spiral.rotation_invariant", res.rotation_invariant_defect(),
          _ROTATION_INVARIANT_MAX)
    sarr, fv, fp = spiral.f_solve(1.0, 0.3j, 0.5, (0.0, 30.0))
    E = spiral.f_energy(fv, fp, 0.5)
    check("spiral.f_energy_drift", float(np.max(np.abs(E - E[0])) / E[0]), 1e-8)

    box = nls.ComplexField(50.0, 256, np.full(256, 0.5, dtype=complex))
    pr = nls.NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(1.0, 5.0))
    out = nls.evolve(pr, box, 200)
    check("nls.constant_solution",
          float(np.max(np.abs(out.final.values - 0.5))), 1e-12)
    check("nls.mass_drift", out.mass_drift(), 1e-10)

    ok = all(c[1] for c in checks)
    return {"checks": [{"name": n, "ok": o, "value": v, "bound": b}
                       for n, o, v, b in checks], "all_ok": ok}


RUNNERS = {
    "profile": _run_profile,
    "angle": _run_angle,
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
    except BaseException as exc:
        # whatever stops a run, an interrupt included, leaves nothing behind;
        # only the typed failures become an exit code
        _discard(outdir, made)
        if isinstance(exc, (FilamentError, ValueError)):
            print(f"error[validation]: {exc}", file=sys.stderr)
        elif isinstance(exc, OSError):
            print(f"error[io]: {exc}", file=sys.stderr)
        else:
            raise
        return 2


if __name__ == "__main__":
    sys.exit(main())
