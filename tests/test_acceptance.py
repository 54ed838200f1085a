"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured figures (run with pytest -s to see them live).
"""

import json
import math
import re
import time

import numpy as np
import pytest

from filamentlab import cli, flow, geometry, nls, selfsimilar, spiral, theta
from filamentlab.geometry import FrenetFrame, IntrinsicData, SolverConfig


def _report(n, msg, t0, limit):
    elapsed = time.time() - t0
    print(f"PASS criterion {n}: {msg} [{elapsed:.1f}s <= {limit:g}s]")
    assert elapsed <= limit


def test_criterion_1_angle_law():
    t0 = time.time()
    lines = []
    for a in (0.25, 0.5, 1.0):
        exact = math.exp(-math.pi * a * a / 2)
        prof = selfsimilar.profile(a, 400.0)
        est = theta.a1_from_theta(a, 400.0)
        assert abs(prof.a1_estimate - exact) <= 1e-3
        assert abs(est.a1 - exact) <= 1e-3
        assert abs(prof.a1_estimate - est.a1) <= prof.a1_error_bound + est.spread
        lines.append(f"a={a}: frenet {prof.a1_estimate:.5f}, theta {est.a1:.5f},"
                     f" exact {exact:.5f}")
    _report(1, "; ".join(lines), t0, 10.0)


def test_criterion_2_corner_bound():
    t0 = time.time()
    a = 0.5
    prof = selfsimilar.profile(a, 80.0)
    sups = []
    for t in (1.0, 0.25, 0.01):
        rt = math.sqrt(t)
        sig = prof.curve.s_grid
        keep = np.abs(sig * rt) <= 5.0
        chi_vals = rt * prof.curve.points[keep]
        cone = selfsimilar.chi(prof, sig[keep] * rt, 0.0)
        sup = float(np.max(np.linalg.norm(chi_vals - cone, axis=1)))
        assert sup <= 2 * a * rt * (1 + 1e-12)
        sups.append(f"t={t}: sup {sup:.4f} <= {2 * a * rt:.4f}")
    _report(2, "; ".join(sups), t0, 5.0)


def test_criterion_3_self_intersection_dichotomy():
    t0 = time.time()
    small = selfsimilar.self_intersections(selfsimilar.profile(0.1, 100.0))
    large = selfsimilar.self_intersections(selfsimilar.profile(2.0, 100.0))
    assert len(small) == 0
    assert len(large) >= 1
    _report(3, f"a=0.1: 0 zeros; a=2: {len(large)} zeros on (0,100]", t0, 5.0)


def test_criterion_4_conserved_quantities():
    t0 = time.time()
    a = 0.5
    c_fn = lambda s: np.full(np.shape(s), a)
    cfg = SolverConfig(step=4e-3, renorm_every=25)
    theta_drift = 0.0
    for st in theta.canonical_initial_data(a):
        for s_end in (400.0, -400.0):
            traj = theta.theta_solve(c_fn, lambda s: s / 2, st, (0.0, s_end), cfg)
            theta_drift = max(theta_drift, theta.energy_drift(traj, c_fn))
    assert theta_drift <= 1e-8

    nu = 0.5
    f_drift = 0.0
    for s_end in (100.0, -100.0):
        _, fv, fp = spiral.f_solve(1.0, 0.3j, nu, (0.0, s_end))
        E = spiral.f_energy(fv, fp, nu)
        f_drift = max(f_drift, float(np.max(np.abs(E - E[0])) / E[0]))
    assert f_drift <= 1e-8

    params = spiral.SpiralParams(0.4, np.array([0.0, 0.0, 1.0]),
                                 np.array([1.0, 0.0, 0.0]))
    res = spiral.spiral_profile(params, (-100.0, 100.0))
    rot_inv = res.rotation_invariant_defect()
    assert rot_inv <= 1e-8

    x = nls.ComplexField(60.0, 512, np.zeros(512, dtype=complex)).grid()
    v0 = nls.ComplexField(60.0, 512, a + 0.02 * np.exp(-(x**2) / 8))
    problem = nls.NlsProblem(sign=-1, background_a=a, potential="gp",
                             t_span=(1.0, 10.0))
    out = nls.evolve(problem, v0, 800, store_every=100)
    mass = out.mass_drift()
    assert mass <= 1e-10
    _report(4, f"theta drift {theta_drift:.1e}, f drift {f_drift:.1e}, "
               f"rotation invariant {rot_inv:.1e}, mass {mass:.1e}", t0, 10.0)


def test_criterion_5_cross_oracles():
    t0 = time.time()
    a = 0.5
    c_fn = lambda s: np.full(np.shape(s), a)
    tau_fn = lambda s: s / 2
    cfg_t = SolverConfig(step=1e-3, renorm_every=20)
    trajs = [theta.theta_solve(c_fn, tau_fn, st, (0.0, 50.0), cfg_t)
             for st in theta.canonical_initial_data(a)]
    fr_theta = theta.frame_from_theta(*trajs, c=c_fn, E0=0.5)
    fr = geometry.frenet_integrate(c_fn, tau_fn, FrenetFrame.identity(),
                                   (0.0, 50.0),
                                   SolverConfig(step=2.5e-4, renorm_every=80))
    d_routes = float(np.max(np.abs(fr.T - fr_theta.frames[:, 0])))
    assert d_routes <= 1e-6

    params = spiral.SpiralParams(0.0, np.array([0.0, 0.0, 2 * a]),
                                 np.array([1.0, 0.0, 0.0]))
    res = spiral.spiral_profile(params, (-20.0, 20.0))
    prof = selfsimilar.profile(a, 20.0, SolverConfig(step=1e-3, renorm_every=8))
    pts = selfsimilar.evaluate(prof, res.curve.s_grid)[1]
    d_spiral = float(np.max(np.linalg.norm(res.curve.points - pts, axis=1)))
    assert d_spiral <= 1e-6
    _report(5, f"theta-vs-frenet {d_routes:.2e}; spiral(mu=0)-vs-profile "
               f"{d_spiral:.2e}", t0, 10.0)


def _selfsimilar_data(a, t_grid, s_max, ds):
    n_half = int(round(s_max / ds))
    s = ds * np.arange(-n_half, n_half + 1)
    c = a / np.sqrt(t_grid)[:, None] * np.ones(len(s))[None]
    tau = s[None] / (2 * t_grid)[:, None]
    return IntrinsicData(s, t_grid, c, tau)


def test_criterion_6_reconstruction_fidelity():
    t0 = time.time()
    a = 0.5
    tg = 0.05 * 20.0 ** (np.arange(21) / 20)
    data = _selfsimilar_data(a, tg, 5.0, 0.01)
    res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 2 * a]))
    prof = selfsimilar.profile(a, 25.0, SolverConfig(step=1e-3, renorm_every=8))
    worst = 0.0
    for k, tk in enumerate(res.t_grid):
        exact = selfsimilar.chi(prof, res.curves[k].s_grid, tk)
        worst = max(worst, float(np.max(
            np.linalg.norm(res.curves[k].points - exact, axis=1))))
    assert worst <= 1e-4

    # bf_residual convergence order >= 1.9 under halving of (dt, ds)
    residuals = []
    for dt, ds in ((0.04, 0.04), (0.02, 0.02)):
        tri = np.array([0.5 - dt, 0.5, 0.5 + dt])
        d3 = _selfsimilar_data(a, tri, 4.0, ds)
        dense = np.linspace(tri[0], tri[-1], 101)
        series = flow.OriginSeries(dense, 0 * dense, 0 * dense, 0 * dense,
                                   a / np.sqrt(dense))
        r3 = flow.reconstruct_flow(d3, np.eye(3),
                                   np.array([0.0, 0.0, 2 * a * math.sqrt(tri[-1])]),
                                   origin_series=series)
        residuals.append(geometry.bf_residual(*r3.curves, dt=dt))
    order = math.log2(residuals[0] / residuals[1])
    assert order >= 1.9
    _report(6, f"fidelity {worst:.2e} <= 1e-4; bf_residual order {order:.2f}",
            t0, 60.0)


def test_criterion_7_stability_pipeline():
    t0 = time.time()
    a = 0.5
    up = nls.gaussian_field(1100.0, 4096, 1e-2, width=2.0, center=3.0)
    rep = flow.stability_experiment(a, up, 1.0, t_min_factor=1e-4,
                                    s_max=5.0, ds=0.01, n_steps=1400,
                                    n_slices=40)
    assert rep.trace_constant <= 3 * a
    assert rep.cone_defect <= 0.05
    assert abs(rep.gamma_measured - rep.gamma_closed_form) <= 0.05
    _report(7, f"const {rep.trace_constant:.3f} <= {3 * a}; cone "
               f"{rep.cone_defect:.4f}; |gamma err| "
               f"{abs(rep.gamma_measured - rep.gamma_closed_form):.5f}",
            t0, 300.0)


def test_criterion_8_long_range_phase_signature(tmp_path):
    t0 = time.time()
    rc = cli.main(["nls", "--a", "0.5", "--uplus-norm", "1e-2",
                   "--t0", "10", "--t1", "1e4", "--n-steps", "3000",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    run = json.loads(next(tmp_path.glob("nls-*/run.json")).read_text())
    assert run["defect_with_phase"] <= 0.5 * run["defect_without_phase"]
    assert "slope_l2" in run and "slope_deriv_l2" in run
    _report(8, f"with phase {run['defect_with_phase']:.2e} <= 0.5 x "
               f"{run['defect_without_phase']:.2e}; slopes "
               f"l2 {run['slope_l2']:.2f}, deriv {run['slope_deriv_l2']:.2f}",
            t0, 300.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    args = ["profile", "--a", "0.4", "--smax", "15", "--out-dir", str(tmp_path)]
    assert cli.main(args) == 0
    rdir = next(tmp_path.glob("profile-*"))
    first = {p.name: p.read_bytes() for p in rdir.iterdir()}
    assert cli.main(args) == 0
    second = {p.name: p.read_bytes() for p in rdir.iterdir()}
    mask = re.compile(rb'"timestamp": "[^"]*"')
    assert set(first) == set(second)
    for name in first:
        assert mask.sub(b"T", first[name]) == mask.sub(b"T", second[name]), name
    _report(9, f"{len(first)} artifacts byte-identical modulo timestamp", t0, 60.0)
