import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from filamentlab import geometry, theta
from filamentlab.errors import CurvatureVanishes, EnergyDegenerate, InvalidParameter
from filamentlab.geometry import FrenetFrame, frenet_integrate
from filamentlab.theta import ThetaState, canonical_initial_data, theta_solve

CONST_A = lambda a: (lambda s: np.full(np.shape(s), float(a)))
HALF_S = lambda s: s / 2
ZERO = lambda s: np.zeros(np.shape(s))


def test_circle_closed_form():
    # c = 1, tau = 0: theta'' + theta/4 = 0, theta(0)=0, theta'(0)=1/sqrt2
    grid = dict(step=1e-3, out_every=10)
    traj = theta_solve(CONST_A(1.0), ZERO, ThetaState(0.0, 1 / math.sqrt(2)),
                       (0.0, 12.0), **grid)
    exact = math.sqrt(2) * np.sin(traj.s / 2)
    assert np.max(np.abs(traj.theta - exact)) < 1e-9
    # 1 - |theta|^2 = cos s (first tangent component of the circle)
    assert np.max(np.abs(1 - np.abs(traj.theta) ** 2 - np.cos(traj.s))) < 1e-9


def test_zero_data_stays_zero():
    grid = dict(step=1e-2, out_every=4)
    traj = theta_solve(CONST_A(1.0), HALF_S, ThetaState(0.0, 0.0), (0.0, 5.0), **grid)
    assert np.max(np.abs(traj.theta)) == 0.0
    assert np.max(np.abs(traj.theta_prime)) == 0.0


def test_canonical_data_have_energy_half():
    for c0 in (0.3, 1.0, 2.5):
        for st in canonical_initial_data(c0):
            E0 = abs(st.theta_prime / c0) ** 2 + abs(st.theta) ** 2 / 4
            assert E0 == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
def test_energy_conserved_selfsimilar_long_span(a):
    # all three canonical data, |s| <= 400, relative drift <= 1e-8
    grid = dict(step=4e-3, out_every=25)
    c = CONST_A(a)
    for st in canonical_initial_data(a):
        for s_end in (400.0, -400.0):
            traj = theta_solve(c, HALF_S, st, (0.0, s_end), **grid)
            assert theta.energy_drift(traj, c) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(hst.floats(0.5, 2.0), hst.floats(-0.5, 0.5), hst.floats(0.1, 3.0),
       hst.floats(0.0, 2 * math.pi), hst.floats(-2.0, 2.0), hst.floats(-2.0, 2.0),
       hst.sampled_from([20.0, -20.0]))
def test_energy_conserved_to_roundoff_for_varying_curvature(c0, r1, omega, phi,
                                                            tau0, tau1, s_end):
    # each step is unitary in w = (theta/2, theta'/c), so E = |w|^2 moves
    # only by roundoff, however c varies
    c = lambda s: c0 + r1 * c0 * np.sin(omega * s + phi)
    tau = lambda s: tau0 + tau1 * np.cos(omega * s) + s / 2
    grid = dict(step=1e-3, out_every=20)
    for init in canonical_initial_data(float(c(0.0))):
        traj = theta_solve(c, tau, init, (0.0, s_end), **grid)
        assert theta.energy_drift(traj, c) <= 1e-12


def test_frame_from_theta_circle_components():
    grid = dict(step=1e-3, out_every=10)
    c = CONST_A(1.0)
    trajs = [theta_solve(c, ZERO, st, (0.0, 12.0), **grid)
             for st in canonical_initial_data(1.0)]
    fr = theta.frame_from_theta(*trajs, c=c, E0=0.5)
    n1 = fr.frames[:, 1, 0]
    b1 = fr.frames[:, 2, 0]
    assert np.max(np.abs(n1 + np.sin(fr.s))) < 1e-6
    assert np.max(np.abs(b1)) < 1e-6
    assert geometry.frame_orthonormality_defect(fr.frames) < 2e-6


@pytest.mark.parametrize(
    "c_fn,tau_fn,span",
    [
        (CONST_A(0.5), HALF_S, 50.0),                       # acceptance case
        (lambda s: 1 + 0.4 * np.sin(s), lambda s: 0.3 * np.cos(s), 20.0),
    ],
)
def test_tangent_cross_oracle_theta_vs_frenet(c_fn, tau_fn, span):
    grid_t = dict(step=1e-3, out_every=20)
    trajs = [theta_solve(c_fn, tau_fn, st, (0.0, span), **grid_t)
             for st in canonical_initial_data(float(np.asarray(c_fn(0.0))))]
    fr_theta = theta.frame_from_theta(*trajs, c=c_fn, E0=0.5)
    grid_f = dict(step=2.5e-4, out_every=80)
    fr = frenet_integrate(c_fn, tau_fn, FrenetFrame.identity(), (0.0, span), **grid_f)
    assert np.max(np.abs(fr.s - fr_theta.s)) < 1e-9
    assert np.max(np.abs(fr.T - fr_theta.frames[:, 0])) <= 1e-12


def test_full_frame_cross_oracle_smooth_coefficients():
    c_fn = lambda s: 1.2 + 0.5 * np.sin(0.7 * s)
    tau_fn = lambda s: 0.4 - 0.2 * np.cos(s)
    grid = dict(step=5e-4, out_every=40)
    trajs = [theta_solve(c_fn, tau_fn, st, (0.0, 20.0), **grid)
             for st in canonical_initial_data(1.2)]
    fr_theta = theta.frame_from_theta(*trajs, c=c_fn, E0=0.5)
    fr = frenet_integrate(c_fn, tau_fn, FrenetFrame.identity(), (0.0, 20.0),
                          step=2.5e-4, out_every=80)
    assert np.max(np.abs(fr.frames - fr_theta.frames)) <= 1e-12


@pytest.mark.parametrize("a,ref", [(0.5, 0.6752), (1.0, 0.2079)])
def test_a1_from_theta_matches_closed_form(a, ref):
    est = theta.a1_from_theta(a, 400.0)
    assert abs(est.a1 - math.exp(-math.pi * a * a / 2)) < 1e-3
    assert abs(est.a1 - ref) < 1e-3
    assert est.spread >= 0


def test_route_vs_route_within_uncertainties():
    from filamentlab import selfsimilar

    for a in (0.25, 0.5, 1.0):
        prof = selfsimilar.profile(a, 400.0)
        est = theta.a1_from_theta(a, 400.0)
        assert abs(est.a1 - prof.a1_estimate) <= est.spread + prof.a1_error_bound


def test_rk4_method_agrees_on_short_span():
    """Magnus-4 theta route against an independent adaptive Runge-Kutta oracle."""
    from scipy.integrate import solve_ivp

    c = CONST_A(0.8)
    st = canonical_initial_data(0.8)[0]
    grid = dict(step=2e-4, out_every=50)
    t1 = theta_solve(c, HALF_S, st, (0.0, 10.0), **grid)
    # theta'' = -i (s/2) theta' - (c^2/4) theta with c' = 0
    ref = solve_ivp(lambda s, y: [y[1], -0.5j * s * y[1] - 0.16 * y[0]], (0.0, 10.0),
                    np.array([st.theta, st.theta_prime], dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t1.s)
    assert ref.success
    assert np.max(np.abs(t1.theta - ref.y[0])) < 1e-8


def test_errors():
    grid = dict(step=1e-2, out_every=4)
    with pytest.raises(CurvatureVanishes):
        theta_solve(lambda s: np.maximum(1 - s, 0.0), ZERO, ThetaState(0, 1),
                    (0.0, 3.0), **grid)
    with pytest.raises(InvalidParameter):
        theta.a1_from_theta(0.0, 10.0)
    with pytest.raises(InvalidParameter):
        theta.a1_from_theta(math.nan, 10.0)
    for s_max in (math.inf, math.nan, 0.0, -5.0):
        with pytest.raises(InvalidParameter, match="s_max"):
            theta.a1_from_theta(0.5, s_max)
    c = CONST_A(1.0)
    tr = theta_solve(c, ZERO, ThetaState(0.0, 1.0), (0.0, 1.0), **grid)
    with pytest.raises(EnergyDegenerate):
        theta.frame_from_theta(tr, tr, tr, c=c, E0=0.0)
