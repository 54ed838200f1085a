import math

import numpy as np
import pytest

from filamentlab import selfsimilar, spiral
from filamentlab.errors import (
    ConstraintViolated,
    InvalidParameter,
    StepLimitExceeded,
)
from filamentlab.geometry import SolverConfig
from filamentlab.spiral import (
    SpiralParams,
    f_energy,
    f_solve,
    g_of,
    spiral_chi,
    spiral_profile,
    yh_evolve,
)

E1 = np.array([1.0, 0.0, 0.0])


def make_params(mu, a):
    return SpiralParams(mu, np.array([0.0, 0.0, 2 * a]), E1)


def test_params_derivation_and_constraint():
    a = 0.5
    p = make_params(0.0, a)
    assert p.nu == pytest.approx(-a * a, abs=1e-14)
    assert p.c0_sq == pytest.approx(a * a, abs=1e-14)

    p = make_params(0.3, a)
    # nu = -mu T0_z - |(I+A)G0|^2/4; the xy rotation block leaves e3 alone
    assert p.nu == pytest.approx(-0.25 * (2 * a) ** 2, abs=1e-14)

    with pytest.raises(ConstraintViolated):
        SpiralParams(0.3, np.array([1.0, 0.0, 0.0]), E1)  # (I+A)G0 . T0 != 0
    with pytest.raises(ConstraintViolated):
        SpiralParams(0.3, np.array([0.0, 0.0, 1.0]), np.array([2.0, 0.0, 0.0]))


def test_mu_zero_reduces_to_selfsimilar():
    a = 0.5
    res = spiral_profile(make_params(0.0, a), (-20.0, 20.0))
    prof = selfsimilar.profile(a, 20.0)
    # compare on the coarser of the two grids
    pts = selfsimilar._hermite_eval(prof.curve, res.curve.s_grid)
    assert np.max(np.linalg.norm(res.curve.points - pts, axis=1)) <= 1e-6
    # rotation invariant with mu=0: |T'|^2 = -nu = a^2 (constant curvature)
    assert np.max(np.abs(res.c_sq - a * a)) <= 1e-8


def test_unit_speed_and_rotation_invariant_long_span():
    res = spiral_profile(make_params(0.4, 0.5), (-100.0, 100.0))
    assert res.unit_speed_defect() <= 1e-8
    assert res.rotation_invariant_defect() <= 1e-8


def test_spiral_s_span_must_contain_zero():
    with pytest.raises(InvalidParameter):
        spiral_profile(make_params(0.2, 0.5), (1.0, 5.0))


def test_f_stationary_point():
    a = 0.7
    s, f, fp = f_solve(a, 0.0, -a * a, (0.0, 15.0))
    assert np.max(np.abs(f - a)) < 1e-13
    assert np.max(np.abs(fp)) < 1e-13


def test_f_energy_conserved_long_span():
    nu = 0.5
    for s_end in (100.0, -100.0):
        s, f, fp = f_solve(1.0, 0.3j, nu, (0.0, s_end))
        E = f_energy(f, fp, nu)
        assert np.max(np.abs(E - E[0])) / E[0] <= 1e-8


def test_f_amplitude_bound():
    nu = 0.5
    s, f, fp = f_solve(1.0, 0.3j, nu, (0.0, 60.0))
    E0 = f_energy(f[0], fp[0], nu)
    assert np.max((np.abs(f) ** 2 + nu) ** 2) <= 4 * E0 * (1 + 1e-12)


def test_yh_stationary_point():
    a = 0.8
    s, x, y, h = yh_evolve(0.0, 0.0, -a * a, 0.0, (0.0, 20.0), x0=a * a)
    assert np.max(np.abs(y)) < 1e-13
    assert np.max(np.abs(h)) < 1e-13
    assert np.max(np.abs(x - a * a)) < 1e-13
    assert g_of(a * a, -a * a, 0.0) == 0.0


def test_bridge_f_to_yh():
    # conj(f) f' = y/2 + i h maps f-trajectories onto the reduced system
    nu = 0.4
    f0, fp0 = 1.0, 0.25j
    s, f, fp = f_solve(f0, fp0, nu, (0.0, 25.0),
                       SolverConfig(step=2e-4, renorm_every=50))
    prod = np.conj(f) * fp
    y_f, h_f = 2 * np.real(prod), np.imag(prod)
    E0 = float(f_energy(f0, fp0, nu))
    s2, x, y, h = yh_evolve(y_f[0], h_f[0], nu, E0, (0.0, 25.0),
                            SolverConfig(step=2e-4, renorm_every=50),
                            x0=abs(f0) ** 2)
    assert np.max(np.abs(s - s2)) < 1e-12
    assert np.max(np.abs(y - y_f)) < 1e-5
    assert np.max(np.abs(h - h_f)) < 1e-5
    assert np.max(np.abs(x - np.abs(f) ** 2)) < 1e-5


def test_profile_consistent_with_yh():
    p = make_params(0.35, 0.5)
    res = spiral_profile(p, (0.0, 25.0), SolverConfig(step=2e-4, renorm_every=40))
    s = res.curve.s_grid
    ds = s[1] - s[0]
    s2, x, y, h = yh_evolve(p.y0, p.h0, p.nu, p.E0, (0.0, 25.0),
                            SolverConfig(step=2e-4, renorm_every=40), x0=p.c0_sq)
    y_on = np.interp(s, s2, y)
    x_on = np.interp(s, s2, x)
    assert np.max(np.abs(x_on - res.c_sq)) < 1e-5
    assert np.max(np.abs(y_on - res.y)) < 1e-5
    # central differences of c^2 agree to the FD truncation order
    y_fd = np.gradient(res.c_sq, ds)
    assert np.max(np.abs(y_fd - res.y)[2:-2]) < 50 * ds**2 * np.max(np.abs(s / 2)) ** 2
    # h = c^2 (tau - s/2) from the profile torsion
    h_profile = res.c_sq * (res.tau - s / 2)
    h_on = np.interp(s, s2, h)
    assert np.max(np.abs(h_on - h_profile)) < 1e-5


def test_spiral_chi_properties():
    a, mu = 0.5, 0.6
    p = make_params(mu, a)
    res = spiral_profile(p, (-30.0, 30.0))
    # rotation factor orthogonal, det 1
    for t in (0.2, 1.0, 7.0):
        R = spiral.rotation_log(mu, t)
        assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-15
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-15)
    # mu = 0 reduces to the plain self-similar flow
    p0 = make_params(0.0, a)
    res0 = spiral_profile(p0, (-30.0, 30.0))
    prof = selfsimilar.profile(a, 30.0)
    for (sq, t) in ((1.7, 0.5), (-3.0, 2.0)):
        zc = spiral_chi(p0, res0.curve, sq, t)
        zs = selfsimilar.chi(prof, sq, t)
        assert np.linalg.norm(zc - zs) < 1e-6
    # arclength preserved: |d chi/ds| = 1
    t = 0.8
    sv = np.linspace(-2, 2, 801)
    pts = spiral_chi(p, res.curve, sv, t)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1) / (sv[1] - sv[0])
    assert np.max(np.abs(seg - 1)) < 1e-6


def test_log_spiral_asymptotics():
    # e^{-A log s} G(s)/s is Cauchy: increments over [S, 2S] shrink like 1/S
    mu, a = 0.5, 0.5
    p = make_params(mu, a)
    res = spiral_profile(p, (0.0, 80.0))
    s = res.curve.s_grid
    G = res.curve.points

    def q_at(S):
        i = np.argmin(np.abs(s - S))
        R = spiral.rotation_log(mu, s[i] ** 2).T  # e^{-A log s} = R(log t=2 log s)^-1
        return R @ G[i] / s[i]

    d1 = np.linalg.norm(q_at(40.0) - q_at(20.0))
    d2 = np.linalg.norm(q_at(80.0) - q_at(40.0))
    assert d2 < 0.75 * d1


# ---------------------------------------------------------------------------
# the fused per-block kernels against a plain RK4 loop, and the driver's
# boundary checks


def _rk4_plain(rhs, y0, s0, s1, step, m):
    """Unfused RK4 on a list state, n = ceil(|span|/(step m)) m steps."""
    n = max(1, math.ceil(abs(s1 - s0) / (step * m))) * m
    h = (s1 - s0) / n
    y, s = list(y0), s0
    out = [y]
    for k in range(n):
        k1 = rhs(s, y)
        k2 = rhs(s + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = rhs(s + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = rhs(s + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        s += h
        if (k + 1) % m == 0:
            out.append(y)
    return np.linspace(s0, s0 + n * h, n // m + 1), np.array(out)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_spiral_profile_matches_plain_rk4():
    mu = 0.4
    p = make_params(mu, 0.5)

    def rhs(s, y):
        gx, gy, gz, tx, ty, tz = y
        mx, my, mz = 0.5 * (gx - mu * gy), 0.5 * (mu * gx + gy), 0.5 * gz
        return [tx, ty, tz, my * tz - mz * ty, mz * tx - mx * tz, mx * ty - my * tx]

    res = spiral_profile(p, (-5.0, 5.0))
    y0 = [*p.G0, *p.T0]
    s_p, y_p = _rk4_plain(rhs, y0, 0.0, 5.0, 3e-4, 32)
    s_m, y_m = _rk4_plain(rhs, y0, 0.0, -5.0, 3e-4, 32)
    s_ref = np.concatenate([s_m[:0:-1], s_p])
    y_ref = np.concatenate([y_m[:0:-1], y_p])
    assert np.array_equal(res.curve.s_grid, s_ref)
    assert _rel(res.curve.points, y_ref[:, :3]) <= 1e-13
    assert _rel(res.curve.frames[:, 0], y_ref[:, 3:]) <= 1e-13


def test_yh_evolve_matches_plain_rk4():
    nu, E0 = 0.4, 0.3
    cfg = SolverConfig(step=2e-4, renorm_every=50)

    def rhs(s, v):
        x, y, h = v
        return [y, s * h + g_of(x, nu, E0), -(s / 4) * y]

    for span in ((0.0, 10.0), (2.0, -6.0)):
        s, x, y, h = yh_evolve(0.1, 0.2, nu, E0, span, cfg, x0=0.7)
        s_ref, ref = _rk4_plain(rhs, [0.7, 0.1, 0.2], *span, 2e-4, 50)
        assert np.array_equal(s, s_ref)
        assert _rel(np.stack([x, y, h], axis=1), ref) <= 1e-13


def test_f_solve_matches_plain_rk4():
    nu = 0.5
    cfg = SolverConfig(step=2.5e-4, renorm_every=64)

    def rhs(s, v):
        f, g = v
        return [g, -0.5j * s * g - 0.5 * f * (abs(f) ** 2 + nu)]

    for span in ((0.0, 10.0), (3.0, -5.0)):
        s, f, fp = f_solve(1.0, 0.3j, nu, span, cfg)
        s_ref, ref = _rk4_plain(rhs, [1.0 + 0j, 0.3j], *span, 2.5e-4, 64)
        assert np.array_equal(s, s_ref)
        assert _rel(np.stack([f, fp], axis=1), ref) <= 1e-13


def test_scalar_solvers_enforce_max_steps():
    cfg = SolverConfig(step=1e-3, renorm_every=10, max_steps=1000)
    with pytest.raises(StepLimitExceeded):
        f_solve(1.0, 0.3j, 0.5, (0.0, 2.0), cfg)
    with pytest.raises(StepLimitExceeded):
        yh_evolve(0.0, 0.0, -0.25, 0.0, (0.0, -2.0), cfg, x0=0.25)
    with pytest.raises(StepLimitExceeded):
        spiral_profile(make_params(0.3, 0.5), (-2.0, 2.0), cfg)
    # at the limit itself the run goes through
    s, f, fp = f_solve(1.0, 0.3j, 0.5, (0.0, 1.0), cfg)
    assert len(s) == 101


def test_scalar_solvers_reject_empty_span():
    with pytest.raises(InvalidParameter):
        f_solve(1.0, 0.3j, 0.5, (0.0, 0.0))
    with pytest.raises(InvalidParameter):
        yh_evolve(0.0, 0.0, -0.25, 0.0, (2.0, 2.0), x0=0.25)
    with pytest.raises(InvalidParameter):
        f_solve(1.0, 0.3j, 0.5, (0.0, math.inf))
    with pytest.raises(InvalidParameter):
        yh_evolve(0.0, 0.0, -0.25, 0.0, (0.0, math.nan), x0=0.25)


def test_scalar_solvers_reject_non_finite_input():
    with pytest.raises(InvalidParameter):
        f_solve(math.nan, 0.3j, 0.5, (0.0, 1.0))
    with pytest.raises(InvalidParameter):
        f_solve(1.0, 0.3j, math.nan, (0.0, 1.0))
    with pytest.raises(InvalidParameter):
        yh_evolve(0.0, 0.0, -0.25, math.inf, (0.0, 1.0), x0=0.25)
    with pytest.raises(InvalidParameter):
        make_params(math.nan, 0.5)
    with pytest.raises(InvalidParameter):
        make_params(0.3, math.nan)
    with pytest.raises(InvalidParameter):
        f_solve(1.0, complex(0.0, math.inf), 0.5, (0.0, 1.0))
    with pytest.raises(InvalidParameter):
        yh_evolve(0.0, 0.0, -0.25, 0.0, (0.0, 1.0), x0=math.nan)
    with pytest.raises(InvalidParameter):
        yh_evolve(math.inf, 0.0, -0.25, 0.0, (0.0, 1.0), x0=0.25)
