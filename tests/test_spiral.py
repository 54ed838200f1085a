import math
import tracemalloc

import numpy as np
import pytest

from filamentlab import selfsimilar, spiral
from filamentlab.errors import (
    ConstraintViolated,
    InvalidParameter,
    NonFiniteCoefficient,
    StepLimitExceeded,
)
from filamentlab.integrators import _MAX_STEPS, _plan
from filamentlab.spiral import (
    SpiralParams,
    f_energy,
    f_solve,
    spiral_chi,
    spiral_profile,
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
    pts = selfsimilar.evaluate(prof, res.curve.s_grid)[1]
    assert np.max(np.linalg.norm(res.curve.points - pts, axis=1)) <= 1e-6
    # rotation invariant with mu=0: |T'|^2 = -nu = a^2 (constant curvature)
    assert np.max(np.abs(res.c_sq - a * a)) <= 1e-8


def test_unit_speed_and_rotation_invariant_long_span():
    res = spiral_profile(make_params(0.4, 0.5), (-100.0, 100.0))
    assert res.unit_speed_defect() <= 1e-8
    # criterion 4 asks 1e-8; one step per output node (h = 9.6e-3) gives 1.5e-8
    assert res.rotation_invariant_defect() <= 1e-10


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


@pytest.mark.parametrize("mu, a", [(0.35, 0.5), (0.7, 0.3), (0.0, 0.5)])
def test_profile_bridges_to_f(mu, a):
    # the f with f(0) = c(0), conj(f) f'(0) = y0/2 + i h0 keeps |f|^2 = c^2
    # and conj(f) f' = y/2 + i c^2 (tau - s/2) along the profile
    p = make_params(mu, a)
    c0 = math.sqrt(p.c0_sq)
    f0, fp0 = c0, complex(p.y0 / 2, p.h0) / c0
    assert p.E0 == f_energy(f0, fp0, p.nu)
    res = spiral_profile(p, (-24.0, 24.0))
    s = res.curve.s_grid
    zero = len(s) // 2
    assert s[zero] == 0.0
    for end in (24.0, -24.0):
        _, f, fp = f_solve(f0, fp0, p.nu, (0.0, end))
        # 0.048 is 5 profile spacings and 3 of f: match the nodes by index,
        # since their labels round differently
        f, fp = f[::3], fp[::3]
        at = zero + int(math.copysign(5, end)) * np.arange(len(f))
        assert len(at) == 501
        prod = np.conj(f) * fp
        assert np.max(np.abs(np.abs(f) ** 2 - res.c_sq[at])) <= 1e-12
        assert np.max(np.abs(2 * prod.real - res.y[at])) <= 1e-12
        h = res.c_sq[at] * (res.tau[at] - s[at] / 2)
        assert np.max(np.abs(prod.imag - h)) <= 1e-12
    # central differences of c^2 agree to the FD truncation order
    ds = s[1] - s[0]
    y_fd = np.gradient(res.c_sq, ds)
    assert np.max(np.abs(y_fd - res.y)[2:-2]) < 50 * ds**2 * np.max(np.abs(s / 2)) ** 2


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


def test_spiral_chi_between_nodes_matches_a_direct_run():
    # one DOP853 step from the nearest node against a run that ends at sigma
    mu, a = 0.6, 0.5
    p = make_params(mu, a)
    res = spiral_profile(p, (-30.0, 30.0))
    sig = np.random.default_rng(0).uniform(-30.0, 30.0, 20)
    got = spiral_chi(p, res.curve, sig, 1.0)
    for s, g in zip(sig, got):
        run = spiral_profile(p, (min(s, 0.0), max(s, 0.0))).curve.points
        assert np.max(np.abs(g - (run[-1] if s > 0 else run[0]))) <= 1e-10


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
# the generated DOP853 blocks against a plain tableau loop, their accuracy,
# and the driver's boundary checks


def _tableau():
    """A, B, C of DOP853 from scipy: a copy independent of the module's literals."""
    from scipy.integrate._ivp import dop853_coefficients as d

    n = d.N_STAGES
    return d.A[:n, :n].tolist(), d.B.tolist(), d.C[:n].tolist()


def _dop853_plain(rhs, y0, s0, s1, step, m):
    """Unfused fixed-step DOP853 on a list state, n = ceil(|span|/(step m)) m steps."""
    A, B, C = _tableau()
    n = max(1, math.ceil(abs(s1 - s0) / (step * m))) * m
    h = (s1 - s0) / n
    y = list(y0)
    out = [y]
    for k in range(n):
        s = s0 + k * h
        K = []
        for i in range(len(C)):
            yi = [a + h * sum(A[i][l] * K[l][j] for l in range(i))
                  for j, a in enumerate(y)]
            K.append(rhs(s + C[i] * h, yi))
        y = [a + h * sum(b * Kl[j] for b, Kl in zip(B, K)) for j, a in enumerate(y)]
        if (k + 1) % m == 0:
            out.append(y)
    # block end k is the abscissa s0 + k h that the next step starts from
    return s0 + np.arange(0, n + 1, m) * h, np.array(out)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_dop853_literals_equal_the_published_tableau():
    A, B, C = _tableau()
    assert spiral._C == tuple(C)
    assert spiral._B == {j: b for j, b in enumerate(B) if b}
    assert spiral._A == tuple({j: a for j, a in enumerate(row[:i]) if a}
                              for i, row in enumerate(A))


def _profile_rhs(mu):
    def rhs(s, y):
        gx, gy, gz, tx, ty, tz = y
        mx, my, mz = 0.5 * (gx - mu * gy), 0.5 * (mu * gx + gy), 0.5 * gz
        return [tx, ty, tz, my * tz - mz * ty, mz * tx - mx * tz, mx * ty - my * tx]
    return rhs


def test_spiral_profile_matches_plain_dop853():
    mu = 0.4
    p = make_params(mu, 0.5)
    res = spiral_profile(p, (-5.0, 5.0))
    y0 = [*p.G0, *p.T0]
    s_p, y_p = _dop853_plain(_profile_rhs(mu), y0, 0.0, 5.0, 4.8e-3, 2)
    s_m, y_m = _dop853_plain(_profile_rhs(mu), y0, 0.0, -5.0, 4.8e-3, 2)
    s_ref = np.concatenate([s_m[:0:-1], s_p])
    y_ref = np.concatenate([y_m[:0:-1], y_p])
    assert np.array_equal(res.curve.s_grid, s_ref)
    assert _rel(res.curve.points, y_ref[:, :3]) <= 1e-13
    assert _rel(res.curve.frames[:, 0], y_ref[:, 3:]) <= 1e-13


def test_f_solve_matches_plain_dop853():
    nu = 0.5

    def rhs(s, v):
        f, g = v
        return [g, -0.5j * s * g - 0.5 * f * (abs(f) ** 2 + nu)]

    for span in ((0.0, 10.0), (3.0, -5.0)):
        s, f, fp = f_solve(1.0, 0.3j, nu, span)
        s_ref, ref = _dop853_plain(rhs, [1.0 + 0j, 0.3j], *span, *spiral._F_GRID)
        assert np.array_equal(s, s_ref)
        assert _rel(np.stack([f, fp], axis=1), ref) <= 1e-13


def test_default_output_nodes_keep_the_rk4_spacing():
    # the grids take fewer, larger steps than the old RK4 defaults
    # (3e-4 x 32, 2.5e-4 x 64) on the same output nodes
    lo, hi = _plan(0.0, -5.0, 3e-4, 32)[2], _plan(0.0, 7.3, 3e-4, 32)[2]
    res = spiral_profile(make_params(0.4, 0.5), (-5.0, 7.3))
    assert np.array_equal(res.curve.s_grid, np.concatenate([lo[:0:-1], hi]))
    for span in ((0.0, 7.3), (1.5, -2.01)):
        # a node is labelled by its fine step, s0 + h (m j): the block
        # length 3 is no power of two, so its labels round up to an ulp
        # away from those of another block length on the same nodes
        s = f_solve(1.0, 0.3j, 0.5, span)[0]
        old = _plan(*span, 2.5e-4, 64)[2]
        assert len(s) == len(old) and np.max(np.abs(s - old)) <= 1e-14


def _whole_array_assembly(mu, G, T):
    """The frames, c^2, y and tau of the profile's nodes, each built over
    the whole arrays at once: the reference of the piecewise assembly."""
    IA = np.eye(3) + spiral._amatrix(mu)
    mvec = 0.5 * (G @ IA.T)
    Tp = np.cross(mvec, T)
    c_sq = np.sum(Tp * Tp, axis=1)
    c = np.sqrt(c_sq)
    ok = c > 1e-9
    nvec = np.full_like(T, np.nan)
    nvec[ok] = Tp[ok] / c[ok, None]
    frames = np.stack([T, nvec, np.cross(T, nvec)], axis=1)
    mp = 0.5 * (T @ IA.T)
    Tpp = np.cross(mp, T) + np.cross(mvec, Tp)
    tau = np.full(len(T), np.nan)
    tau[ok] = np.einsum("ij,ij->i", np.cross(T[ok], Tp[ok]), Tpp[ok]) / c_sq[ok]
    y = 2 * np.einsum("ij,ij->i", Tp, Tpp)
    return frames, c_sq, y, tau


def test_piecewise_assembly_is_the_whole_array_assembly():
    # 9376 nodes: two whole pieces of _PIECE nodes and part of a third
    p = make_params(0.4, 0.5)
    res = spiral_profile(p, (-30.0, 60.0))
    assert len(res.curve.s_grid) > 2 * spiral._PIECE
    G, T = res.curve.points, np.ascontiguousarray(res.curve.frames[:, 0])
    want = _whole_array_assembly(p.mu, G, T)
    for got, ref in zip((res.curve.frames, res.c_sq, res.y, res.tau), want, strict=True):
        assert got.tobytes() == ref.tobytes()


def test_assembly_holds_its_outputs_and_one_piece(monkeypatch):
    # traced past the two sides' integration, which is run first: the
    # frames, c^2, y and tau (96 bytes per node) and one piece of working
    # arrays, about 140 bytes per node at --smax 100; whole-array working
    # arrays would take about 370.  A span shorter than a piece holds its
    # working arrays beside the outputs it writes into, about 335 bytes per
    # node to s = 10; a second copy of its results would take about 470
    p = make_params(0.4, 0.5)
    for span, bound in (((-100.0, 100.0), 200), ((0.0, 10.0), 450)):
        sides = spiral._sides(p, *span)
        monkeypatch.setattr(spiral, "_sides", lambda *args: sides)
        tracemalloc.start()
        try:
            spiral_profile(p, span)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert peak <= bound * len(sides[0]), span


def test_spiral_profile_global_error_against_adaptive_dop853():
    from scipy.integrate import solve_ivp

    mu = 0.4
    p = make_params(mu, 0.5)
    res = spiral_profile(p, (-100.0, 0.0))
    s = res.curve.s_grid[::-1]
    ref = solve_ivp(lambda s, y: _profile_rhs(mu)(s, y), (0.0, -100.0),
                    [*p.G0, *p.T0], method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=s).y.T[::-1]
    assert np.max(np.abs(res.curve.points - ref[:, :3])) <= 2e-11
    assert np.max(np.abs(res.curve.frames[:, 0] - ref[:, 3:])) <= 5e-11


def test_scalar_solvers_enforce_max_steps():
    # 1.01 budgets of fine steps per side: rejected when planned, before
    # any block runs
    over = 1.01 * spiral._F_GRID[0] * _MAX_STEPS
    with pytest.raises(StepLimitExceeded):
        f_solve(1.0, 0.3j, 0.5, (0.0, over))
    over = 1.01 * spiral._GRID[0] * _MAX_STEPS
    with pytest.raises(StepLimitExceeded):
        spiral_profile(make_params(0.3, 0.5), (-over, over))
    # at the budget itself the run is planned: 50 000 blocks of 1000 steps
    assert len(_plan(0.0, 1e-3 * _MAX_STEPS, 1e-3, 1000)[2]) == 50_001


def test_scalar_solvers_reject_empty_span():
    with pytest.raises(InvalidParameter):
        f_solve(1.0, 0.3j, 0.5, (0.0, 0.0))
    with pytest.raises(InvalidParameter):
        f_solve(1.0, 0.3j, 0.5, (0.0, math.inf))


def test_scalar_solvers_reject_non_finite_input():
    with pytest.raises(InvalidParameter):
        f_solve(math.nan, 0.3j, 0.5, (0.0, 1.0))
    with pytest.raises(InvalidParameter):
        f_solve(1.0, 0.3j, math.nan, (0.0, 1.0))
    with pytest.raises(InvalidParameter):
        make_params(math.nan, 0.5)
    with pytest.raises(InvalidParameter):
        make_params(0.3, math.nan)
    with pytest.raises(InvalidParameter):
        f_solve(1.0, complex(0.0, math.inf), 0.5, (0.0, 1.0))
    # finite data whose state overflows on the way: abs(f) ** 2 raises
    with pytest.raises(NonFiniteCoefficient, match="non-finite"):
        f_solve(1.0, 0.3j, 1e12, (0.0, 10.0))
