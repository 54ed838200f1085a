import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_simpson

from filamentlab import dataio, geometry
from filamentlab.errors import (
    GridMismatch,
    GridNonUniform,
    InvalidParameter,
    NonFiniteCoefficient,
)
from filamentlab.geometry import Curve, FrenetFrame, frenet_integrate

ONES = lambda s: np.ones(np.shape(s))
ZERO = lambda s: np.zeros(np.shape(s))


def helix_tangent(s):
    # unit-speed helix with c = tau = 1/2: chi = (cos(s/r2), sin(s/r2), s/r2), r2 = sqrt2
    r2 = np.sqrt(2.0)
    return np.column_stack([-np.sin(s / r2) / r2, np.cos(s / r2) / r2, np.full(np.shape(s), 1 / r2)])


def helix_curve(s):
    r2 = np.sqrt(2.0)
    return np.column_stack([np.cos(s / r2), np.sin(s / r2), s / r2])


def test_circle_closes():
    traj = frenet_integrate(ONES, ZERO, FrenetFrame.identity(), (0, 2 * np.pi),
                            step=1e-3, out_every=16)
    assert np.linalg.norm(traj.T[-1] - traj.T[0]) < 1e-6
    assert traj.s[0] == 0.0


def test_zero_coefficients_freeze_frame():
    traj = frenet_integrate(ZERO, ZERO, FrenetFrame.identity(), (0, 5.0),
                            step=1e-2, out_every=8)
    assert np.max(np.abs(traj.frames - np.eye(3)[None])) < 1e-14


def test_helix_matches_closed_form():
    half = lambda s: 0.5 * np.ones(np.shape(s))
    frame0 = FrenetFrame(
        helix_tangent(np.array([0.0]))[0],
        np.array([-1.0, 0.0, 0.0]),
        np.cross(helix_tangent(np.array([0.0]))[0], [-1.0, 0.0, 0.0]),
    )
    traj = frenet_integrate(half, half, frame0, (0, 12.0), step=5e-4, out_every=16)
    assert np.max(np.abs(traj.T - helix_tangent(traj.s))) < 1e-6


def test_orthonormality_long_span():
    traj = frenet_integrate(lambda s: 1 + 0.3 * np.sin(s), lambda s: s / 2,
                            FrenetFrame.identity(), (0, 100.0), step=1e-3, out_every=16)
    assert geometry.frame_orthonormality_defect(traj.frames) <= 1e-8


def test_rk4_convergence_order_at_least_4():
    """Magnus-4 order on variable coefficients; constant ones it solves exactly."""
    c_fn = lambda s: 1 + 0.3 * np.sin(s)
    tau_fn = lambda s: 0.5 * np.cos(s)
    frame0 = FrenetFrame.identity()

    def final_frame(step):
        return frenet_integrate(c_fn, tau_fn, frame0, (0, 2 * np.pi),
                                step=step, out_every=1).frames[-1]

    ref = final_frame(1e-3)
    errs = [np.max(np.abs(final_frame(step) - ref)) for step in (4e-2, 2e-2)]
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.9


def test_curve_from_tangent_line_and_circle():
    s = np.linspace(0, 5, 101)
    T = np.tile([1.0, 0.0, 0.0], (101, 1))
    line = geometry.curve_from_tangent((s, T), np.zeros(3))
    assert np.max(np.abs(line.points - np.column_stack([s, 0 * s, 0 * s]))) < 1e-12

    s = np.linspace(0, 2 * np.pi, 2049)
    T = np.column_stack([-np.sin(s), np.cos(s), 0 * s])
    circ = geometry.curve_from_tangent((s, T), np.array([1.0, 0.0, 0.0]))
    assert np.linalg.norm(circ.points[-1] - circ.points[0]) <= 1e-6
    assert circ.unit_speed_defect() < 1e-3


def test_curve_from_tangent_reproduces_profile():
    from filamentlab import selfsimilar

    # G_a read at the spacing 8e-3, off the profile's own grid
    sg = 8e-3 * np.arange(2501)
    F, G, _, _ = selfsimilar.sample(0.7, 20.0, sg)
    rebuilt = geometry.curve_from_tangent((sg, F[:, 0]), np.array([0.0, 0.0, 1.4]))
    assert np.max(np.linalg.norm(rebuilt.points - G, axis=1)) < 1e-5


def test_curve_from_tangent_rejects_nonuniform():
    s = np.array([0.0, 0.1, 0.3, 0.4])
    T = np.tile([1.0, 0, 0], (4, 1))
    with pytest.raises(GridNonUniform):
        geometry.curve_from_tangent((s, T), np.zeros(3))


def _grid(kind, n, rng):
    if kind == "uniform":
        return np.linspace(-1.0, 3.0, n)
    if kind == "log-uniform":
        return np.log(np.geomspace(1e-4, 10.0, n))
    return np.cumsum(rng.random(n) + 1e-3) - 2.0


@pytest.mark.parametrize("kind", ["uniform", "log-uniform", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 101, 2000])
@pytest.mark.parametrize("cols", [None, 3])
def test_cumulative_simpson_equals_scipy(kind, n, cols):
    rng = np.random.default_rng(n)
    x = _grid(kind, n, rng)
    y = rng.standard_normal(n if cols is None else (n, cols))
    ours = geometry._cumulative_simpson(y, x)
    ref = cumulative_simpson(y, x=x, axis=0, initial=0.0)
    assert ours.shape == ref.shape
    assert np.array_equal(ours, ref)


@st.composite
def samples(draw):
    n = draw(st.integers(2, 60))
    widths = draw(arrays(float, n - 1, elements=st.floats(1e-3, 10.0)))
    x = draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    cols = draw(st.sampled_from([None, 1, 3]))
    y = draw(arrays(float, n if cols is None else (n, cols),
                    elements=st.floats(-1e6, 1e6)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(samples())
def test_cumulative_simpson_equals_scipy_on_random_samples(xy):
    x, y = xy
    assume(np.all(np.diff(x) > 0))  # a width can vanish in the sum's rounding
    ours = geometry._cumulative_simpson(y, x)
    assert np.array_equal(ours, cumulative_simpson(y, x=x, axis=0, initial=0.0))


def _helix(kappa, tau):
    # unit-speed helix with curvature kappa and torsion tau
    w = np.hypot(kappa, tau)
    r = kappa / w**2
    curve = lambda s: np.column_stack([r * np.cos(w * s), r * np.sin(w * s), tau / w * s])
    tangent = lambda s: np.column_stack([-r * w * np.sin(w * s), r * w * np.cos(w * s),
                                         np.full(np.shape(s), tau / w)])
    return curve, tangent, w


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(-2.0, 2.0), st.floats(0.5, 20.0),
       st.floats(0.05, 0.5))
def test_curve_from_tangent_reproduces_helix_to_simpson_order(kappa, tau, length, wh):
    curve, tangent, w = _helix(kappa, tau)
    n = max(2, int(math.ceil(length * w / wh)))
    s = np.linspace(0.0, length, n + 1)
    h = s[1] - s[0]
    rebuilt = geometry.curve_from_tangent((s, tangent(s)), curve(s[:1])[0])
    err = np.max(np.linalg.norm(rebuilt.points - curve(s), axis=1))
    # composite Simpson on the even nodes, plus one 3-point panel on the odd
    # ones; |T^(k)| = kappa w^(k-1)
    bound = (length / 180 * kappa * w**3 + kappa * w**2 / 24) * h**4
    assert err <= 1.5 * bound + 1e-13 * (1 + length)


def test_curve_from_tangent_converges_at_fourth_order():
    errs = []
    for n in (80, 160, 320):
        s = np.linspace(0.0, 10.0, n + 1)
        rebuilt = geometry.curve_from_tangent((s, helix_tangent(s)), helix_curve(s[:1])[0])
        errs.append(np.max(np.linalg.norm(rebuilt.points - helix_curve(s), axis=1)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 15.0 <= coarse / fine <= 17.0


def test_curvature_torsion_circle_and_helix():
    s = np.linspace(0, 2 * np.pi, 401)
    circ = Curve(s, np.column_stack([np.cos(s), np.sin(s), 0 * s]))
    out = geometry.curvature_torsion_from_curve(circ)
    assert np.max(np.abs(out.c - 1)) < 1e-4
    assert np.max(np.abs(out.tau)) < 1e-4

    s = np.linspace(0, 20, 2001)
    hel = Curve(s, helix_curve(s))
    out = geometry.curvature_torsion_from_curve(hel)
    assert np.max(np.abs(out.c - 0.5)) < 1e-4
    assert np.max(np.abs(out.tau - 0.5)) < 1e-4


def test_curvature_torsion_selfsimilar_slice():
    from filamentlab import selfsimilar

    # G_a read at the spacing 4e-3, off the profile's own grid
    s = 4e-3 * np.arange(-1250, 1251)
    out = geometry.curvature_torsion_from_curve(Curve(s, selfsimilar.sample(0.8, 5.0, s)[1]))
    assert np.max(np.abs(out.c - 0.8)) < 1e-4
    assert np.max(np.abs(out.tau - out.s_grid / 2)) < 1e-4


def test_torsion_flagged_where_curvature_vanishes():
    s = np.linspace(0, 1, 51)
    line = Curve(s, np.column_stack([s, 0 * s, 0 * s]))
    out = geometry.curvature_torsion_from_curve(line)
    assert not out.tau_defined.any()
    assert np.isnan(out.tau).all()


def test_inversion_round_trip_second_order():
    c_fn = lambda s: 1 + 0.3 * np.sin(s)
    tau_fn = lambda s: 0.5 * np.cos(s)
    errs = []
    for m in (8, 4):
        traj = frenet_integrate(c_fn, tau_fn, FrenetFrame.identity(), (0, 10.0),
                                step=2.5e-4, out_every=m, position0=np.zeros(3))
        curve = Curve(traj.s, traj.points)
        out = geometry.curvature_torsion_from_curve(curve)
        errs.append(max(np.max(np.abs(out.c - c_fn(out.s_grid))),
                        np.max(np.abs(out.tau - tau_fn(out.s_grid)))))
    assert errs[0] < 4e-5
    assert errs[0] / errs[1] > 3.0  # ~second order in the sample spacing


def _selfsimilar_snapshots(a, t, dt, smax, n):
    from filamentlab import selfsimilar

    prof = selfsimilar.profile(a, smax / np.sqrt(t - dt) + 1.0)
    s = np.linspace(-smax, smax, n)
    return [Curve(s, selfsimilar.chi(prof, s, tt)) for tt in (t - dt, t, t + dt)], prof


def test_bf_residual_selfsimilar_converges():
    res = []
    for dt, n in ((0.02, 201), (0.01, 401)):
        (c0, c1, c2), _ = _selfsimilar_snapshots(0.6, 1.0, dt, 4.0, n)
        res.append(geometry.bf_residual(c0, c1, c2, dt))
    assert res[0] / res[1] > 3.0


def test_bf_residual_static_line_and_detector():
    s = np.linspace(-3, 3, 151)
    line_pts = np.column_stack([s, 0 * s, 0 * s])
    line = [Curve(s, line_pts) for _ in range(3)]
    assert geometry.bf_residual(*line, dt=0.1) < 1e-12

    # translating curved arc is not a binormal flow
    arc = np.column_stack([np.cos(s), np.sin(s), 0 * s])
    snaps = [Curve(s, arc + t * np.array([1.0, 0, 0])) for t in (-0.1, 0.0, 0.1)]
    assert geometry.bf_residual(*snaps, dt=0.1) > 0.5


def test_bf_residual_grid_mismatch():
    s1 = np.linspace(0, 1, 51)
    s2 = np.linspace(0, 1.1, 51)
    c1 = Curve(s1, np.column_stack([s1, 0 * s1, 0 * s1]))
    c2 = Curve(s2, np.column_stack([s2, 0 * s2, 0 * s2]))
    with pytest.raises(GridMismatch):
        geometry.bf_residual(c1, c2, c1, dt=0.1)


def test_nonfinite_coefficient_raises():
    bad = lambda s: np.where(s > 1, np.inf, 1.0)
    with pytest.raises(NonFiniteCoefficient):
        frenet_integrate(bad, ZERO, FrenetFrame.identity(), (0, 2.0),
                         step=1e-2, out_every=4)


def test_empty_span_rejected():
    from filamentlab import spiral

    with pytest.raises(InvalidParameter):
        frenet_integrate(ONES, ZERO, FrenetFrame.identity(), (1.0, 1.0))
    params = spiral.SpiralParams(0.4, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidParameter):
        spiral.spiral_profile(params, (0.0, 0.0))


def test_step_limit_enforced():
    from filamentlab.errors import StepLimitExceeded

    # 1e8 fine steps, twice the budget: rejected when planned, before the
    # 2.5e7 output nodes are allocated
    with pytest.raises(StepLimitExceeded):
        frenet_integrate(ONES, ZERO, FrenetFrame.identity(), (0, 100.0),
                         step=1e-6, out_every=4)


def test_frame_validation():
    with pytest.raises(InvalidParameter):
        FrenetFrame(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
    with pytest.raises(InvalidParameter):
        FrenetFrame(np.array([2.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
    # left-handed triple rejected
    with pytest.raises(InvalidParameter):
        FrenetFrame(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, -1.0]))


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324]


def test_curve_csv_roundtrip(tmp_path):
    traj = frenet_integrate(ONES, ZERO, FrenetFrame.identity(), (0, 3.0),
                            step=1e-3, out_every=16, position0=np.array([0.0, -1.0, 0.0]))
    # two whole write blocks plus a partial one, with special values
    block = dataio._CSV_BLOCK
    n = 2 * block + 1000
    rng = np.random.default_rng(0)
    s = np.concatenate([[-1.0, -0.0, 5e-324], np.arange(1.0, n - 2)])
    points = rng.normal(size=(n, 3))
    frames = rng.normal(size=(n, 3, 3))
    points[block - 2 : block + 3, 0] = SPECIAL_FLOATS
    frames[-5:, 2, 1] = SPECIAL_FLOATS
    for curve in (Curve(traj.s, traj.points, traj.frames), Curve(s, points, frames)):
        path = tmp_path / "curve.csv"
        dataio.write_csvs([curve.csv_job(path)])
        back = Curve.read_csv(path)
        assert back.s_grid.tobytes() == curve.s_grid.tobytes()
        assert back.points.tobytes() == curve.points.tobytes()
        assert back.frames.tobytes() == curve.frames.tobytes()
