import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, solve_ivp

from filamentlab import flow, geometry, nls, selfsimilar
from filamentlab.errors import (
    ConstraintViolated,
    CurvatureVanishes,
    InsufficientTimeRange,
    InvalidParameter,
    MemoryBudgetExceeded,
    OutOfProfileRange,
)
from filamentlab.geometry import IntrinsicData, SolverConfig
from filamentlab.integrators import _rotation


def selfsimilar_data(a, t_lo, t_hi, n_t, s_max, ds):
    t = t_lo * (t_hi / t_lo) ** (np.arange(n_t) / (n_t - 1))
    n_half = int(round(s_max / ds))
    s = ds * np.arange(-n_half, n_half + 1)
    c = a / np.sqrt(t)[:, None] * np.ones(len(s))[None]
    tau = s[None] / (2 * t)[:, None]
    return IntrinsicData(s, t, c, tau)


def test_intrinsic_residual_exact_solution_second_order():
    r = []
    for n_t, ds in ((41, 0.08), (81, 0.04)):
        data = selfsimilar_data(0.7, 0.5, 1.0, n_t, 3.0, ds)
        r.append(flow.intrinsic_residual(data))
    assert r[0] / r[1] > 3.0
    assert r[1] < 1e-2


def test_intrinsic_residual_static_and_detector():
    s = np.linspace(-2, 2, 41)
    t = np.array([0.5, 0.75, 1.0, 1.5])
    ones = np.ones((len(t), len(s)))
    static = IntrinsicData(s, t, ones, 0 * ones)
    assert flow.intrinsic_residual(static) < 1e-14

    rng = np.random.default_rng(3)
    smooth = 1.5 + 0.5 * np.sin(s)[None] * np.cos(t)[:, None]
    wild = IntrinsicData(s, t, smooth, 0.3 * np.cos(s)[None] * np.ones(len(t))[:, None])
    assert flow.intrinsic_residual(wild) > 0.05


def test_reconstruct_selfsimilar_fidelity_small():
    a = 0.5
    data = selfsimilar_data(a, 0.25, 1.0, 13, 3.0, 0.02)
    point0 = np.array([0.0, 0.0, 2 * a])
    res = flow.reconstruct_flow(data, np.eye(3), point0)
    prof = selfsimilar.profile(a, 8.0, SolverConfig(step=1e-3, renorm_every=8))
    worst = 0.0
    for k, tk in enumerate(res.t_grid):
        exact = selfsimilar.chi(prof, res.curves[k].s_grid, tk)
        worst = max(worst, float(np.max(np.linalg.norm(res.curves[k].points - exact, axis=1))))
    assert worst <= 1e-4


def test_initial_frame_reproduced_exactly():
    data = selfsimilar_data(0.4, 0.25, 1.0, 9, 2.0, 0.05)
    res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 0.8]))
    assert np.array_equal(res.frame_at_origin[-1], np.eye(3))


def test_reconstructed_frames_orthonormal_everywhere():
    data = selfsimilar_data(0.6, 0.05, 1.0, 15, 3.0, 0.02)
    res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 1.2]))
    worst = max(geometry.frame_orthonormality_defect(c.frames) for c in res.curves)
    assert worst <= 1e-6


def test_profile_built_slices_match_direct_integration():
    # the stability run's default curve grid and reference profile; the
    # origin frame is a generic rotation, so the profile is turned as well
    a, s_max, ds = 0.5, 5.0, 0.01
    t = np.array([1e-4, 1.27e-4, 1e-3, 7.5e-3])  # the default t_clean is 7.6e-3
    n_half = int(round(s_max / ds))
    s = -s_max + ds * np.arange(2 * n_half + 1)
    frame0 = _rotation(np.array([[0.6 + 0.3j, -0.2 + 0.7j]]))[0]
    point0 = np.array([0.3, -1.2, 2 * a * math.sqrt(t[-1])])
    prof = selfsimilar.profile(a, 1.5 * s_max / math.sqrt(t[0]))
    for tk in t:
        direct = flow._integrated_slice(s, np.full(len(s), a / math.sqrt(tk)),
                                        s / (2 * tk), frame0, point0)
        built = flow._profile_slice(prof, s, tk, frame0, point0)
        assert np.array_equal(direct.s_grid, built.s_grid)
        assert np.max(np.abs(direct.frames - built.frames)) <= 1e-9
        assert np.max(np.abs(direct.points - built.points)) <= 1e-9
    assert np.max(np.abs(built.frames[:, 0] - frame0[0])) > 0.5  # T turns


def test_profile_slice_beyond_the_profile_rejected():
    s = np.linspace(-2.0, 2.0, 81)
    prof = selfsimilar.profile(0.5, 10.0)  # sigma reaches 2/sqrt(1e-2) = 20
    with pytest.raises(OutOfProfileRange):
        flow._profile_slice(prof, s, 1e-2, np.eye(3), np.zeros(3))


def test_steady_circle_data_translates():
    s_max, ds = 3.0, 0.05
    n_half = int(round(s_max / ds))
    s = ds * np.arange(-n_half, n_half + 1)
    t = 0.25 * 4.0 ** (np.arange(9) / 8)
    ones = np.ones((len(t), len(s)))
    data = IntrinsicData(s, t, ones, 0 * ones)
    res = flow.reconstruct_flow(data, np.eye(3), np.zeros(3))
    # remove the rigid motion of chi(0,t): all slices collapse onto one circle
    base = res.curves[-1].points - res.chi_origin[-1]
    for k in range(len(t)):
        rel = res.curves[k].points - res.chi_origin[k]
        assert np.max(np.linalg.norm(rel - base, axis=1)) <= 1e-8
    # chi_t = c b = b: the origin translates along the binormal
    d = res.chi_origin[-1] - res.chi_origin[0]
    assert np.allclose(d / np.linalg.norm(d), [0, 0, 1], atol=1e-10)
    # uniform triple on a fine s grid for the pointwise residual: the
    # finite-difference truncation is O(ds^2), so ds must be small here
    dt = 0.05
    ds_f = 2e-3
    s_f = ds_f * np.arange(-int(3.0 / ds_f), int(3.0 / ds_f) + 1)
    t3 = np.array([0.5 - dt, 0.5, 0.5 + dt])
    data3 = IntrinsicData(s_f, t3, np.ones((3, len(s_f))), np.zeros((3, len(s_f))))
    t_dense = np.linspace(t3[0], t3[-1], 201)
    series = flow.OriginSeries(t_dense, 0 * t_dense, 0 * t_dense, 0 * t_dense,
                               np.ones_like(t_dense))
    res3 = flow.reconstruct_flow(data3, np.eye(3), np.zeros(3),
                                 origin_series=series)
    # the stencil's own truncation (~h^2/4) is the whole residual: the exact
    # translating circle (sin s, 1 - cos s, t) on the same grid reads the same
    sg = res3.curves[1].s_grid
    exact = [geometry.Curve(sg, np.column_stack([np.sin(sg), 1 - np.cos(sg),
                                                 np.full(len(sg), tk)]))
             for tk in t3]
    assert abs(geometry.bf_residual(*res3.curves, dt=dt)
               - geometry.bf_residual(*exact, dt=dt)) <= 1e-9


@pytest.mark.parametrize("s_max,ds", [(3.0, 0.05), (5.0, 0.01)])
def test_reconstructed_curves_lie_on_data_grid(s_max, ds):
    # s_max/ds whole: every slice must come back on the data's own nodes,
    # not on a grid with one spurious output block per side
    n_half = int(round(s_max / ds))
    s = ds * np.arange(-n_half, n_half + 1)
    t = np.array([0.5, 1.0])
    ones = np.ones((len(t), len(s)))
    res = flow.reconstruct_flow(IntrinsicData(s, t, ones, 0.3 * ones),
                                np.eye(3), np.zeros(3))
    for curve in res.curves:
        assert len(curve.s_grid) == len(s)
        assert np.max(np.abs(curve.s_grid - s)) <= 1e-12


@pytest.mark.parametrize("frame0, message", [
    (np.zeros((3, 3)), "orthonormal"), (2 * np.eye(3), "orthonormal"),
    (np.diag([1.0, 1.0, -1.0]), "right-handed"), (np.full((3, 3), np.nan), "orthonormal"),
    (np.eye(2), "3x3"),
], ids=["zero", "twice-identity", "left-handed", "nan", "2x2"])
def test_raw_frame0_must_be_a_frame(frame0, message):
    # both boundaries that take a raw matrix check it as FrenetFrame does
    data = selfsimilar_data(0.5, 0.5, 1.0, 3, 1.0, 0.05)
    with pytest.raises(InvalidParameter, match=message):
        flow.reconstruct_flow(data, frame0, np.zeros(3))
    ones = lambda s: np.ones(np.shape(s))
    with pytest.raises(InvalidParameter, match=message):
        geometry.frenet_integrate(ones, ones, frame0, (0.0, 1.0))


BAD_TIMES = {
    "unsorted": [0.5, 1.0, 0.75],
    "repeated": [0.5, 0.75, 0.75],
    "zero": [0.0, 0.5, 1.0],
    "negative": [-0.5, 0.5, 1.0],
    "nan": [0.5, np.nan, 1.0],
}


@pytest.mark.parametrize("which", ["t_grid", "origin_series.t"])
@pytest.mark.parametrize("bad", list(BAD_TIMES))
def test_reconstruct_rejects_bad_times(which, bad):
    s = np.linspace(-1, 1, 21)
    good = np.array([0.5, 0.75, 1.0])
    t = np.array(BAD_TIMES[bad])
    ones = np.ones((3, 21))
    data = IntrinsicData(s, t if which == "t_grid" else good, ones, 0 * ones)
    series = None
    if which == "origin_series.t":
        series = flow.OriginSeries(t, 0 * t, 0 * t, 0 * t, np.ones(3))
    with pytest.raises(ConstraintViolated, match=re.escape(which)):
        flow.reconstruct_flow(data, np.eye(3), np.zeros(3), origin_series=series)


def test_reconstruct_two_slices_integrates_origin_by_trapezoid():
    # two series nodes are below Simpson's three: the log-t integral of
    # c b t is one trapezoid, as scipy's cumulative_simpson gives it
    s = np.linspace(-1, 1, 21)
    t = np.array([0.5, 1.0])
    c = np.array([[1.3], [0.9]]) * np.ones((2, 21))
    point0 = np.array([0.1, -0.2, 0.3])
    res = flow.reconstruct_flow(IntrinsicData(s, t, c, 0.4 * np.ones((2, 21))),
                                np.eye(3), point0)
    integrand = c[:, 10, None] * res.frame_at_origin[:, 2, :] * t[:, None]
    I = cumulative_simpson(integrand, x=np.log(t), axis=0, initial=0.0)
    assert np.array_equal(res.chi_origin, point0[None] + (I - I[-1]))


def test_reconstruct_rejects_vanishing_curvature():
    s = np.linspace(-1, 1, 21)
    t = np.array([0.5, 1.0])
    c = np.ones((2, 21))
    c[1, 3] = 0.0
    with pytest.raises(CurvatureVanishes):
        flow.reconstruct_flow(IntrinsicData(s, t, c, 0 * c), np.eye(3), np.zeros(3))


def _stability_origin_series(monkeypatch):
    """The geometric-t origin series that a small stability run builds."""
    seen = []
    ode = flow._frame_ode_backward

    def recording(series):
        seen.append(series)
        return ode(series)

    monkeypatch.setattr(flow, "_frame_ode_backward", recording)
    up = nls.gaussian_field(1100.0, 1024, 0.04, width=2.0)
    flow.stability_experiment(0.5, up, 1.0, t_min_factor=1e-4, s_max=1.0,
                              ds=0.05, n_steps=700, n_slices=8)
    monkeypatch.undo()
    return seen[0]


def _raw_origin_series(monkeypatch):
    """Finite-difference origin series of smooth data on a jittered t grid."""
    rng = np.random.default_rng(0)
    n_t = 400
    t = np.sort(0.1 * 10 ** ((np.arange(n_t) + rng.uniform(-0.3, 0.3, n_t)) / (n_t - 1)))
    s = 0.1 * np.arange(-2, 3)
    c = 1 + 0.3 * np.sin(s[None] + 2 * t[:, None]) + 0.1 * s[None] ** 2
    tau = 0.5 * np.cos(s[None] - t[:, None]) + s[None] / (2 * t[:, None])
    return flow._origin_series_from_data(IntrinsicData(s, t, c, tau), 2)


@pytest.mark.parametrize("make_series", [_stability_origin_series, _raw_origin_series],
                         ids=["stability-geometric-t", "raw-data-nonuniform-t"])
def test_origin_frame_ode_matches_dop853(monkeypatch, make_series):
    # reference: DOP853 run interval by interval from t_max down, on the
    # same log-t interpolated coefficients (linear in log t on each interval)
    series = make_series(monkeypatch)
    assert np.ptp(np.diff(series.t)) > 0
    lt = np.log(series.t)

    def rhs(tt, y):
        x = math.log(tt)
        ct, cs, g = (np.interp(x, lt, v) for v in (series.ctau, series.c_s, series.g))
        A = np.array([[0.0, -ct, cs], [ct, 0.0, g], [-cs, -g, 0.0]])
        return (A @ y.reshape(3, 3)).ravel()

    ref = np.empty((len(series.t), 3, 3))
    ref[-1] = np.eye(3)
    for k in range(len(series.t) - 1, 0, -1):
        sol = solve_ivp(rhs, (series.t[k], series.t[k - 1]), ref[k].ravel(),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        ref[k - 1] = sol.y[:, -1].reshape(3, 3)
    F = flow._frame_ode_backward(series)
    assert np.max(np.abs(ref[0] - np.eye(3))) > 1e-2  # the frame does turn
    assert np.max(np.abs(F - ref)) <= 1e-12
    assert np.max(np.abs(F @ F.swapaxes(1, 2) - np.eye(3))) <= 1e-14


def test_trace_at_zero_selfsimilar():
    a = 0.5
    t_min = 1e-3
    data = selfsimilar_data(a, t_min, 1.0, 61, 3.0, 0.02)
    res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 2 * a]))
    trace, const = flow.trace_at_zero(res)
    # the V-shape with directions A+/- of the profile family
    prof = selfsimilar.profile(a, 3.0 / math.sqrt(t_min) + 5)
    cone = selfsimilar.chi(prof, trace.s_grid, 0.0)
    gap = np.max(np.linalg.norm(trace.points - cone, axis=1))
    assert gap <= 2 * a * math.sqrt(t_min) * (1 + 1e-6)
    assert const <= 2 * a * (1 + 1e-2)
    # FlowResult invariant: |chi(s,t_k) - trace(s)| <= constant sqrt(t_k)
    for k, tk in enumerate(res.t_grid):
        d = np.max(np.linalg.norm(res.curves[k].points - trace.points, axis=1))
        assert d <= const * math.sqrt(tk) * (1 + 1e-12)


def test_trace_constant_stable_in_tmin():
    a = 0.5
    consts = []
    for t_min in (1e-3, 1e-4):
        data = selfsimilar_data(a, t_min, 1.0, 61, 2.0, 0.02)
        res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 2 * a]))
        consts.append(flow.trace_at_zero(res)[1])
    assert abs(consts[0] - consts[1]) <= 0.2 * consts[0]


def test_trace_requires_time_range():
    data = selfsimilar_data(0.5, 0.5, 1.0, 9, 1.0, 0.05)
    res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InsufficientTimeRange):
        flow.trace_at_zero(res)


def test_tangent_pde_residual_second_order():
    a = 0.6
    r = []
    for n_t, ds in ((21, 0.04), (41, 0.02)):
        data = selfsimilar_data(a, 0.5, 1.0, n_t, 2.0, ds)
        res = flow.reconstruct_flow(data, np.eye(3),
                                    np.array([0.0, 0.0, 2 * a]))
        r.append(flow.tangent_pde_residual(res))
    assert r[0] / r[1] > 3.0


def test_hasimoto_consistency_roundtrip():
    a = 0.5
    data = selfsimilar_data(a, 0.5, 1.0, 9, 3.0, 0.01)
    res = flow.reconstruct_flow(data, np.eye(3), np.array([0.0, 0.0, 2 * a]))
    k = 4
    out = geometry.curvature_torsion_from_curve(res.curves[k])
    c_in = np.interp(out.s_grid, data.s_grid, data.c[k])
    tau_in = np.interp(out.s_grid, data.s_grid, data.tau[k])
    assert np.max(np.abs(out.c - c_in)) < 5e-4
    assert np.max(np.abs(out.tau - tau_in)) < 5e-4


def test_stability_unperturbed_reproduces_selfsimilar():
    a = 0.5
    zero = nls.gaussian_field(1100.0, 4096, 0.0, width=2.0)
    rep = flow.stability_experiment(a, zero, 1.0, t_min_factor=1e-4,
                                    s_max=4.0, ds=0.02, n_steps=700,
                                    n_slices=25)
    assert rep.cone_defect <= 1e-4
    assert abs(rep.gamma_measured - rep.gamma_closed_form) <= 2e-3
    assert rep.trace_constant <= 2 * a * (1 + 1e-2)
    assert rep.sup_T_defect <= 5e-3
    assert rep.extra_identity_defect <= 1e-6
    assert rep.boundary_w_max == 0.0
    assert rep.min_v_over_a == pytest.approx(1.0, abs=1e-12)


def test_stability_perturbed_small_run():
    a = 0.5
    up = nls.gaussian_field(1100.0, 4096, 5e-3, width=2.0)
    rep = flow.stability_experiment(a, up, 1.0, t_min_factor=1e-4,
                                    s_max=4.0, ds=0.02, n_steps=700,
                                    n_slices=25)
    assert rep.cone_defect <= 0.05
    assert abs(rep.gamma_measured - rep.gamma_closed_form) <= 0.05
    assert rep.trace_constant <= 3 * a
    assert rep.extra_identity_defect <= 1e-2
    assert rep.boundary_w_max <= 1e-3 * a


def test_sup_T_defect_does_not_depend_on_the_reference_span(monkeypatch):
    # the reference tangent is evaluated on the slice nodes, not interpolated
    # between profile nodes, so a wider profile (other nodes) gives the same
    # figure; linear interpolation moved it by 6e-8 here
    up = nls.gaussian_field(1100.0, 4096, 5e-3, width=2.0)
    kw = dict(t_min_factor=1e-4, s_max=4.0, ds=0.02, n_steps=700, n_slices=25)
    base = flow.stability_experiment(0.5, up, 1.0, **kw)
    assert 0 < base.profile_slices < 25
    profile = selfsimilar.profile
    monkeypatch.setattr(flow.selfsimilar, "profile", lambda a, S: profile(a, 1.5 * S))
    wide = flow.stability_experiment(0.5, up, 1.0, **kw)
    assert abs(wide.sup_T_defect - base.sup_T_defect) <= 1e-12


def test_stability_gates():
    big = nls.gaussian_field(1100.0, 4096, 0.2, width=2.0)
    with pytest.raises(InvalidParameter):
        flow.stability_experiment(0.5, big, 1.0)  # perturbation too large


@pytest.mark.parametrize("bad", [
    {"t0": 0.0}, {"t0": -1.0}, {"t0": math.inf}, {"t_min_factor": 0.0},
    {"t_min_factor": math.nan}, {"s_max": math.inf}, {"s_max": -1.0},
    {"ds": 0.0}, {"ds": -math.inf}, {"t0": 1e-200, "t_min_factor": 1e-200},
])
def test_stability_rejects_bad_scales(bad):
    # checked before any division by t0 * t_min_factor or ds
    up = nls.gaussian_field(100.0, 256, 5e-3, width=2.0)
    args = {"t0": 1.0, "t_min_factor": 1e-2, "s_max": 1.0, "ds": 0.05, **bad}
    with pytest.raises(InvalidParameter, match="finite and positive"):
        flow.stability_experiment(0.5, up, args.pop("t0"), n_steps=20, n_slices=8,
                                  **args)


def test_stability_rejects_too_few_slices():
    up = nls.gaussian_field(1100.0, 4096, 5e-3, width=2.0)
    with pytest.raises(InvalidParameter, match="n_slices"):
        flow.stability_experiment(0.5, up, 1.0, n_steps=100, n_slices=3)


def test_stability_rejects_more_slices_than_stored_times():
    # rounded slice ids would collide and silently drop slices
    up = nls.gaussian_field(1100.0, 4096, 5e-3, width=2.0)
    with pytest.raises(InvalidParameter, match="n_slices"):
        flow.stability_experiment(0.5, up, 1.0, n_steps=10, n_slices=12)


def test_stability_fails_at_first_dip(monkeypatch):
    # a narrow bump of norm 0.09 a, phased so that v(0) ~ a - 0.34 at the
    # start, dips below a/2 on the first step; counting inverse FFTs shows
    # the run stops there instead of after all 100000 split steps (on one
    # CPU, so that the stage runs in this process, where they are counted)
    monkeypatch.setattr(flow.dataio, "_fork_cpus", lambda: 1)
    a, t0 = 0.5, 1e6
    bump = nls.gaussian_field(10.0, 4096, 0.09 * a, width=0.01)
    phase = 0.5 * a * a * math.log(1.0 / t0)
    up = bump.copy_with(-bump.values * np.exp(-1j * phase))
    calls = []
    ifft = np.fft.ifft

    def counting_ifft(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    with pytest.raises(CurvatureVanishes, match=r"dipped to .* < 0\.5 a; perturbation too large"):
        flow.stability_experiment(a, up, t0, n_steps=100_000, n_slices=40)
    assert len(calls) < 10


def _previous_stage(problem, v0, n_steps, slice_ids, s_grid):
    """Reference: the Schrodinger stage before it read the spectrum.

    An inverse FFT after every step gives v(0) and the step-end min |v|;
    every slice keeps its full-box (v, v_x) and is upsampled through an FFT
    pair before the interpolation.
    """
    a = problem.background_a
    N = v0.n_points
    xi = v0.xi()
    x_grid = v0.grid()
    i0 = int(np.argmin(np.abs(x_grid)))
    w1 = 1j * xi * np.exp(1j * xi * (x_grid[i0] - v0.s0)) / N
    w2 = -(xi**2) * np.exp(1j * xi * (x_grid[i0] - v0.s0)) / N
    Ts = nls.time_grid(problem, n_steps)
    origin, slices = [], {}

    def record(k, vv, vhat):
        origin.append((vv[i0], w1 @ vhat, w2 @ vhat))
        if k in slice_ids:
            slices[k] = (vv, np.fft.ifft(1j * xi * vhat))

    record(0, v0.values, np.fft.fft(v0.values))
    min_abs = np.inf
    for k, _, vhat, _ in nls._strang(problem, v0, n_steps):
        v = np.fft.ifft(vhat)
        min_abs = min(min_abs, float(np.min(np.abs(v))))
        record(k, v, vhat)

    upf = 4
    x_fine = v0.s0 + (v0.domain_length / (upf * N)) * np.arange(upf * N)

    def upsample(vals):
        spec = np.fft.fft(vals)
        pad = np.zeros(upf * N, dtype=complex)
        pad[: N // 2] = spec[: N // 2]
        pad[-N // 2 :] = spec[-N // 2 :]
        return np.fft.ifft(pad) * upf

    ks = sorted(slice_ids, reverse=True)  # ascending t = 1/T
    cmat = np.empty((len(ks), len(s_grid)))
    taumat = np.empty_like(cmat)
    boundary_w = 0.0
    for row, k in enumerate(ks):
        tk = 1.0 / Ts[k]
        vv, vx = slices[k]
        boundary_w = max(boundary_w, float(abs(vv[0] - a)), float(abs(vv[-1] - a)))
        vvf, vxf = upsample(vv), upsample(vx)
        xq = s_grid / tk
        vq = (np.interp(xq, x_fine, vvf.real, left=a, right=a)
              + 1j * np.interp(xq, x_fine, vvf.imag, left=0.0, right=0.0))
        vxq = (np.interp(xq, x_fine, vxf.real, left=0.0, right=0.0)
               + 1j * np.interp(xq, x_fine, vxf.imag, left=0.0, right=0.0))
        cmat[row] = np.abs(vq) / math.sqrt(tk)
        taumat[row] = s_grid / (2 * tk) - np.imag(vxq / vq) / tk
    return np.array(origin), cmat, taumat, min_abs, boundary_w


def _small_stability(stage=None):
    """A 100-step run at N = 512 whose slices lie on both sides of t_clean;
    also returns the stage's inputs and outputs, recorded on one CPU, where
    the stage runs in this process."""
    seen = []
    run_stage = stage or flow._schrodinger_stage

    def recording(*args):
        out = run_stage(*args)
        seen.append((args, out))
        return out

    up = nls.gaussian_field(125.0, 512, 1e-2, width=2.0)
    up = up.copy_with(up.values * np.exp(0.4j * up.grid()))  # v_x(0) != 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_schrodinger_stage", recording)
        mp.setattr(flow.dataio, "_fork_cpus", lambda: 1)
        rep = flow.stability_experiment(0.5, up, 1.0, t_min_factor=1e-2, s_max=1.0,
                                        ds=0.05, n_steps=100, n_slices=12)
    return rep, seen[0]


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def test_stability_stage_matches_previous_stage():
    rep, (args, out) = _small_stability()
    assert 0 < rep.profile_slices < 12
    origin, cmat, taumat, min_abs, boundary_w = out
    ref = _previous_stage(*args)
    for col in range(3):  # v, v_x, v_xx at x = 0
        assert _rel(origin[:, col], ref[0][:, col]) <= 1e-12
    assert _rel(cmat, ref[1]) <= 1e-12
    assert _rel(taumat, ref[2]) <= 1e-12
    assert boundary_w > 0
    assert abs(boundary_w - ref[4]) <= 1e-12 * ref[4]
    # mid-step against step-end samples of the same run
    assert abs(min_abs - ref[3]) <= 1e-2 * ref[3]


def test_stability_report_matches_previous_stage():
    new, _ = _small_stability()
    old, _ = _small_stability(_previous_stage)
    got, want = new.to_dict(), old.to_dict()
    assert got.keys() == want.keys()
    for key in got.keys() - {"min_v_over_a"}:
        if key == "vertex":  # its first component is roundoff-sized
            assert _rel(got[key], want[key]) <= 1e-12
            continue
        g, w = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
        assert np.all(np.abs(g - w) <= 1e-12 * np.abs(w)), key


def test_stability_keeps_no_full_box_slices(monkeypatch):
    # 40 slices of full-box (v, v_x) at N = 2^15 would hold
    # 40 * 2 * 2^15 * 16 B = 42 MB; the stage keeps rows on the curve nodes.
    # tracemalloc sees this process only: the stage runs here on one CPU
    monkeypatch.setattr(flow.dataio, "_fork_cpus", lambda: 1)
    n = 2**15
    up = nls.gaussian_field(125.0, n, 1e-2, width=2.0)
    tracemalloc.start()
    try:
        flow.stability_experiment(0.5, up, 1.0, t_min_factor=1e-2, s_max=1.0,
                                  ds=0.05, n_steps=60, n_slices=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 * n * 16 / 2


@pytest.mark.parametrize("big", [{"n_steps": 10**8}, {"n_points": 2**40},
                                 {"n_slices": 10**6}, {"ds": 1e-9},
                                 {"t_min_factor": 1e-9}])
def test_stability_plans_its_memory(big):
    # the last case is the reference profile: 1.3e9 nodes to sigma = 31623
    args = {"t0": 1.0, "t_min_factor": 1e-2, "s_max": 1.0, "ds": 0.05,
            "n_points": 256, "n_steps": 20, "n_slices": 8}
    flow.check_scales(*args.values())
    with pytest.raises(MemoryBudgetExceeded, match="budget"):
        flow.check_scales(*{**args, **big}.values())
