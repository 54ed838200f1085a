"""Binormal-flow reconstruction from intrinsic data and the corner-stability
experiment.

Given curvature/torsion fields (c, tau) on a (t, s) grid, the frame at s=0
is propagated backward in time by the ODE with matrix entries
(0, -c tau, c_s; c tau, 0, (c_ss - c tau^2)/c; -c_s, ..., 0) -- a skew
system, so it runs on the package's quaternion Magnus-4 step and prefix scan
with exact rotations -- each time slice is completed by Frenet integration
in s, and the curve follows from
chi(s,t) = chi(0,t~0) - int c b dt' + int T ds.  The t -> 0 limit exists
with |chi(s,t) - chi0(s)| <= C a sqrt(t); the stability experiment drives
the whole chain from a perturbed filament function built on the
Schrodinger side.

A slice that carries the unperturbed fields c = a/sqrt(t), tau = s/2t is
the self-similar profile rescaled, chi = sqrt(t) G(s/sqrt(t)), turned and
moved by the origin frame and point of that slice: the stability experiment
builds its slices below the box's faithful horizon from its reference
profile instead of integrating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nls, selfsimilar
from .errors import (
    ConstraintViolated,
    CurvatureVanishes,
    GridTooCoarse,
    InsufficientTimeRange,
    InvalidParameter,
)
from .geometry import (Curve, IntrinsicData, SolverConfig, _cumulative_simpson,
                       _nonuniform_dt, propagate_frame)
from .integrators import (GAUSS_C1, GAUSS_C2, _Q_ONE, _plan, _qmul, _rotation,
                          _scan, magnus_omega, rodrigues_phi1, two_sided)

_ORIGIN_SUBSTEPS = 2  # uniform frame-ODE steps per origin-series interval
_SLICE_STEP = 1e-3     # fine-step bound of the Frenet integration in s


@dataclass
class OriginSeries:
    """s = 0 coefficient history used by the backward frame ODE.

    ``g`` is the normal/binormal coupling entry of the ODE matrix.  For raw
    sampled data it is (c_ss - c tau^2)/c; the Schrodinger-side pipeline
    instead supplies (a^2/t - c^2)/2 together with the gauge phase ``phi``
    (the frame ODE is integrated for the twisted normal/binormal pair
    n~ + i b~ = e^{i phi/2}(n + i b), which removes the phase-derivative
    term and needs no second derivatives of the field).
    """

    t: np.ndarray       # ascending
    ctau: np.ndarray
    c_s: np.ndarray
    g: np.ndarray
    c0: np.ndarray      # curvature at s = 0
    phi: np.ndarray | None = None  # gauge phase; None means identity gauge


@dataclass
class FlowResult:
    t_grid: np.ndarray
    curves: list
    frame_at_origin: np.ndarray     # (n_t, 3, 3), rows (T, n, b)
    chi_origin: np.ndarray          # (n_t, 3)
    profile_slices: int = 0         # slices built from the reference profile


def intrinsic_residual(data):
    """Max-norm residual of the intrinsic (curvature/torsion) equations."""
    if len(data.t_grid) < 3:
        raise GridTooCoarse("need at least 3 time slices")
    if len(data.s_grid) < 5:
        raise GridTooCoarse("need at least 5 s samples")
    s, t = data.s_grid, data.t_grid
    ds = s[1] - s[0]
    c, tau = data.c, data.tau

    def d_s(f):
        return (f[:, 2:] - f[:, :-2]) / (2 * ds)

    c_t = _nonuniform_dt(c, t)[:, 1:-1]
    tau_t = _nonuniform_dt(tau, t)[:, 1:-1]
    mid = slice(1, -1)
    r1 = c_t - (-(d_s(c * tau)) - d_s(c) * tau[:, 1:-1])[mid]
    c_ss = (c[:, 2:] - 2 * c[:, 1:-1] + c[:, :-2]) / ds**2
    q = (c_ss - (c * tau**2)[:, 1:-1]) / c[:, 1:-1]
    q_s = (q[:, 2:] - q[:, :-2]) / (2 * ds)
    r2 = tau_t[:, 1:-1] - (q_s[mid] + (d_s(c) * c[:, 1:-1])[mid][:, 1:-1])
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))


def _origin_series_from_data(data, i0):
    s, t = data.s_grid, data.t_grid
    ds = s[1] - s[0]
    c, tau = data.c, data.tau
    c_s = (c[:, i0 + 1] - c[:, i0 - 1]) / (2 * ds)
    c_ss = (c[:, i0 + 1] - 2 * c[:, i0] + c[:, i0 - 1]) / ds**2
    q = (c_ss - c[:, i0] * tau[:, i0] ** 2) / c[:, i0]
    return OriginSeries(t, c[:, i0] * tau[:, i0], c_s, q, c[:, i0])


def _gauge_rotation(phi):
    """Row mixers sending (T, n~, b~) to (T, n, b): n + i b = e^{-i phi/2}(n~ + i b~)."""
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    R = np.zeros(np.shape(phi) + (3, 3))
    R[..., 0, 0] = 1.0
    R[..., 1, 1] = R[..., 2, 2] = c
    R[..., 1, 2] = s
    R[..., 2, 1] = -s
    return R


def _spectral_support(field):
    """Frequency radius holding all but 1e-8 of the spectral energy."""
    spec = np.abs(np.fft.fft(field.values)) ** 2
    tot = spec.sum()
    if tot == 0:
        return 0.0
    xi = np.abs(field.xi())
    order = np.argsort(xi)
    cum = np.cumsum(spec[order])
    k = int(np.searchsorted(cum, (1 - 1e-8) * tot))
    return float(xi[order[min(k, len(xi) - 1)]])


def _frame_ode_backward(series):
    """Propagators of the s=0 frame ODE from max(t) down to every series node.

    F' = A(t) F with A = (0, -c tau, c_s; c tau, 0, g; -c_s, -g, 0), the
    entries interpolated linearly in log t.  Each series interval takes
    ``_ORIGIN_SUBSTEPS`` uniform Magnus-4 steps, whose exponentials are exact
    rotations combined by the quaternion prefix scan of the frame kernel.
    """
    lt = np.log(series.t)
    t = series.t[::-1]
    m = _ORIGIN_SUBSTEPS
    h = np.repeat(np.diff(t) / m, m)
    start = np.repeat(t[:-1], m) + np.tile(np.arange(m), len(t) - 1) * h

    def coeffs(tt):
        x = np.log(tt)
        ct, cs, g = (np.interp(x, lt, v) for v in (series.ctau, series.c_s, series.g))
        A = np.zeros(tt.shape + (3, 3))
        A[:, 1, 0], A[:, 0, 2], A[:, 1, 2] = ct, cs, g
        return A - A.swapaxes(1, 2)

    Om = magnus_omega(coeffs(start + GAUSS_C1 * h), coeffs(start + GAUSS_C2 * h),
                      h[:, None, None])
    q, _, _ = rodrigues_phi1(np.stack([Om[:, 2, 1], Om[:, 0, 2], Om[:, 1, 0]], axis=1))
    out = np.empty((len(t), 3, 3))
    out[0] = np.eye(3)
    out[1:] = _rotation(_scan(q, _qmul, _Q_ONE)[m - 1 :: m])
    return out[::-1]


def _slice_nodes(s, m):
    """The s nodes of a slice integrated at ``m`` fine steps per grid step."""
    ds = s[1] - s[0]
    return two_sided(lambda end: (_plan(0.0, end, ds / m, m, None)[2],),
                     float(s[0]), float(s[-1]))[0]


def _profile_slice(prof, s_nodes, tk, Fk, pk):
    """Slice of the fields c = a/sqrt(t), tau = s/2t built from the profile.

    With sigma = s/sqrt(t) the Frenet system in s is the profile system in
    sigma, so the frame is F_G(sigma) @ Fk and the point
    pk + sqrt(t) (G(sigma) - G(0)) @ Fk.
    """
    rt = math.sqrt(tk)
    F, G = selfsimilar.evaluate(prof, s_nodes / rt)
    G0 = prof.curve.points[np.searchsorted(prof.curve.s_grid, 0.0)]
    return Curve(s_nodes, pk + rt * (G - G0) @ Fk, F @ Fk)


def _check_times(t, name):
    """Slice and series times are integrated in log t: finite, > 0, increasing."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ConstraintViolated(f"{name} must be finite and positive")
    if np.any(np.diff(t) <= 0):
        raise ConstraintViolated(f"{name} must be strictly increasing")


def reconstruct_flow(data, frame0, point0, *, origin_series=None, reference=None):
    """Reconstruct curves for every time slice of the intrinsic data.

    ``frame0`` (rows T,n,b) and ``point0`` are the data at (s=0, t=max).
    ``origin_series`` overrides the finite-difference s=0 coefficient
    history (used by the Schrodinger-side pipeline, where spectral values
    are available).  ``reference = (prof, t_cut)`` declares that every
    slice with t < t_cut carries the unperturbed fields c = prof.a/sqrt(t),
    tau = s/2t; those slices are built from the profile, not integrated.
    The slice times and the series times must be finite, > 0 and strictly
    increasing (ConstraintViolated).
    """
    _check_times(data.t_grid, "t_grid")
    if origin_series is not None:
        _check_times(origin_series.t, "origin_series.t")
    if np.min(data.c) <= 0:
        raise CurvatureVanishes("reconstruction requires c > 0 on the grid")
    s = data.s_grid
    if len(s) < 5 or len(data.t_grid) < 2:
        raise GridTooCoarse("need >= 5 s nodes and >= 2 time slices")
    ds = s[1] - s[0]
    i0 = int(np.argmin(np.abs(s)))
    if abs(s[i0]) > 1e-9 * max(1.0, ds):
        raise GridTooCoarse("s = 0 must be a grid node")
    if i0 == 0 or i0 == len(s) - 1:
        raise GridTooCoarse("s = 0 must be an interior node")
    series = origin_series or _origin_series_from_data(data, i0)
    Fseries = _frame_ode_backward(series)
    # frame0 is imposed at t_max: Fseries is the propagator from t_max back
    F0 = np.asarray(frame0, dtype=float)
    frames_series = Fseries @ F0
    if series.phi is not None:
        frames_series = _gauge_rotation(series.phi) @ frames_series
    # chi(0,t) = point0 - int_t^{tmax} c b dt' (log-t Simpson on the series)
    b_rows = frames_series[:, 2, :]
    integrand = series.c0[:, None] * b_rows * series.t[:, None]
    I = _cumulative_simpson(integrand, np.log(series.t))
    chi0_series = np.asarray(point0)[None] + (I - I[-1])
    lt = np.log(series.t)

    def at_slice(tt):
        x = math.log(tt)
        j = int(np.argmin(np.abs(lt - x)))
        if abs(lt[j] - x) > 1e-9:
            raise GridTooCoarse("slice time missing from the origin series")
        return frames_series[j], chi0_series[j] + 0.0

    def build_slice(k):
        tk = data.t_grid[k]
        Fk, pk = at_slice(tk)
        cv, tv = data.c[k], data.tau[k]
        tau_max = float(np.max(np.abs(tv)))
        target = min(_SLICE_STEP, 0.25 / max(1.0, tau_max))
        m = max(1, int(math.ceil(ds / target)))
        if tk < t_cut:
            return _profile_slice(prof, _slice_nodes(s, m), tk, Fk, pk)
        c_fn = lambda x: np.interp(x, s, cv)
        tau_fn = lambda x: np.interp(x, s, tv)
        ss, FF, GG = two_sided(
            lambda end: propagate_frame(c_fn, tau_fn, 0.0, end, Fk, step=ds / m,
                                        out_every=m, position0=pk,
                                        max_steps=SolverConfig.max_steps),
            float(s[0]), float(s[-1]),
        )
        return Curve(ss, GG, FF)

    prof, t_cut = reference or (None, 0.0)
    curves = [build_slice(k) for k in range(len(data.t_grid))]
    frames_origin = np.array([at_slice(tk)[0] for tk in data.t_grid])
    chi_origin = np.array([at_slice(tk)[1] for tk in data.t_grid])
    return FlowResult(np.asarray(data.t_grid, dtype=float), curves,
                      frames_origin, chi_origin, int(np.sum(data.t_grid < t_cut)))


def trace_at_zero(result):
    """Trace estimate chi(., t_min) and the measured sqrt(t) constant."""
    t = result.t_grid
    if len(t) < 4:
        raise InsufficientTimeRange("need at least 4 stored times")
    if t[0] / t[-1] > 1e-2:
        raise InsufficientTimeRange("need t_min/t_max <= 1e-2")
    trace = result.curves[0]
    const = 0.0
    for k in range(1, len(t)):
        d = np.max(np.linalg.norm(result.curves[k].points - trace.points, axis=1))
        const = max(const, d / math.sqrt(t[k]))
    return Curve(trace.s_grid.copy(), trace.points.copy()), float(const)


def tangent_pde_residual(result):
    """Finite-difference residual of T_t = T x T_ss on the reconstruction."""
    t = result.t_grid
    if len(t) < 3:
        raise GridTooCoarse("need at least 3 slices")
    T = np.stack([c.frames[:, 0] for c in result.curves])
    s = result.curves[0].s_grid
    ds = s[1] - s[0]
    T_t = _nonuniform_dt(T, t)
    T_ss = (T[:, 2:] - 2 * T[:, 1:-1] + T[:, :-2]) / ds**2
    res = T_t[:, 1:-1] - np.cross(T[1:-1, 1:-1], T_ss[1:-1])
    return float(np.max(np.linalg.norm(res, axis=2)))


@dataclass
class StabilityReport:
    """Summary of one stability run; ``to_dict`` is its ``run.json``.

    The slices with t < ``t_clean`` carry the unperturbed fields and are
    built from the reference profile (their count is
    ``flow.profile_slices``); on them ``sup_T_defect`` measures only the
    perturbation of the origin frame.  The reference tangent is evaluated
    on each slice's nodes by ``selfsimilar.evaluate``, as the built slices
    are, so the figure does not depend on the profile's grid.
    """

    a: float
    sign: int
    coeff: float
    uplus_norm: float
    t_grid: np.ndarray
    cone_defect: float
    gamma_measured: float
    gamma_closed_form: float
    trace_constant: float
    sup_T_defect: float
    extra_identity_defect: float
    min_v_over_a: float
    boundary_w_max: float
    t_clean: float
    vertex: np.ndarray
    flow: FlowResult = field(repr=False)

    def to_dict(self):
        return {
            "a": self.a,
            "sign": self.sign,
            "coeff": self.coeff,
            "uplus_norm": self.uplus_norm,
            "t_grid": list(map(float, self.t_grid)),
            "cone_defect": self.cone_defect,
            "gamma_measured": self.gamma_measured,
            "gamma_closed_form": self.gamma_closed_form,
            "trace_constant": self.trace_constant,
            "sup_T_defect": self.sup_T_defect,
            "extra_identity_defect": self.extra_identity_defect,
            "min_v_over_a": self.min_v_over_a,
            "boundary_w_max": self.boundary_w_max,
            "t_clean": self.t_clean,
            "profile_slices": self.flow.profile_slices,
            "vertex": list(map(float, self.vertex)),
        }


def check_scales(t0, t_min_factor, s_max, ds):
    """Reject stability-run scales that are not finite and positive, and a
    curve grid whose node count 2 s_max/ds overflows."""
    for name, v in (("t0", t0), ("t_min_factor", t_min_factor), ("s_max", s_max),
                    ("ds", ds), ("t0 * t_min_factor", t0 * t_min_factor)):
        if not (math.isfinite(v) and v > 0):
            raise InvalidParameter(f"{name} must be finite and positive, got {v}")
    if not math.isfinite(2 * s_max / ds):
        raise InvalidParameter(f"ds = {ds} gives an infinite node count 2 s_max/ds")


def stability_experiment(a, u_plus, t0=1.0, *, t_min_factor=1e-4, s_max=5.0,
                         ds=0.01, n_steps=2000, n_slices=40):
    """Drive the perturbed corner pipeline end to end.

    The Schrodinger side runs the 1/t equation (coefficient 1/2, sign +1 --
    the normalization under which the pseudo-conformal image of the run is a
    filament function) from v1(1/t0) up to 1/t_min; curvature and torsion are
    read off through the pseudo-conformal map, the flow is rebuilt, and the
    report compares the trace against the unperturbed cone.

    Outside the periodic box the field is continued by the constant a (the
    perturbation there has dispersed to O(||u_plus||/sqrt(t_hi))); the
    report's boundary_w_max records the largest magnitude actually discarded.

    Slices with t below the box's faithful horizon ``t_clean`` carry the
    unperturbed fields c = a/sqrt(t), tau = s/2t and are built from the
    reference profile G_a, chi = sqrt(t) G(s/sqrt(t)), turned and moved by
    the measured origin frame and point; the others are integrated in s.
    """
    if a <= 0:
        raise InvalidParameter("a must be positive")
    check_scales(t0, t_min_factor, s_max, ds)
    if n_slices < 4:
        raise InvalidParameter("need n_slices >= 4 for the trace at t = 0")
    if n_slices > n_steps + 1:
        raise InvalidParameter(
            f"n_slices = {n_slices} exceeds the {n_steps + 1} stored times"
        )
    norm_up = u_plus.l2_norm()
    if norm_up > 0.1 * a:
        raise InvalidParameter("perturbation too large: need ||u_plus|| <= 0.1 a")
    t_max = float(t0)
    t_min = t_max * t_min_factor
    sign, coeff = 1, 0.5
    problem = nls.NlsProblem(sign=sign, background_a=a, potential="gp",
                             t_span=(1.0 / t_max, 1.0 / t_min), coeff=coeff)
    v0 = nls.long_range_ansatz(u_plus, a, sign, problem.t_span[0], coeff)
    N = u_plus.n_points
    xi = u_plus.xi()
    Ts = nls.time_grid(problem, n_steps)
    slice_ids = {int(k) for k in np.round(np.linspace(0, n_steps, n_slices))}
    x_grid = u_plus.grid()
    i0 = int(np.argmin(np.abs(x_grid)))
    w1 = 1j * xi * np.exp(1j * xi * (x_grid[i0] - u_plus.s0)) / N
    w2 = -(xi**2) * np.exp(1j * xi * (x_grid[i0] - u_plus.s0)) / N

    a2 = a * a
    origin = []  # (v, v_x, v_xx) at x = 0 after each step, in step order
    slices = {}

    def record(k, vv, vhat):
        origin.append((vv[i0], w1 @ vhat, w2 @ vhat))
        if k in slice_ids:
            slices[k] = (vv, np.fft.ifft(1j * xi * vhat))

    record(0, v0.values, np.fft.fft(v0.values))
    min_abs = np.inf
    for k, _, vhat in nls._strang(problem, v0, n_steps):
        v = np.fft.ifft(vhat)
        min_abs = min(min_abs, float(np.min(np.abs(v))))
        if min_abs < 0.5 * a:
            raise CurvatureVanishes(
                f"filament function dipped to {min_abs:g} < 0.5 a; perturbation too large"
            )
        record(k, v, vhat)

    # u-side origin series (t = 1/T, ascending in t).  The frame ODE is run
    # in the gauge n~ + i b~ = e^{i phi/2}(n + i b), whose coupling entry
    # (a^2/t - c^2)/2 needs only |v(0,T)| -- no spatial derivatives, so the
    # entry stays clean even when the dispersed tail wraps the box.
    t_u = (1.0 / Ts)[::-1]
    v0s, vx0, vxx0 = np.array(origin)[::-1].T
    absv = np.abs(v0s)
    tau0 = -np.imag(vx0 / v0s) / t_u
    c0 = absv / np.sqrt(t_u)
    dabs = np.real(np.conj(v0s) * vx0) / absv
    c_s0 = dabs / (t_u * np.sqrt(t_u))
    phi0 = np.unwrap(-np.angle(v0s))
    g_entry = (a2 / t_u - c0**2) / 2
    xi_cut = _spectral_support(u_plus)
    t_clean = 4.0 * xi_cut / u_plus.domain_length
    # the 1/t^{3/2}-weighted first-derivative entries are dominated by
    # box-wrap noise past the faithful horizon while their true size decays;
    # drop them there (the |v(0)|-based entries g and phi stay measured)
    ctau0 = c0 * tau0
    late = t_u < t_clean
    ctau0[late] = 0.0
    c_s0[late] = 0.0
    series = OriginSeries(t_u, ctau0, c_s0, g_entry, c0, phi=phi0)

    # extra-information identity at s = 0, a^2/t + phi_t = 2 q + c^2 with
    # q = (c_ss - c tau^2)/c read spectrally; reported relative to the
    # leading a^2/t scale and limited to times where the periodic box
    # still cleanly represents the line (before the dispersed tail wraps)
    d2abs = (np.real(np.conj(v0s) * vxx0) + np.abs(vx0) ** 2 - dabs**2) / absv
    q0 = d2abs / (absv * t_u**2) - tau0**2
    dphi = _nonuniform_dt(phi0[:, None], t_u)[:, 0]
    extra = np.abs(a2 / t_u[1:-1] + dphi - 2 * q0[1:-1] - c0[1:-1] ** 2)
    clean = t_u[1:-1] >= t_clean
    if not np.any(clean):
        clean = slice(None)
    extra_defect = float(np.max((extra * t_u[1:-1] / a2)[clean]))

    # (c, tau) fields on the fixed curve grid; slices are band-limited, so
    # upsample spectrally (zero padding) before the pointwise interpolation
    n_s = int(round(2 * s_max / ds))
    s_grid = -s_max + ds * np.arange(n_s + 1)
    t_slices = np.array(sorted(1.0 / Ts[k] for k in slice_ids))
    cmat = np.empty((len(t_slices), len(s_grid)))
    taumat = np.empty_like(cmat)
    by_t = {1.0 / Ts[k]: k for k in slice_ids}
    upf = 4
    x_fine = u_plus.s0 + (u_plus.domain_length / (upf * N)) * np.arange(upf * N)

    def upsample(vals):
        spec = np.fft.fft(vals)
        pad = np.zeros(upf * N, dtype=complex)
        pad[: N // 2] = spec[: N // 2]
        pad[-N // 2 :] = spec[-N // 2 :]
        return np.fft.ifft(pad) * upf

    boundary_w = 0.0
    for row, tk in enumerate(t_slices):
        if tk < t_clean:
            # past the box's faithful horizon the wrapped tail is numerical
            # noise while the true perturbation of (c, tau) integrates away
            # (oscillatory, amplitude O(||u_plus|| sqrt(t))): continue with
            # the unperturbed fields
            cmat[row] = a / math.sqrt(tk)
            taumat[row] = s_grid / (2 * tk)
            continue
        vv, vx = slices[by_t[tk]]
        boundary_w = max(boundary_w, float(abs(vv[0] - a)), float(abs(vv[-1] - a)))
        vvf, vxf = upsample(vv), upsample(vx)
        xq = s_grid / tk
        # beyond the box the perturbation has dispersed away: continue by a
        vq = (np.interp(xq, x_fine, vvf.real, left=a, right=a)
              + 1j * np.interp(xq, x_fine, vvf.imag, left=0.0, right=0.0))
        vxq = (np.interp(xq, x_fine, vxf.real, left=0.0, right=0.0)
               + 1j * np.interp(xq, x_fine, vxf.imag, left=0.0, right=0.0))
        cmat[row] = np.abs(vq) / math.sqrt(tk)
        taumat[row] = s_grid / (2 * tk) - np.imag(vxq / vq) / tk
    data = IntrinsicData(s_grid, t_slices, cmat, taumat)

    # unperturbed reference; it also yields the slices past t_clean, whose
    # fields above are exactly the self-similar ones
    # sized to the largest sigma = s/sqrt(t) a slice node reaches, plus one
    # output spacing; selfsimilar.evaluate still rejects a node beyond it
    sig_max = float(np.max(np.abs(s_grid))) / math.sqrt(t_slices[0])
    cfg = selfsimilar._default_cfg(sig_max)
    prof = selfsimilar.profile(a, max(sig_max + cfg.step * cfg.renorm_every, 50.0))
    point0 = np.array([0.0, 0.0, 2 * a * math.sqrt(t_max)])
    result = reconstruct_flow(data, np.eye(3), point0, origin_series=series,
                              reference=(prof, t_clean))
    trace, const = trace_at_zero(result)

    # every slice's nodes against the reference in one batched evaluation
    sig = np.concatenate([c.s_grid / math.sqrt(tk) for c, tk in zip(result.curves, t_slices)])
    T = np.concatenate([c.frames[:, 0] for c in result.curves])
    T_ref = selfsimilar.evaluate(prof, sig)[0][:, 0]
    sup_T = float(np.max(np.linalg.norm(T - T_ref, axis=1)))

    # vertex from the sqrt(t) law at s = 0, then cone defect vs A+/-
    r1, r2 = math.sqrt(t_slices[0]), math.sqrt(t_slices[1])
    chi_01 = result.chi_origin[0]
    chi_02 = result.chi_origin[1]
    vertex = chi_01 - r1 * (chi_02 - chi_01) / (r2 - r1)
    sA = selfsimilar.chi(prof, trace.s_grid, 0.0)
    dev = np.linalg.norm(trace.points - vertex[None] - sA, axis=1)
    # the floor |s| >= 1 keeps the sqrt(t_min) corner layer out of the quotient
    outer = np.abs(trace.s_grid) >= 1.0
    cone = float(np.max(dev[outer] / np.abs(trace.s_grid[outer])))
    dplus = trace.points[-1] - vertex
    dminus = trace.points[0] - vertex          # points along -A_minus
    dplus /= np.linalg.norm(dplus)
    dminus /= np.linalg.norm(dminus)
    gamma = float(np.arccos(np.clip(np.dot(dplus, dminus), -1, 1)))
    a1, gamma_cf = selfsimilar.corner_angle(a)
    return StabilityReport(
        a=float(a), sign=sign, coeff=coeff, uplus_norm=float(norm_up),
        t_grid=t_slices, cone_defect=cone, gamma_measured=gamma,
        gamma_closed_form=gamma_cf, trace_constant=const,
        sup_T_defect=sup_T, extra_identity_defect=extra_defect,
        min_v_over_a=float(min_abs / a), boundary_w_max=boundary_w,
        t_clean=float(t_clean), vertex=vertex, flow=result,
    )
