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

The Frenet system in s is linear in its initial state, so every slice is
integrated once from the identity frame and the point 0 at s = 0
(``_integrated_slice``) and then turned and moved to its origin frame and
point (``_placed``); ``reconstruct_flow`` and the stability experiment share
that one slice path.  A slice that carries the unperturbed fields
c = a/sqrt(t), tau = s/2t is the self-similar profile rescaled,
chi = sqrt(t) G(s/sqrt(t)), turned and moved the same way: the stability
experiment builds its slices below the box's faithful horizon from its
reference profile instead of integrating them.

The stability experiment's independent parts run at once where that pays:
its Schrodinger stage runs in a forked worker (``dataio._beside``) when this
process may run on two CPUs and the stage has at least ``_MIN_STAGE_SIZE``
step-points (n_steps + 1) N.  The stage sends two messages: the (c, tau)
rows of the slices past the horizon as soon as their last step k_c is done,
and the origin series once the run ends.  Meanwhile this process samples
the reference (G_a on every slice node, and A+/-), then integrates the
slices from those rows while the stage steps on to its end; they are placed
once the origin track is known.  The arithmetic is the serial run's, so the
report and its artifacts are bit-identical either way.  The reference is
``selfsimilar.sample``: one run over the profile's span that keeps only the
nodes the slices read, then read at the slice nodes in fixed pieces, so its
memory is its outputs, those nodes and one kernel piece, not the span; its
plan is ``selfsimilar.sample_plan``'s and its cone ``selfsimilar.v_shape``.
The slices are placed one at a time, each unplaced copy dropped as its
placed one is made, and ``sup_T_defect`` is read slice by slice, so no
array of every slice node is built besides the reference and the curves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import dataio, nls, selfsimilar
from .errors import (
    AliasingDetected,
    ConstraintViolated,
    CurvatureVanishes,
    GridTooCoarse,
    InsufficientTimeRange,
    InvalidParameter,
    MemoryBudgetExceeded,
    NonFiniteCoefficient,
)
from .geometry import (Curve, _checked_frame, _cumulative_simpson,
                       _nonuniform_dt, _uniform_step, propagate_frame)
from .integrators import (GAUSS_C1, GAUSS_C2, _Q_ONE, _check_angle, _qmul, _rotation,
                          _scan, magnus_omega, rodrigues_phi1, two_sided)

_ORIGIN_SUBSTEPS = 2  # uniform frame-ODE steps per origin-series interval
_SLICE_STEP = 1e-3     # fine-step bound of the Frenet integration in s
_UPSAMPLE = 4          # spectral upsampling of a slice before its interpolation
_CONE_FLOOR = 1.0      # the cone defect reads the nodes with |s| at or above it
# Planned bytes of a stability run per time step (time grid, origin series,
# origin-frame ODE), per box point (the stepper's buffers, the spectral
# weights, the upsampled slice) and per slice node (the (c, tau) rows and the
# curves), besides the reference's own plan.  The tracemalloc peak grows by
# 790, 265 and 172 (slice and reference node) bytes per unit, rounded up.
_BYTES_PER_STEP = 1000
_BYTES_PER_POINT = 400
_BYTES_PER_NODE = 500
# Range of the time scales t0 and t_min of a stability run: the pipeline's
# time derivatives and Magnus steps carry up to t^3, a normal float in here
_TIME_SCALES = (1e-100, 1e100)
# step-points (n_steps + 1) N of the Schrodinger stage at least before it
# runs in a forked worker: a fork, pipe and reap round trip costs about
# 2.5 ms, some 40 000 step-points at the stage's 60 ns each (the default
# stage, 5.7 million step-points, takes 0.33-0.40 s on a 2-vCPU Xeon)
_MIN_STAGE_SIZE = 40_000


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

    with np.errstate(over="ignore", invalid="ignore"):
        Om = magnus_omega(coeffs(start + GAUSS_C1 * h), coeffs(start + GAUSS_C2 * h),
                          h[:, None, None])
        omega = np.stack([Om[:, 2, 1], Om[:, 0, 2], Om[:, 1, 0]], axis=1)
        q, _, _ = rodrigues_phi1(omega)
        angle = math.sqrt(np.max(np.sum(omega * omega, axis=1), initial=0.0))
    if not np.all(np.isfinite(q.view(float))):
        raise NonFiniteCoefficient("origin propagator became non-finite")
    _check_angle(angle, "origin frame rotation angle |Omega|")
    out = np.empty((len(t), 3, 3))
    out[0] = np.eye(3)
    out[1:] = _rotation(_scan(q, _qmul, _Q_ONE)[m - 1 :: m])
    return out[::-1]


def _profile_slice(a, s, tk, ref):
    """Slice of the fields c = a/sqrt(t), tau = s/2t built from the profile,
    from the identity frame and the point 0 at s = 0 (``_placed`` turns and
    moves it).

    With sigma = s/sqrt(t) the Frenet system in s is the profile system in
    sigma, so the frame is F_G(sigma) and the point
    sqrt(t) (G(sigma) - G(0)), with G(0) = (0, 0, 2a).  ``ref`` is (F_G, G)
    at those sigma (``selfsimilar.sample``).
    """
    F, G = ref
    return Curve(s, math.sqrt(tk) * (G - np.array([0.0, 0.0, 2 * a])), F)


def _check_times(t, name):
    """Slice and series times are integrated in log t: finite, > 0, increasing."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ConstraintViolated(f"{name} must be finite and positive")
    if np.any(np.diff(t) <= 0):
        raise ConstraintViolated(f"{name} must be strictly increasing")


def _slice_grid(s):
    """Index of s = 0 in the slice grid ``s``: uniform, >= 5 nodes, s = 0 an
    interior node, as every slice runs from s = 0 and returns on ``s``."""
    if len(s) < 5:
        raise GridTooCoarse("need >= 5 s nodes")
    ds = _uniform_step(s, "a flow slice")
    i0 = int(np.argmin(np.abs(s)))
    if abs(s[i0]) > 1e-9 * max(1.0, ds):
        raise GridTooCoarse("s = 0 must be a grid node")
    if i0 == 0 or i0 == len(s) - 1:
        raise GridTooCoarse("s = 0 must be an interior node")
    return i0


def _slice_steps(s, tau_row):
    """Fine steps per node interval of a slice on ``s`` with torsion
    ``tau_row``: a fine step <= _SLICE_STEP, 0.25/max|tau|."""
    target = min(_SLICE_STEP, 0.25 / max(1.0, float(np.max(np.abs(tau_row)))))
    return max(1, int(math.ceil((s[1] - s[0]) / target)))


def _integrated_slice(s, c_row, tau_row):
    """Slice of the fields (c_row, tau_row) on ``s``, integrated in
    ``_slice_steps`` fine steps per node interval from the identity frame
    and the point 0 at s = 0; ``_placed`` turns and moves it."""
    m = _slice_steps(s, tau_row)
    c_fn = lambda x: np.interp(x, s, c_row)
    tau_fn = lambda x: np.interp(x, s, tau_row)
    _, FF, GG = two_sided(
        lambda end: propagate_frame(c_fn, tau_fn, 0.0, end, np.eye(3),
                                    step=(s[1] - s[0]) / m, out_every=m,
                                    position0=np.zeros(3)),
        float(s[0]), float(s[-1]),
    )
    return Curve(s, GG, FF)


def _placed(curve, Fk, pk):
    """``curve``, integrated from the identity frame and the point 0, as
    integrated from the frame Fk and the point pk: the Frenet system is
    linear in its initial state, so its frames are turned, F @ Fk, and its
    points moved, pk + G @ Fk."""
    return Curve(curve.s_grid, pk + curve.points @ Fk, curve.frames @ Fk)


def _origin_track(series, frame0, point0, t_grid):
    """Origin frames and points at the slice times ``t_grid``, each a series
    time, from ``frame0`` and ``point0`` at the last one; chi(0,t) =
    point0 - int_t^{tmax} c b dt' is a log-t Simpson integral."""
    frames = _frame_ode_backward(series) @ frame0
    if series.phi is not None:
        frames = _gauge_rotation(series.phi) @ frames
    lt = np.log(series.t)
    I = _cumulative_simpson(series.c0[:, None] * frames[:, 2, :] * series.t[:, None], lt)
    chi = np.asarray(point0)[None] + (I - I[-1])
    js = [int(np.argmin(np.abs(lt - math.log(tt)))) for tt in t_grid]
    if any(abs(lt[j] - math.log(tt)) > 1e-9 for j, tt in zip(js, t_grid)):
        raise GridTooCoarse("slice time missing from the origin series")
    return frames[js], chi[js] + 0.0


def reconstruct_flow(data, frame0, point0, *, origin_series=None):
    """Reconstruct curves for every time slice of the intrinsic data.

    ``frame0`` (rows T,n,b, orthonormal and right-handed within
    ``geometry.TOL_FRAME``) and ``point0`` are the data at (s=0, t=max).
    ``origin_series`` overrides the finite-difference s=0 coefficient
    history (when spectral values are available).  Every slice is
    integrated in s from its origin frame and point and returned on the
    data's own grid ``s``, which must be uniform (GridNonUniform) with
    s = 0 an interior node (GridTooCoarse).  The slice times and the series
    times must be finite, > 0 and strictly increasing (ConstraintViolated).
    """
    _check_times(data.t_grid, "t_grid")
    if origin_series is not None:
        _check_times(origin_series.t, "origin_series.t")
    if np.min(data.c) <= 0:
        raise CurvatureVanishes("reconstruction requires c > 0 on the grid")
    s = data.s_grid
    i0 = _slice_grid(s)
    if len(data.t_grid) < 2:
        raise GridTooCoarse("need >= 2 time slices")
    series = origin_series or _origin_series_from_data(data, i0)
    frames, chi = _origin_track(series, _checked_frame(frame0), point0, data.t_grid)
    curves = [_placed(_integrated_slice(s, c, tau), F, p)
              for c, tau, F, p in zip(data.c, data.tau, frames, chi)]
    return FlowResult(np.asarray(data.t_grid, dtype=float), curves, frames, chi)


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
    """Summary of one stability run; ``to_dict`` is its ``run.json``: every
    field but ``flow``, in field order.

    The ``profile_slices`` slices with t < ``t_clean`` carry the unperturbed
    fields and are built from the reference profile; on them
    ``sup_T_defect`` measures only the perturbation of the origin frame.
    The others are integrated: ``horizon_step`` is the Strang step k_c of
    the last of them, after which the stage reads only the origin series,
    and ``slice_fine_steps`` their fine steps in s, all slices together.
    The reference tangent is sampled on each slice's nodes by
    ``selfsimilar.sample``, as the built slices are, so the figure does not
    depend on the profile's grid.  ``min_v_over_a`` is the least |v|/a
    over the box samples of the stepper's mid-step fields, one per Strang
    step (the datum excluded); the run stops with CurvatureVanishes once it
    falls below 1/2.
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
    profile_slices: int
    horizon_step: int
    slice_fine_steps: int
    vertex: np.ndarray
    flow: FlowResult = field(repr=False)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "flow"}


def check_scales(t0, t_min_factor, s_max, ds, n_points, n_steps, n_slices):
    """Reject stability-run scales that are not finite and positive, an
    s_max below ``_CONE_FLOOR`` (the cone defect would read no node), a
    t_min_factor above the trace's 1e-2 (InsufficientTimeRange), a t0 or
    t_min outside ``_TIME_SCALES``, a curve grid whose node count
    2 s_max/ds overflows, a reference profile whose span s_max/sqrt(t_min)
    overflows or needs more than ``integrators._MAX_STEPS`` fine steps
    (StepLimitExceeded), and a run whose largest arrays would exceed
    ``MemoryBudgetExceeded.BUDGET``; returns the planned bytes.  The
    reference profile's span, step check and bytes are
    ``selfsimilar.sample_plan``'s, one node per slice node."""
    t_min = t0 * t_min_factor
    for name, v in (("t0", t0), ("t_min_factor", t_min_factor), ("s_max", s_max),
                    ("ds", ds), ("t0 * t_min_factor", t_min)):
        if not (math.isfinite(v) and v > 0):
            raise InvalidParameter(f"{name} must be finite and positive, got {v}")
    if s_max < _CONE_FLOOR:
        raise InvalidParameter(
            f"s_max = {s_max:g}: the cone defect reads |s| >= {_CONE_FLOOR:g}")
    if t_min_factor > 1e-2:
        raise InsufficientTimeRange(
            f"t_min_factor = {t_min_factor:g}: the trace at t = 0 needs t_min/t_max <= 1e-2")
    lo, hi = _TIME_SCALES
    for name, v in (("t0", t0), ("t0 * t_min_factor", t_min)):
        if not lo <= v <= hi:
            raise InvalidParameter(f"{name} = {v:g} lies outside [{lo:g}, {hi:g}]")
    if not math.isfinite(2 * s_max / ds):
        raise InvalidParameter(f"ds = {ds} gives an infinite node count 2 s_max/ds")
    sig_max = s_max / math.sqrt(t_min)
    if not math.isfinite(sig_max):
        raise InvalidParameter(
            "the reference profile span s_max/sqrt(t0 * t_min_factor) is infinite")
    nodes = n_slices * (2 * s_max / ds + 1)
    _, reference = selfsimilar.sample_plan(sig_max, nodes)
    need = (_BYTES_PER_STEP * (n_steps + 1) + _BYTES_PER_POINT * n_points
            + _BYTES_PER_NODE * nodes + reference)
    MemoryBudgetExceeded.check(need, "stability run")
    return need


def _schrodinger_stage(problem, v0, n_steps, slice_ids, s_grid):
    """Run the 1/t equation from ``v0`` and yield what the pipeline reads of it.

    Yields two items:

    - ``(cmat, taumat)``, the (c, tau) rows on ``s_grid`` of the slice
      steps ``slice_ids`` (given in ascending t = 1/T, so the first is the
      last slice step k_c), as soon as step k_c is done, or before the
      first step when k_c = 0.  Each row is built when its step is
      reached: its v and v_x zero-padded from the spectrum to ``_UPSAMPLE``
      N points and interpolated onto the nodes s/t;
    - ``(origin, min_abs, boundary_w)`` once all ``n_steps`` are done:
      ``origin[k]`` is (v, v_x, v_xx) at x = 0 after step k (row 0: the
      datum), one (3, N) weight matrix times the spectrum; ``min_abs`` is
      the least |v| over the stepper's mid-step fields; ``boundary_w`` is
      the largest |v - a| at the box ends over the slices.
    """
    a = problem.background_a
    N, L, x0 = v0.n_points, v0.domain_length, v0.s0
    xi = v0.xi()
    ixi = 1j * xi
    x = v0.grid()
    i0 = int(np.argmin(np.abs(x)))
    weights = np.stack([np.ones(N), ixi, -(xi**2)]) * np.exp(ixi * (x[i0] - x0)) / N
    origin = np.empty((n_steps + 1, 3), dtype=complex)
    row_of = {int(k): i for i, k in enumerate(slice_ids)}
    cmat = np.empty((len(row_of), len(s_grid)))
    taumat = np.empty_like(cmat)
    up = _UPSAMPLE
    x_fine = x0 + (L / (up * N)) * np.arange(up * N)
    h = N // 2
    pad = np.zeros(up * N, dtype=complex)
    fine = np.empty_like(pad)

    def upsample(spec):
        """The field of ``spec`` on x_fine, in the buffer ``fine``."""
        # the factor up, a power of two, scales exactly before the transform
        np.multiply(spec[:h], up, out=pad[:h])
        np.multiply(spec[-h:], up, out=pad[-h:])
        return np.fft.ifft(pad, out=fine)

    def read(k, T, vhat):
        """Origin row of step k and, at a slice step, its (c, tau) rows;
        returns the slice's largest |v - a| at the box ends."""
        np.matmul(weights, vhat, out=origin[k])
        row = row_of.get(k)
        if row is None:
            return 0.0
        tk = 1.0 / T
        # slices are band-limited: upsample spectrally before the pointwise
        # interpolation
        xq = s_grid / tk
        vf = upsample(vhat)
        edge = max(float(abs(vf[0] - a)), float(abs(vf[up * (N - 1)] - a)))
        # beyond the box the perturbation has dispersed away: continue by a
        vq = np.interp(xq, x_fine, vf, left=a, right=a)
        vxq = np.interp(xq, x_fine, upsample(ixi * vhat), left=0.0, right=0.0)
        cmat[row] = np.abs(vq) / math.sqrt(tk)
        taumat[row] = s_grid / (2 * tk) - np.imag(vxq / vq) / tk
        return edge

    k_c = int(slice_ids[0])
    boundary_w = read(0, problem.t_span[0], np.fft.fft(v0.values))
    if k_c == 0:
        yield cmat, taumat
    min_abs = np.inf
    p = np.empty(N)
    for k, T, vhat, v in nls._strang(problem, v0, n_steps):
        min_abs = min(min_abs, float(np.min(np.abs(v, out=p))))
        if min_abs < 0.5 * a:
            raise CurvatureVanishes(
                f"filament function dipped to {min_abs:g} < 0.5 a; perturbation too large"
            )
        boundary_w = max(boundary_w, read(k, T, vhat))
        if k == k_c:
            yield cmat, taumat
    yield origin, min_abs, boundary_w


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
    the measured origin frame and point; only the others are read from the
    Schrodinger run and integrated in s.  A curve grid without the interior
    node s = 0 (GridTooCoarse), a u_plus that the grid does not resolve
    (AliasingDetected) and a run whose interior times all lie below t_clean
    (InsufficientTimeRange) are rejected before the Schrodinger stage.

    Where ``dataio._beside`` forks (two CPUs, at least ``_MIN_STAGE_SIZE``
    step-points), the Schrodinger stage runs in a worker process, and this
    process meanwhile samples the reference profile on every slice node and
    reads A+/-.  The stage sends the integrated slices' (c, tau) rows right
    after its step k_c (``horizon_step``), and this process integrates them
    from the identity frame while the stage steps on for the origin series;
    the origin track, the placed slices and the defects follow once the
    series is back.  Otherwise all of it runs here, in the same order.  The
    report is bit-identical either way; a FilamentError of the stage,
    before or after its rows, is raised as the same class, a worker that
    dies is OSError, and no worker outlives the call.
    """
    if a <= 0:
        raise InvalidParameter("a must be positive")
    check_scales(t0, t_min_factor, s_max, ds, u_plus.n_points, n_steps, n_slices)
    if n_slices < 4:
        raise InvalidParameter("need n_slices >= 4 for the trace at t = 0")
    if n_slices > n_steps + 1:
        raise InvalidParameter(
            f"n_slices = {n_slices} exceeds the {n_steps + 1} stored times"
        )
    norm_up = u_plus.l2_norm()
    if norm_up > 0.1 * a:
        raise InvalidParameter("perturbation too large: need ||u_plus|| <= 0.1 a")
    frac = u_plus.alias_fraction()
    if frac > nls.ALIAS_FRACTION:
        raise AliasingDetected(f"u_plus: top-third spectral energy fraction {frac:.2e}")
    t_max = float(t0)
    t_min = t_max * t_min_factor
    sign, coeff = 1, 0.5
    problem = nls.NlsProblem(sign=sign, background_a=a, potential="gp",
                             t_span=(1.0 / t_max, 1.0 / t_min), coeff=coeff)
    v0 = nls.long_range_ansatz(u_plus, a, sign, problem.t_span[0], coeff)
    Ts = nls.time_grid(problem, n_steps)
    # slice steps in ascending t = 1/T
    slice_ids = np.round(np.linspace(0, n_steps, n_slices)).astype(int)[::-1]
    t_slices = 1.0 / Ts[slice_ids]
    t_clean = nls.faithful_horizon(u_plus)
    n_s = int(round(2 * s_max / ds))
    s_grid = -s_max + ds * np.arange(n_s + 1)
    _slice_grid(s_grid)
    if t_clean > 1.0 / Ts[1]:
        raise InsufficientTimeRange(
            f"no interior time reaches the box's faithful horizon t_clean = {t_clean:g}")
    # past the box's faithful horizon the wrapped tail is numerical noise
    # while the true perturbation of (c, tau) integrates away (oscillatory,
    # amplitude O(||u_plus|| sqrt(t))): the first n_prof slices continue
    # with the unperturbed fields, and the stage reads only the others
    n_prof = int(np.sum(t_slices < t_clean))
    k_c = int(slice_ids[n_prof])
    with dataio._beside("stability stage worker",
                        functools.partial(_schrodinger_stage, problem, v0, n_steps,
                                          slice_ids[n_prof:], s_grid),
                        (n_steps + 1) * v0.n_points >= _MIN_STAGE_SIZE) as stage:
        # the unperturbed reference needs nothing of the stage: G_a's
        # frames and points on every slice node (sigma = s/sqrt(t)), which
        # give the slices below t_clean and the reference tangent, and A+/-
        sig_max = float(np.max(np.abs(s_grid))) / math.sqrt(t_slices[0])
        sig = (s_grid[None] / np.sqrt(t_slices)[:, None]).ravel()
        span, _ = selfsimilar.sample_plan(sig_max, len(sig))
        F_ref, G_ref, A_plus, A_minus = selfsimilar.sample(a, span, sig)
        sA = selfsimilar.v_shape(A_plus, A_minus, s_grid)
        # the slices at or past t_clean need only their (c, tau) rows: they
        # are integrated from the identity frame while the stage steps on
        # for the origin series, and placed once the origin track is known;
        # reading the stage to its end reaps its worker
        cmat, taumat = next(stage)
        slices = [_integrated_slice(s_grid, *rows) for rows in zip(cmat, taumat)]
        [(origin, min_abs, boundary_w)] = stage

    # u-side origin series (t = 1/T, ascending in t).  The frame ODE is run
    # in the gauge n~ + i b~ = e^{i phi/2}(n + i b), whose coupling entry
    # (a^2/t - c^2)/2 needs only |v(0,T)| -- no spatial derivatives, so the
    # entry stays clean even when the dispersed tail wraps the box.
    a2 = a * a
    t_u = (1.0 / Ts)[::-1]
    v0s, vx0, vxx0 = origin[::-1].T
    absv = np.abs(v0s)
    tau0 = -np.imag(vx0 / v0s) / t_u
    c0 = absv / np.sqrt(t_u)
    dabs = np.real(np.conj(v0s) * vx0) / absv
    c_s0 = dabs / (t_u * np.sqrt(t_u))
    phi0 = np.unwrap(-np.angle(v0s))
    g_entry = (a2 / t_u - c0**2) / 2
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
    extra_defect = float(np.max((extra * t_u[1:-1] / a2)[clean]))

    # slices below t_clean from the reference, the others integrated; each
    # turned and moved by the origin track in turn, its unplaced copy
    # dropped, and its tangent read against the reference tangent
    point0 = np.array([0.0, 0.0, 2 * a * math.sqrt(t_max)])
    frames, chi = _origin_track(series, np.eye(3), point0, t_slices)
    F_ref, G_ref = F_ref.reshape(n_slices, -1, 3, 3), G_ref.reshape(n_slices, -1, 3)
    curves, defects = [], []
    for k in range(n_slices):
        unplaced = (_profile_slice(a, s_grid, t_slices[k], (F_ref[k], G_ref[k]))
                    if k < n_prof else slices.pop(0))
        curves.append(_placed(unplaced, frames[k], chi[k]))
        T = curves[k].frames[:, 0]
        defects.append(np.max(np.linalg.norm(T - F_ref[k, :, 0], axis=1)))
    sup_T = float(np.max(defects))
    result = FlowResult(t_slices, curves, frames, chi)
    trace, const = trace_at_zero(result)

    # vertex from the sqrt(t) law at s = 0, then cone defect vs A+/-
    r1, r2 = math.sqrt(t_slices[0]), math.sqrt(t_slices[1])
    vertex = chi[0] - r1 * (chi[1] - chi[0]) / (r2 - r1)
    dev = np.linalg.norm(trace.points - vertex[None] - sA, axis=1)
    # the floor keeps the sqrt(t_min) corner layer out of the quotient
    outer = np.abs(s_grid) >= _CONE_FLOOR
    cone = float(np.max(dev[outer] / np.abs(s_grid[outer])))
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
        t_clean=float(t_clean), profile_slices=n_prof, horizon_step=k_c,
        slice_fine_steps=n_s * sum(_slice_steps(s_grid, row) for row in taumat),
        vertex=vertex, flow=result,
    )
