"""The curve type, curve reconstruction, binormal-flow residual
diagnostics, and the checks of a frame and a point at every boundary that
takes one.  A frame is a 3x3 matrix of rows (T, n, b), checked by
``_checked_frame``; a point is a finite 3-vector, checked by
``_checked_point``.  Frenet integration is ``integrators.propagate_frame``,
which checks its initial frame and point here."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    GridNonUniform,
    GridTooCoarse,
    InvalidParameter,
)

TOL_FRAME = 1e-8
TOL_CURVATURE = 1e-6  # below this torsion is flagged, not invented


def _checked_frame(M):
    """``M`` as a float 3x3 matrix of rows (T, n, b), orthonormal and
    right-handed within TOL_FRAME (InvalidParameter otherwise)."""
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise InvalidParameter(f"a frame is a 3x3 matrix, got shape {M.shape}")
    # written so that a NaN entry fails
    if not np.max(np.abs(M @ M.T - np.eye(3))) <= TOL_FRAME:
        raise InvalidParameter("frame vectors not orthonormal")
    if not abs(np.linalg.det(M) - 1.0) <= TOL_FRAME:
        raise InvalidParameter("frame not right-handed")
    return M


def _checked_point(p, name):
    """``p`` as a float 3-vector, finite (InvalidParameter naming ``name``
    otherwise)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise InvalidParameter(f"{name} must be a finite 3-vector, got {p.tolist()}")
    return p


@dataclass
class Curve:
    """Sampled arclength-parametrized curve, optionally with frames.

    ``frames`` has shape (N, 3, 3) with rows (T, n, b) per sample.
    """

    s_grid: np.ndarray
    points: np.ndarray
    frames: np.ndarray | None = None

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if np.any(np.diff(self.s_grid) <= 0):
            raise InvalidParameter("each s_grid step must be positive")
        if len(self.points) != len(self.s_grid):
            raise GridMismatch("points and s_grid lengths differ")

    def unit_speed_defect(self):
        ds = np.diff(self.s_grid)
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return float(np.max(np.abs(seg / ds - 1.0)))

    def csv_job(self, path):
        """``(path, header, columns)`` of this curve's CSV, for
        :func:`dataio.write_csvs`."""
        cols = [self.s_grid] + [self.points[:, j] for j in range(3)]
        header = "s,x,y,z"
        if self.frames is not None:
            header += ",Tx,Ty,Tz,nx,ny,nz,bx,by,bz"
            for r in range(3):
                cols += [self.frames[:, r, j] for j in range(3)]
        return path, header, cols

    @staticmethod
    def read_csv(path):
        raw = np.genfromtxt(path, delimiter=",", names=True)
        s = np.atleast_1d(raw["s"])
        pts = np.column_stack([np.atleast_1d(raw[k]) for k in ("x", "y", "z")])
        frames = None
        if "Tx" in raw.dtype.names:
            mats = [
                np.column_stack([np.atleast_1d(raw[p + ax]) for ax in "xyz"])
                for p in ("T", "n", "b")
            ]
            frames = np.stack(mats, axis=1)
        return Curve(s, pts, frames)


@dataclass
class IntrinsicData:
    """Curvature/torsion samples on a (t, s) grid; single slice allowed."""

    s_grid: np.ndarray
    t_grid: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    tau_defined: np.ndarray | None = None

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.t_grid = np.atleast_1d(np.asarray(self.t_grid, dtype=float))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
        self.tau = np.atleast_2d(np.asarray(self.tau, dtype=float))
        if self.c.shape != (len(self.t_grid), len(self.s_grid)):
            raise GridMismatch("c must be (n_t, n_s)")
        if self.tau.shape != self.c.shape:
            raise GridMismatch("tau must match c")


def _uniform_step(s, who):
    """Spacing of the uniform grid ``s``; GridNonUniform naming ``who`` otherwise."""
    ds = np.diff(s)
    if np.max(np.abs(ds - ds[0])) > 1e-9 * abs(ds[0]):
        raise GridNonUniform(f"{who} needs a uniform grid")
    return ds[0]


def _nonuniform_dt(f, t):
    """Second-order derivative in t on interior nodes of a non-uniform grid."""
    shape = (-1,) + (1,) * (f.ndim - 1)
    hp = (t[1:-1] - t[:-2]).reshape(shape)
    hn = (t[2:] - t[1:-1]).reshape(shape)
    num = hp**2 * f[2:] - (hp**2 - hn**2) * f[1:-1] - hn**2 * f[:-2]
    return num / (hp * hn * (hp + hn))


def _simpson_first_panels(y, dx):
    """3-point rule on [x_i, x_i+1] for every node triple, unequal widths."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    r = x21 / x31
    q = r * (x21 / x32)
    return x21 / 6 * ((3 - r) * y[:-2] + (3 + q + r) * y[1:-1] + (-q) * y[2:])


def _cumulative_simpson(y, x):
    """Cumulative Simpson integral of y(x) along axis 0, starting at 0.

    ``x`` is 1-D and strictly increasing.  Cartwright's unequal-interval
    rule in the operation order of ``scipy.integrate.cumulative_simpson``,
    so the sums agree bit for bit: even panels come from the forward pass,
    odd ones and the last from the reversed pass.  Two nodes use the
    trapezoid rule.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    if len(y) < 3:
        panels = dx * (y[1:] + y[:-1]) / 2
    else:
        fwd = _simpson_first_panels(y, dx)
        bwd = _simpson_first_panels(y[::-1], dx[::-1])[::-1]
        panels = np.empty_like(y[1:])
        panels[:-1:2] = fwd[::2]
        panels[1::2] = bwd[::2]
        panels[-1] = bwd[-1]
    # + 0.0 as scipy's initial=0.0 does: a -0.0 sum reads 0.0
    return np.concatenate([np.zeros_like(y[:1]), np.cumsum(panels, axis=0) + 0.0])


def curve_from_tangent(tangents, base):
    """Antiderivative of the tangent field: chi(s) = base + int T.

    ``tangents`` is (s_grid, T) with T of shape (N, 3) on a uniform grid;
    ``base`` is a finite 3-vector (InvalidParameter otherwise).
    """
    s, T = tangents
    s = np.asarray(s, dtype=float)
    T = np.asarray(T, dtype=float)
    if len(s) < 3:
        raise GridTooCoarse("need at least 3 tangent samples")
    _uniform_step(s, "curve_from_tangent")
    pts = _checked_point(base, "base")[None] + _cumulative_simpson(T, s)
    return Curve(s, pts)


def curvature_torsion_from_curve(curve):
    """Second-order finite-difference inversion of the Frenet relations.

    c = |chi_ss|; torsion from the triple-product formula
    tau = det(chi', chi'', chi''') / |chi' x chi''|^2, reported only where
    c > TOL_CURVATURE (flagged samples carry NaN and tau_defined=False).
    """
    s = curve.s_grid
    if len(s) < 5:
        raise GridTooCoarse("need at least 5 samples")
    h = _uniform_step(s, "curvature_torsion_from_curve")
    p = curve.points
    d1 = (p[2:] - p[:-2]) / (2 * h)
    d2 = (p[2:] - 2 * p[1:-1] + p[:-2]) / (h * h)
    # third derivative needs two neighbours each side
    d3 = (p[4:] - 2 * p[3:-1] + 2 * p[1:-3] - p[:-4]) / (2 * h**3)
    inner = slice(2, len(s) - 2)
    d1i, d2i = d1[1:-1], d2[1:-1]
    c = np.linalg.norm(d2i, axis=1)
    cross = np.cross(d1i, d2i)
    denom = np.sum(cross * cross, axis=1)
    defined = c > TOL_CURVATURE
    tau = np.full(len(c), np.nan)
    ok = defined & (denom > 0)
    tau[ok] = np.einsum("ij,ij->i", cross[ok], d3[ok]) / denom[ok]
    return IntrinsicData(s[inner], np.array([0.0]), c[None], tau[None],
                         tau_defined=defined[None])


def bf_residual(curve_prev, curve_mid, curve_next, dt):
    """Max-norm central-difference residual of chi_t = chi_s x chi_ss.

    The three snapshots sample times t-dt, t, t+dt on identical s grids.
    """
    for other in (curve_prev, curve_next):
        if len(other.s_grid) != len(curve_mid.s_grid) or np.max(
            np.abs(other.s_grid - curve_mid.s_grid)
        ) > 1e-12 * max(1.0, np.max(np.abs(curve_mid.s_grid))):
            raise GridMismatch("snapshots must share the s grid")
    h = _uniform_step(curve_mid.s_grid, "bf_residual")
    p = curve_mid.points
    chi_t = (curve_next.points[1:-1] - curve_prev.points[1:-1]) / (2 * dt)
    chi_s = (p[2:] - p[:-2]) / (2 * h)
    chi_ss = (p[2:] - 2 * p[1:-1] + p[:-2]) / (h * h)
    res = chi_t - np.cross(chi_s, chi_ss)
    return float(np.max(np.linalg.norm(res, axis=1)))


def frame_orthonormality_defect(frames):
    """Max deviation of F F^T from the identity plus determinant defect."""
    frames = np.asarray(frames)
    gram = frames @ np.swapaxes(frames, -1, -2)
    d1 = np.max(np.abs(gram - np.eye(3)))
    d2 = np.max(np.abs(np.linalg.det(frames) - 1.0))
    return float(max(d1, d2))
