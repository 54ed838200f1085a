"""The one-parameter family of self-similar profiles.

The profile G solves the frame system with constant curvature a and torsion
s/2, from G(0) = 2a e3, T(0) = e1, n(0) = e2, b(0) = e3.  The flow is
chi(s,t) = sqrt(t) G(s/sqrt(t)); at t = 0 it traces the V-shape s A+/- whose
half-angle satisfies sin(gamma/2) = exp(-pi a^2 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, OutOfProfileRange
from .geometry import Curve, SolverConfig
from .integrators import (
    GAUSS_C1,
    GAUSS_C2,
    _rotation,
    magnus_frame_step,
    propagate_frame,
    two_sided,
)


@dataclass
class SelfSimilarProfile:
    a: float
    s_max: float
    curve: Curve                # symmetric grid [-s_max, s_max], frames attached
    A_plus: np.ndarray
    A_minus: np.ndarray
    a1_estimate: float
    a1_error_bound: float

    def gamma_measured(self):
        """Angle between A+ and -A- read off the computed directions."""
        return float(np.arccos(np.clip(-np.dot(self.A_plus, self.A_minus), -1, 1)))


def _default_cfg(s_max):
    # output spacing must resolve the fastest frame rotation (tau = s/2)
    dso = min(0.032, math.pi / (2 * max(s_max, 1.0)))
    step = min(2e-3, dso)
    return SolverConfig(step=step, renorm_every=max(1, int(round(dso / step))))


# parity of G_a: x is odd and y, z are even, so T = G' keeps its x and flips
# y, z, while n and b (whose Frenet equations carry the odd torsion) flip x
_POINT_PARITY = np.array([-1.0, 1.0, 1.0])
_FRAME_PARITY = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])


def _half(a, end, cfg):
    """(s, frames, points) of G_a from s = 0 to ``end``."""
    c_fn = lambda s: np.full(np.shape(s), float(a))
    tau_fn = lambda s: s / 2
    return propagate_frame(c_fn, tau_fn, 0.0, end, np.eye(3), step=cfg.step,
                           out_every=cfg.renorm_every,
                           position0=np.array([0.0, 0.0, 2 * a]),
                           max_steps=cfg.max_steps)


def _mirror(s, frames, points):
    """The half from 0 to -S read off the half from 0 to S by parity.

    Adding 0.0 turns the -0.0 of a flipped zero into the +0.0 that a direct
    run gives (a = 0 has zero frame entries).
    """
    return -s, frames * _FRAME_PARITY + 0.0, points * _POINT_PARITY + 0.0


def profile(a, s_max, cfg=None):
    """Compute G_a on [-s_max, s_max] with frames and limit directions.

    One frame propagation runs from 0 to S; the left half is its mirror
    image (``_mirror``), which equals a direct run from 0 to -S bit for bit
    (``mirror_defect``), as every step of that run is the negated step of
    this one.

    A+/- are read through the modulus law |G|^2 = s^2 + 4 a^2 as
    G(+-S)/(+-(S + 2 a^2/S)), which is G/|G| to O(S^-4).  The reported
    error bound is rigorous.  Since G = s T + 2 a b, (G/s)' = -2 a b/s^2, so
    |G(S)/S - A+| <= 2a/S.  The reading rescales G(S)/S by
    S^2/(S^2 + 2 a^2), which moves it by at most
    |G(S)/S| 2 a^2/(S^2 + 2 a^2) = sqrt(S^2 + 4 a^2) 2 a^2/(S (S^2 + 2 a^2))
    <= 2 a^2/S^2, because S^2 (S^2 + 4 a^2) <= (S^2 + 2 a^2)^2.  By the
    triangle inequality |A+ estimate - A+| <= 2a/S + 2a^2/S^2 =
    ``a1_error_bound``, and so is the error of its first component a1.
    """
    if not (math.isfinite(a) and math.isfinite(s_max)) or a < 0 or s_max <= 0:
        raise InvalidParameter("need finite a >= 0 and s_max > 0")
    cfg = cfg or _default_cfg(s_max)
    half = _half(a, float(s_max), cfg)
    s, frames, pts = two_sided(lambda end: half if end > 0 else _mirror(*half),
                               -float(s_max), float(s_max))
    curve = Curve(s, pts, frames)
    S = s[-1]
    r = S + 2 * a * a / S
    A_plus = pts[-1] / r
    A_minus = pts[0] / -r
    return SelfSimilarProfile(
        a=float(a), s_max=float(S), curve=curve,
        A_plus=A_plus, A_minus=A_minus,
        a1_estimate=float(A_plus[0]),
        a1_error_bound=float(2 * a / S + 2 * a * a / (S * S)),
    )


def mirror_defect(a, s_max, cfg=None):
    """Max difference between a direct run of G_a from 0 to -s_max and the
    mirror of the run from 0 to s_max that ``profile`` returns instead.

    Zero in exact arithmetic by parity, and zero in floating point as long
    as the elementwise kernels are exact under sign flips.
    """
    cfg = cfg or _default_cfg(s_max)
    mirrored = _mirror(*_half(a, float(s_max), cfg))
    direct = _half(a, -float(s_max), cfg)
    return max(float(np.max(np.abs(m - d))) for m, d in zip(mirrored, direct))


def corner_angle(a):
    """Closed-form limit component and corner angle: (a1, gamma)."""
    if a < 0:
        raise InvalidParameter("a must be nonnegative")
    a1 = math.exp(-math.pi * a * a / 2)
    return a1, 2 * math.asin(a1)


def parity_defect(prof):
    """Max violation of x odd / y,z even on the symmetric grid."""
    s = prof.curve.s_grid
    p = prof.curve.points
    n = (len(s) - 1) // 2
    left = p[:n][::-1]
    right = p[n + 1 :]
    m = min(len(left), len(right))
    dx = np.abs(right[:m, 0] + left[:m, 0])
    dy = np.abs(right[:m, 1] - left[:m, 1])
    dz = np.abs(right[:m, 2] - left[:m, 2])
    return float(max(dx.max(), dy.max(), dz.max()))


def modulus_defect(prof):
    """Max relative violation of |G|^2 = s^2 + 4 a^2."""
    s = prof.curve.s_grid
    target = s * s + 4 * prof.a * prof.a
    got = np.sum(prof.curve.points**2, axis=1)
    return float(np.max(np.abs(got - target) / target))


def chi(prof, s, t):
    """Evaluate chi(s,t) = sqrt(t) G(s/sqrt(t)); at t = 0 the V-shape trace."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if t < 0:
        raise InvalidParameter("t must be nonnegative")
    if t == 0:
        out = np.where(s[:, None] >= 0, s[:, None] * prof.A_plus[None],
                       s[:, None] * prof.A_minus[None])
        return out[0] if scalar else out
    rt = math.sqrt(t)
    sigma = s / rt
    if np.any(np.abs(sigma) > prof.s_max * (1 + 1e-12)):
        raise OutOfProfileRange(
            f"|s|/sqrt(t) up to {np.max(np.abs(sigma)):g} exceeds s_max={prof.s_max:g}"
        )
    out = rt * _hermite_eval(prof.curve, sigma)
    return out[0] if scalar else out


def _hermite_eval(curve, sq):
    """Cubic Hermite interpolation of the points using stored tangents."""
    grid = curve.s_grid
    d = grid[1] - grid[0]
    i = np.clip(np.searchsorted(grid, sq, side="right") - 1, 0, len(grid) - 2)
    u = (sq - grid[i]) / d
    u2, u3 = u * u, u * u * u
    h00 = 2 * u3 - 3 * u2 + 1
    h10 = u3 - 2 * u2 + u
    h01 = -2 * u3 + 3 * u2
    h11 = u3 - u2
    G0, G1 = curve.points[i], curve.points[i + 1]
    T0, T1 = curve.frames[i, 0], curve.frames[i + 1, 0]
    return (h00[:, None] * G0 + (d * h10)[:, None] * T0
            + h01[:, None] * G1 + (d * h11)[:, None] * T1)


def _x_refine(prof, s_query):
    """Batched high-accuracy x(s) by short frame propagation from grid nodes."""
    grid = prof.curve.s_grid
    i = np.clip(np.searchsorted(grid, s_query, side="right") - 1, 0, len(grid) - 2)
    s0 = grid[i]
    m = 32  # Magnus steps from the bracketing node to the query point
    h = (s_query - s0) / m
    F = prof.curve.frames[i].copy()
    G = prof.curve.points[i].copy()
    c = np.full_like(h, prof.a)
    for k in range(m):
        sk = s0 + k * h
        t1 = (sk + GAUSS_C1 * h) / 2
        t2 = (sk + GAUSS_C2 * h) / 2
        q, wV = magnus_frame_step(c, c, t1, t2, h)
        G = G + np.einsum("ni,nij->nj", wV, F)
        F = _rotation(q) @ F
    return G[:, 0]


def self_intersections(prof):
    """Positive zeros of the first profile component, bisected to 1e-10.

    By parity G(s*) = G(-s*) at every returned s*, so each zero marks a
    self-intersection of the profile.  Zeros are located by sign change on
    the stored grid and refined by bisection against a short-step frame
    propagation from the bracketing node; zeros closer than 1e-8 are
    merged.  The scan covers (0, s_max]; an empty array is a valid result.
    """
    s = prof.curve.s_grid
    x = prof.curve.points[:, 0]
    pos = s > 0
    sp, xp = s[pos], x[pos]
    flip = np.nonzero(np.sign(xp[:-1]) * np.sign(xp[1:]) < 0)[0]
    if len(flip) == 0:
        return np.array([])
    lo, hi = sp[flip].copy(), sp[flip + 1].copy()
    flo = xp[flip].copy()
    while np.max(hi - lo) > 1e-10:
        mid = 0.5 * (lo + hi)
        fmid = _x_refine(prof, mid)
        left = np.sign(fmid) * np.sign(flo) > 0
        lo = np.where(left, mid, lo)
        flo = np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    roots = 0.5 * (lo + hi)
    keep = [roots[0]]
    for r in roots[1:]:
        if r - keep[-1] > 1e-8:
            keep.append(r)
    return np.array(keep)
