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

from .errors import InvalidParameter, OutOfProfileRange, StepLimitExceeded
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


def _default_cfg(s_max, step=None):
    """The configuration of G_a on [-s_max, s_max].  The target spacing
    dso = min(0.032, pi/(2 s_max)) resolves the fastest frame rotation
    (tau = s/2); the fine step is ``step`` or by default the smaller of
    2e-3 and dso, and a node falls every round(dso/step) fine steps, so the
    output spacing is round(dso/step) * step, not dso (4e-3 against
    dso = 3.1e-3 at s_max = 500).  A given step above dso is
    InvalidParameter: the nodes would be one step apart, too coarse for the
    rotation."""
    dso = min(0.032, math.pi / (2 * max(s_max, 1.0)))
    cfg = SolverConfig(step=min(2e-3, dso) if step is None else step)
    if cfg.step > dso:
        raise InvalidParameter(
            f"step {cfg.step:g} exceeds the output spacing {dso:g} of s_max = {s_max:g}")
    per_node = dso / cfg.step
    if per_node > cfg.max_steps:  # also an overflow to inf
        raise StepLimitExceeded(
            f"step {cfg.step:g} needs {per_node:g} steps per output spacing {dso:g}")
    cfg.renorm_every = max(1, int(round(per_node)))
    return cfg


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

    The modulus-law reading is sharper than G(S)/S for a <= 1 (its a1 error
    at a = 0.5 is 1.4e-6 at S = 100 and 8.3e-9 at S = 400, against 3.5e-5
    and 2.1e-6), not at large a: at a = 2 it is 7.6e-6 and 7.6e-8 against
    6.1e-6 and 1.7e-8, and it does not move when the step is refined, so
    the remainder is the tail of T, not the integration.  The bound above
    holds either way.
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


def modulus_defect(prof):
    """Max relative violation of |G|^2 = s^2 + 4 a^2.

    At a = 0 the law reads 0 = 0 at s = 0, where G(0) = 0 exactly: that
    node counts as no violation, not as 0/0.
    """
    s = prof.curve.s_grid
    target = s * s + 4 * prof.a * prof.a
    got = np.sum(prof.curve.points**2, axis=1)
    rel = np.divide(np.abs(got - target), target, out=np.zeros_like(target),
                    where=target > 0)
    return float(np.max(rel))


def evaluate(prof, sigma):
    """Frames and points of G_a at the abscissae ``sigma`` (a 1-d array).

    A node between two profile nodes takes one Magnus-4 step (c = a,
    tau = sigma/2) from the nearest one.  |sigma| may pass s_max by a
    relative 1e-12; beyond that it is OutOfProfileRange.
    """
    grid, frames, points = prof.curve.s_grid, prof.curve.frames, prof.curve.points
    reach = float(np.max(np.abs(sigma), initial=0.0))
    if reach > prof.s_max * (1 + 1e-12):
        raise OutOfProfileRange(
            f"sigma = {reach:g} lies beyond the profile's s_max = {prof.s_max:g}")
    j = np.clip(np.searchsorted(grid, sigma), 1, len(grid) - 1)
    j -= sigma - grid[j - 1] < grid[j] - sigma
    h = sigma - grid[j]
    c = np.full_like(h, prof.a)
    q, wV = magnus_frame_step(c, c, (grid[j] + GAUSS_C1 * h) / 2,
                              (grid[j] + GAUSS_C2 * h) / 2, h)
    Fj = frames[j]
    return _rotation(q) @ Fj, points[j] + np.einsum("ni,nij->nj", wV, Fj)


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
    out = rt * evaluate(prof, s / rt)[1]
    return out[0] if scalar else out


def self_intersections(prof):
    """Positive zeros of the first profile component, bisected to 1e-10.

    By parity G(s*) = G(-s*) at every returned s*, so each zero marks a
    self-intersection of the profile.  Zeros are located by sign change on
    the stored grid and refined by bisection against ``evaluate``; zeros
    closer than 1e-8 are merged.  The scan covers (0, s_max]; an empty
    array is a valid result.
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
        fmid = evaluate(prof, mid)[1][:, 0]
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
