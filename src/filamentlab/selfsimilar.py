"""The one-parameter family of self-similar profiles.

The profile G solves the frame system with constant curvature a and torsion
s/2, from G(0) = 2a e3, T(0) = e1, n(0) = e2, b(0) = e3.  The flow is
chi(s,t) = sqrt(t) G(s/sqrt(t)); at t = 0 it traces the V-shape s A+/-
(``v_shape``) whose half-angle satisfies sin(gamma/2) = exp(-pi a^2 / 2).
``profile`` keeps G on its output nodes, ``sample`` (planned by
``sample_plan``) at chosen abscissae only; G's grid is decided here alone.
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
    _CHUNK,
    _blocks,
    _rotation,
    frame_states,
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

    def csv_job(self, path):
        """The mirrored ``(path, header, columns, parity)`` job of the
        curve's CSV for :func:`dataio.write_csvs`: the columns of
        ``Curve.csv_job`` from the node s = 0 up, as views, with G_a's
        parity, by which ``profile`` builds the rows of s < 0."""
        path, header, columns = self.curve.csv_job(path)
        zero = len(self.curve.s_grid) // 2
        return path, header, [c[zero:] for c in columns], _CSV_PARITY


def _default_cfg(s_max):
    """The configuration of G_a on [-s_max, s_max].  The target spacing
    dso = min(0.032, pi/(2 s_max)) resolves the fastest frame rotation
    (tau = s/2); the fine step is the smaller of 2e-3 and dso, and a node
    falls every round(dso/step) fine steps, so the output spacing is
    round(dso/step) * step, not dso (4e-3 against dso = 3.1e-3 at
    s_max = 500)."""
    dso = min(0.032, math.pi / (2 * max(s_max, 1.0)))
    step = min(2e-3, dso)
    return SolverConfig(step=step, renorm_every=max(1, int(round(dso / step))))


def _grid(s_max):
    """(h, m, n_blocks) of G_a's fine grid on [0, s_max] (``_blocks``)."""
    cfg = _default_cfg(s_max)
    return _blocks(0.0, float(s_max), cfg.step, cfg.renorm_every, cfg.max_steps)


# parity of G_a: x is odd and y, z are even, so T = G' keeps its x and flips
# y, z, while n and b (whose Frenet equations carry the odd torsion) flip x
_POINT_PARITY = np.array([-1.0, 1.0, 1.0])
_FRAME_PARITY = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
# the same per column of the profile's CSV (s, x, y, z, Tx, ..., bz); s is odd
_CSV_PARITY = (-1.0, *_POINT_PARITY, *_FRAME_PARITY.ravel())


def _coefficients(a):
    """Curvature a and torsion s/2 of G_a, as functions of s."""
    return lambda s: np.full(np.shape(s), float(a)), lambda s: s / 2


def _half(a, end, cfg):
    """(s, frames, points) of G_a from s = 0 to ``end``."""
    return propagate_frame(*_coefficients(a), 0.0, end, np.eye(3), step=cfg.step,
                           out_every=cfg.renorm_every,
                           position0=np.array([0.0, 0.0, 2 * a]),
                           max_steps=cfg.max_steps)


def _mirror(s, frames, points):
    """The half from 0 to -S read off the half from 0 to S by parity.

    Adding 0.0 turns the -0.0 of a flipped zero into the +0.0 that a direct
    run gives (a = 0 has zero frame entries).
    """
    return -s, frames * _FRAME_PARITY + 0.0, points * _POINT_PARITY + 0.0


def _check_family(a, s_max):
    """Reject a member a or span s_max of the family that is not finite,
    a < 0 or s_max <= 0."""
    if not (math.isfinite(a) and math.isfinite(s_max)) or a < 0 or s_max <= 0:
        raise InvalidParameter("need finite a >= 0 and s_max > 0")


def _limits(a, S, end):
    """A+/- read off G(S) = ``end`` and its mirror G(-S) (see ``profile``)."""
    r = S + 2 * a * a / S
    return end / r, (end * _POINT_PARITY + 0.0) / -r


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
    _check_family(a, s_max)
    cfg = cfg or _default_cfg(s_max)
    half = _half(a, float(s_max), cfg)
    s, frames, pts = two_sided(lambda end: half if end > 0 else _mirror(*half),
                               -float(s_max), float(s_max))
    curve = Curve(s, pts, frames)
    S = s[-1]
    A_plus, A_minus = _limits(a, S, pts[-1])
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

    A node between two profile nodes takes ceil(m/2) equal Magnus-4 steps
    (c = a, tau = sigma/2) from the nearest one, where the nodes lie m fine
    steps apart (``_grid``): each step is at most one fine step.  |sigma|
    may pass s_max by a relative 1e-12; beyond that it is OutOfProfileRange.
    """
    grid, frames, points = prof.curve.s_grid, prof.curve.frames, prof.curve.points
    reach = float(np.max(np.abs(sigma), initial=0.0))
    if reach > prof.s_max * (1 + 1e-12):
        raise OutOfProfileRange(
            f"sigma = {reach:g} lies beyond the profile's s_max = {prof.s_max:g}")
    j = np.clip(np.searchsorted(grid, sigma), 1, len(grid) - 1)
    j -= sigma - grid[j - 1] < grid[j] - sigma
    m = _grid(prof.s_max)[1]
    return _step_from(prof.a, grid[j], frames[j], points[j], sigma, -(-m // 2))


def _step_from(a, s, frames, points, sigma, n=1):
    """Frames and points of G_a at ``sigma``: ``n`` equal Magnus-4 steps
    (c = a, tau = sigma/2) from the nodes ``s`` that carry ``frames`` and
    ``points``."""
    h = (sigma - s) / n
    c = np.full_like(h, a)
    for i in range(n):
        s_i = s + i * h
        # at a large a the small-angle branch that rodrigues_phi1 discards overflows
        with np.errstate(over="ignore", invalid="ignore"):
            q, wV = magnus_frame_step(c, c, (s_i + GAUSS_C1 * h) / 2,
                                      (s_i + GAUSS_C2 * h) / 2, h)
        frames, points = _rotation(q) @ frames, points + np.einsum("ni,nij->nj", wV, frames)
    return frames, points


def sample(a, s_max, sigma):
    """G_a at the abscissae ``sigma`` (a 1-d array) and its limit
    directions, without the profile's nodes: (frames, points, A+, A-).

    Agrees with ``evaluate(profile(a, s_max), sigma)`` and that profile's
    A+/- to roundoff.  One run from 0 to s_max on the profile's fine grid
    (``_grid``) keeps only the fine nodes nearest to |sigma| and the end
    node (``integrators.frame_states``); each sigma then takes one Magnus-4
    step from its node, as in ``evaluate``, and sigma < 0 is the mirror
    image of -sigma by parity.  Memory is O(len(sigma)) plus one piece of
    ``integrators._CHUNK`` steps, whatever s_max (``sample_plan``).  |sigma|
    may pass s_max by a relative 1e-12; beyond that it is OutOfProfileRange.
    """
    _check_family(a, s_max)
    h, m, n_blocks = _grid(s_max)
    n, S = n_blocks * m, h * m * n_blocks  # S as the profile's last node
    sigma = np.asarray(sigma, dtype=float)
    x = np.abs(sigma)
    reach = float(np.max(x, initial=0.0))
    if reach > S * (1 + 1e-12):
        raise OutOfProfileRange(
            f"sigma = {reach:g} lies beyond the profile's s_max = {S:g}")
    k = np.minimum(np.rint(x / h), n).astype(np.int64)
    nodes, row = np.unique(np.append(k, n), return_inverse=True)
    frames, points = frame_states(*_coefficients(a), 0.0, h, n, nodes, np.eye(3),
                                  np.array([0.0, 0.0, 2 * a]))
    # block end k = j m is the profile's node (h m) j, which k h can miss by an ulp
    node = np.where(k % m == 0, h * m * (k // m), k * h)
    F, G = _step_from(a, node, frames[row[:-1]], points[row[:-1]], x)
    neg = sigma < 0
    _, F[neg], G[neg] = _mirror(x[neg], F[neg], G[neg])
    return (F, G) + _limits(a, S, points[-1])


# Planned bytes of a ``sample`` run per abscissa (sigma, frame and point,
# 104, kept by the caller) and per fine step of its one kernel piece,
# rounded up from the tracemalloc peak of the stability run (245 per step)
_BYTES_PER_SIGMA = 120
_BYTES_PER_PIECE_STEP = 250


def sample_plan(sig_max, n_sigma):
    """(span, planned bytes) of a ``sample`` run for ``n_sigma`` abscissae
    with |sigma| up to ``sig_max``: the span is sig_max plus one output
    spacing, and at least 50; past ``SolverConfig.max_steps`` fine steps
    its grid (``_grid``) is StepLimitExceeded."""
    cfg = _default_cfg(sig_max)
    span = max(sig_max + cfg.step * cfg.renorm_every, 50.0)
    _grid(span)
    return span, _BYTES_PER_SIGMA * n_sigma + _BYTES_PER_PIECE_STEP * _CHUNK


def v_shape(A_plus, A_minus, s):
    """The t = 0 trace of the flow on the 1-d array ``s``: a row s A+ where
    s >= 0 and s A- elsewhere."""
    return np.where(s[:, None] >= 0, A_plus, A_minus) * s[:, None]


def chi(prof, s, t):
    """Evaluate chi(s,t) = sqrt(t) G(s/sqrt(t)); at t = 0 the V-shape trace."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if t < 0:
        raise InvalidParameter("t must be nonnegative")
    rt = math.sqrt(t)
    out = v_shape(prof.A_plus, prof.A_minus, s) if t == 0 else rt * evaluate(prof, s / rt)[1]
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
