"""The one-parameter family of self-similar profiles.

The profile G solves the frame system with constant curvature a and torsion
s/2, from G(0) = 2a e3, T(0) = e1, n(0) = e2, b(0) = e3.  The flow is
chi(s,t) = sqrt(t) G(s/sqrt(t)); at t = 0 it traces the V-shape s A+/-
(``v_shape``) whose half-angle satisfies sin(gamma/2) = exp(-pi a^2 / 2).
G has a parity: x is odd in s, y and z are even, so its s < 0 half is the
mirror image of its s >= 0 half.  ``profile`` keeps G once, as that half on
its output nodes, and ``sample`` (planned by ``sample_plan``) keeps only the
fine nodes nearest to chosen abscissae.  Both are read through one path,
``_read``: from the nearest node, Magnus-4 steps, and the parity for
sigma < 0, in pieces of ``_PIECE`` abscissae.  G's grid is decided here
alone (``_spacing``), so ``evaluate`` steps on the grid every profile ran on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, OutOfProfileRange
from .geometry import Curve
from .integrators import (
    GAUSS_C1,
    GAUSS_C2,
    _CHUNK,
    _blocks,
    _rotation,
    frame_states,
    magnus_frame_step,
    propagate_frame,
)


@dataclass
class SelfSimilarProfile:
    """G_a on [-s_max, s_max], held as its s >= 0 half: G_a's parity (x odd
    in s, y and z even) gives the s < 0 half, and every reader of the
    profile (``csv_job``, ``evaluate``, ``modulus_defect``,
    ``self_intersections``) reads the half alone."""

    a: float
    s_max: float
    half: Curve                 # nodes 0 <= s <= s_max, frames attached
    A_plus: np.ndarray
    A_minus: np.ndarray
    a1_estimate: float
    a1_error_bound: float

    @property
    def curve(self):
        """The two-sided curve on [-s_max, s_max]: the half and its mirror
        (``_mirror``), built anew on each read; nothing in the package
        reads it."""
        half = self.half.s_grid, self.half.frames, self.half.points
        s, frames, points = (np.concatenate([m[:0:-1], p])
                             for m, p in zip(_mirror(*half), half))
        return Curve(s, points, frames)

    def gamma_measured(self):
        """Angle between A+ and -A- read off the computed directions."""
        return gamma_between(self.A_plus, self.A_minus)

    def csv_job(self, path):
        """The mirrored ``(path, header, columns, parity)`` job of the
        profile's CSV for :func:`dataio.write_csvs`: the columns of
        ``Curve.csv_job`` of the half, with G_a's parity, by which the
        writer builds the rows of s < 0."""
        return (*self.half.csv_job(path), _CSV_PARITY)


def _spacing(s_max):
    """(step, m) of G_a on [-s_max, s_max]: the bound on the fine step and
    the fine steps between output nodes.  The target spacing
    dso = min(0.032, pi/(2 s_max)) resolves the fastest frame rotation
    (tau = s/2); the fine step is the smaller of 2e-3 and dso, and a node
    falls every m = round(dso/step) fine steps, so the output spacing is
    m * step, not dso (4e-3 against dso = 3.1e-3 at s_max = 500)."""
    dso = min(0.032, math.pi / (2 * max(s_max, 1.0)))
    step = min(2e-3, dso)
    return step, max(1, int(round(dso / step)))


def _grid(s_max):
    """(h, m, n_blocks) of G_a's fine grid on [0, s_max] (``_blocks``)."""
    return _blocks(0.0, float(s_max), *_spacing(s_max))


# parity of G_a: x is odd and y, z are even, so T = G' keeps its x and flips
# y, z, while n and b (whose Frenet equations carry the odd torsion) flip x
_POINT_PARITY = np.array([-1.0, 1.0, 1.0])
_FRAME_PARITY = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
# the same per column of the profile's CSV (s, x, y, z, Tx, ..., bz); s is odd
_CSV_PARITY = (-1.0, *_POINT_PARITY, *_FRAME_PARITY.ravel())


def _coefficients(a):
    """Curvature a and torsion s/2 of G_a, as functions of s."""
    return lambda s: np.full(np.shape(s), float(a)), lambda s: s / 2


def _half(a, end):
    """(s, frames, points) of G_a from s = 0 to ``end`` on its grid."""
    step, m = _spacing(abs(end))
    return propagate_frame(*_coefficients(a), 0.0, end, np.eye(3), step=step,
                           out_every=m, position0=np.array([0.0, 0.0, 2 * a]))


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


def gamma_between(A_plus, A_minus):
    """The corner angle between A+ and -A-."""
    return float(np.arccos(np.clip(-np.dot(A_plus, A_minus), -1, 1)))


def _limits(a, S, end):
    """A+/- read off G(S) = ``end`` and its mirror G(-S) (see ``profile``)."""
    r = S + 2 * a * a / S
    return end / r, (end * _POINT_PARITY + 0.0) / -r


def profile(a, s_max):
    """Compute G_a on [-s_max, s_max] with frames and limit directions.

    One frame propagation runs from 0 to S, and the profile holds that half
    alone.  The left half is its mirror image (``_mirror``), which equals a
    direct run from 0 to -S bit for bit (``mirror_defect``), as every step
    of that run is the negated step of this one; the readers of the profile
    apply the parity where they need the left half, and no array of s < 0
    is built.

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
    holds either way; where it is not finite (S^2 underflows, or 2a/S or
    2a^2 overflows) the profile is InvalidParameter, before it runs.
    """
    S, bound = span_and_bound(a, s_max)
    s, frames, points = _half(a, float(s_max))
    A_plus, A_minus = _limits(a, S, points[-1])
    return SelfSimilarProfile(
        a=float(a), s_max=float(S), half=Curve(s, points, frames),
        A_plus=A_plus, A_minus=A_minus,
        a1_estimate=float(A_plus[0]),
        a1_error_bound=bound,
    )


def span_and_bound(a, s_max):
    """(S, bound) of G_a on [-s_max, s_max]: S the span of its run on its
    grid (``_grid``), its last node to an ulp, and ``bound`` the rigorous
    error bound 2a/S + 2a^2/S^2 of the A+/- it reads there (see
    ``profile``).  A bound that is not finite is InvalidParameter."""
    _check_family(a, s_max)
    h, m, n_blocks = _grid(s_max)
    S = np.float64(h * m * n_blocks)
    with np.errstate(all="ignore"):
        bound = float(2 * a / S + 2 * a * a / (S * S))
    if not math.isfinite(bound):
        raise InvalidParameter(f"s_max = {S:g} is too small for a = {a:g}: the A+ "
                               "error bound 2a/S + 2a^2/S^2 is not finite")
    return S, bound


def mirror_defect(a, s_max):
    """Max difference between a direct run of G_a from 0 to -s_max and the
    mirror of the run from 0 to s_max that ``profile`` returns instead.

    Zero in exact arithmetic by parity, and zero in floating point as long
    as the elementwise kernels are exact under sign flips.
    """
    mirrored = _mirror(*_half(a, float(s_max)))
    direct = _half(a, -float(s_max))
    return max(float(np.max(np.abs(m - d))) for m, d in zip(mirrored, direct))


def corner_angle(a):
    """Closed-form limit component and corner angle: (a1, gamma)."""
    if a < 0:
        raise InvalidParameter("a must be nonnegative")
    a1 = math.exp(-math.pi * a * a / 2)
    return a1, 2 * math.asin(a1)


def modulus_defect(prof):
    """Max relative violation of |G|^2 = s^2 + 4 a^2, read on the half (the
    mirror has the same s^2 and the same squared components).

    At a = 0 the law reads 0 = 0 at s = 0, where G(0) = 0 exactly: that
    node counts as no violation, not as 0/0.
    """
    s = prof.half.s_grid
    target = s * s + 4 * prof.a * prof.a
    got = np.sum(prof.half.points**2, axis=1)
    rel = np.divide(np.abs(got - target), target, out=np.zeros_like(target),
                    where=target > 0)
    return float(np.max(rel))


def evaluate(prof, sigma):
    """Frames and points of G_a at the abscissae ``sigma`` (a 1-d array),
    read off the profile's half (``_read``).

    A node between two profile nodes takes ceil(m/2) equal Magnus-4 steps
    (c = a, tau = sigma/2) from the nearest one, where the nodes lie m fine
    steps apart on G_a's one grid (``_grid``): each step is at most one fine
    step.  A sigma that is not finite is InvalidParameter; |sigma| may pass
    s_max by a relative 1e-12, and beyond that it is OutOfProfileRange.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check_reach(sigma, prof.s_max)
    half = prof.half.s_grid, prof.half.frames, prof.half.points
    return _read(prof.a, half, sigma, -(-_grid(prof.s_max)[1] // 2))


def _check_reach(x, S=math.inf):
    """Reject abscissae ``x`` that are not finite (InvalidParameter) or whose
    |x| passes S by more than a relative 1e-12 (OutOfProfileRange)."""
    reach = float(np.max(np.abs(x), initial=0.0))
    # written so that a NaN fails
    if not reach < math.inf:
        raise InvalidParameter(f"abscissae must be finite, got max |x| = {reach}")
    if reach > S * (1 + 1e-12):
        raise OutOfProfileRange(f"sigma = {reach:g} lies beyond the profile's s_max = {S:g}")


def _sigma(s, t):
    """The profile abscissae sigma = s/sqrt(t) of the abscissae ``s`` (a 1-d
    array) at a time 0 < t < inf.  An s that is not finite is
    InvalidParameter; a finite s whose sigma overflows lies beyond every
    profile, OutOfProfileRange."""
    _check_reach(s)
    with np.errstate(over="ignore"):
        sigma = s / math.sqrt(t)
    if not np.max(np.abs(sigma), initial=0.0) < math.inf:
        raise OutOfProfileRange(f"s/sqrt(t) overflows at t = {t:g}")
    return sigma


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


# abscissae per piece of ``_read``, and nodes per piece of the spiral
# profile's frame assembly (``spiral.spiral_profile``): the working arrays
# of either take up to 390 bytes per abscissa or node (tracemalloc), so one
# piece (1.6 MB) stays below a kernel piece of ``_CHUNK`` steps (4 MB)
_PIECE = 4096


def _read(a, half, sigma, n):
    """Frames and points of G_a at the abscissae ``sigma`` (a 1-d array)
    from ``half``, the (s, frames, points) of G_a on nodes 0 <= s, ascending:
    each |sigma| takes ``n`` equal Magnus-4 steps from its nearest node, and
    sigma < 0 is the mirror image of -sigma by parity.

    The one reader of ``evaluate`` and ``sample``.  It works through sigma
    in pieces of ``_PIECE`` abscissae and writes into the outputs it
    allocates, so its working arrays are one piece, whatever len(sigma).
    """
    s, frames, points = half
    F, G = np.empty((len(sigma), 3, 3)), np.empty((len(sigma), 3))
    for lo in range(0, len(sigma), _PIECE):
        piece, f, g = sigma[lo:lo + _PIECE], F[lo:lo + _PIECE], G[lo:lo + _PIECE]
        x = np.abs(piece)
        j = np.clip(np.searchsorted(s, x), 1, len(s) - 1)
        j -= x - s[j - 1] < s[j] - x
        f[:], g[:] = _step_from(a, s[j], frames[j], points[j], x, n)
        neg = piece < 0
        _, f[neg], g[neg] = _mirror(x[neg], f[neg], g[neg])
    return F, G


def sample(a, s_max, sigma):
    """G_a at the abscissae ``sigma`` (a 1-d array) and its limit
    directions, without the profile's nodes: (frames, points, A+, A-).

    Agrees with ``evaluate(profile(a, s_max), sigma)`` and that profile's
    A+/- to roundoff.  One run from 0 to s_max on the profile's fine grid
    (``_grid``) keeps only the fine nodes nearest to |sigma|, node 0 and the
    end node (``integrators.frame_states``); ``_read`` then takes one
    Magnus-4 step from each sigma's node, as ``evaluate`` does from the
    profile's, and reads sigma < 0 by parity.  Memory is the outputs, the
    kept nodes and one piece of ``integrators._CHUNK`` steps, whatever
    s_max (``sample_plan``).  A sigma that is not finite is
    InvalidParameter; |sigma| may pass s_max by a relative 1e-12, and beyond
    that it is OutOfProfileRange.
    """
    _check_family(a, s_max)
    h, m, n_blocks = _grid(s_max)
    n, S = n_blocks * m, h * m * n_blocks  # S as the profile's s_max
    sigma = np.asarray(sigma, dtype=float)
    _check_reach(sigma, S)
    nodes = np.unique(np.concatenate(
        ([0], np.minimum(np.rint(np.abs(sigma) / h), n).astype(np.int64), [n])))
    frames, points = frame_states(*_coefficients(a), 0.0, h, n, nodes, np.eye(3),
                                  np.array([0.0, 0.0, 2 * a]))
    # fine node k lies at h k, as the profile's node j at h (m j) (``_plan``)
    F, G = _read(a, (h * nodes, frames, points), sigma, 1)
    return (F, G) + _limits(a, S, points[-1])


# Planned bytes of a ``sample`` run per abscissa (sigma, frame and point,
# 104, kept by the caller) and per fine step of its one kernel piece,
# rounded up from the tracemalloc peak of the stability run (245 per step).
# The fine node an abscissa may keep for itself (104 more; a run whose
# abscissae each keep one peaks 189 bytes per abscissa above its piece)
# falls to the caller's plan, ``flow._BYTES_PER_NODE`` in the stability run
_BYTES_PER_SIGMA = 120
_BYTES_PER_PIECE_STEP = 250


def sample_plan(sig_max, n_sigma):
    """(span, planned bytes) of a ``sample`` run for ``n_sigma`` abscissae
    with |sigma| up to ``sig_max``: the span is sig_max plus one output
    spacing, and at least 50; past ``integrators._MAX_STEPS`` fine steps
    its grid (``_grid``) is StepLimitExceeded."""
    step, m = _spacing(sig_max)
    span = max(sig_max + step * m, 50.0)
    _grid(span)
    return span, _BYTES_PER_SIGMA * n_sigma + _BYTES_PER_PIECE_STEP * _CHUNK


def v_shape(A_plus, A_minus, s):
    """The t = 0 trace of the flow on the 1-d array ``s``: a row s A+ where
    s >= 0 and s A- elsewhere."""
    return np.where(s[:, None] >= 0, A_plus, A_minus) * s[:, None]


def chi(prof, s, t):
    """Evaluate chi(s,t) = sqrt(t) G(s/sqrt(t)); at t = 0 the V-shape trace.
    An s or t that is not finite, or a t < 0, is InvalidParameter; an
    s/sqrt(t) past the profile's s_max, overflowing included, is
    OutOfProfileRange (``_sigma``)."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    # written so that a NaN fails
    if not 0 <= t < math.inf:
        raise InvalidParameter(f"t must be finite and nonnegative, got {t!r}")
    if t == 0:
        _check_reach(s)
        out = v_shape(prof.A_plus, prof.A_minus, s)
    else:
        out = math.sqrt(t) * evaluate(prof, _sigma(s, t))[1]
    return out[0] if scalar else out


def self_intersections(prof):
    """Positive zeros of the first profile component, bisected to 1e-10.

    By parity G(s*) = G(-s*) at every returned s*, so each zero marks a
    self-intersection of the profile.  Zeros are located by sign change on
    the stored grid and refined by bisection against ``evaluate``; zeros
    closer than 1e-8 are merged.  The scan covers (0, s_max]; an empty
    array is a valid result.
    """
    sp, xp = prof.half.s_grid[1:], prof.half.points[1:, 0]
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
