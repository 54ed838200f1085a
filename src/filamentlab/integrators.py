"""Shared ODE kernels and the one step planner.

Every linear system y' = A(s) y in the package runs on a Magnus-4 step: a
4th-order two-point commutator-corrected exponential (Iserles & Norsett
1999).  Per-step exponentials are built vectorized over all steps and
combined by one work-efficient two-level prefix scan (``_scan``), so
multi-million-step runs cost a handful of numpy passes instead of a Python
loop.

Skew 3x3 systems -- the frame system (T,n,b) with its position row
(``magnus_frame_step``), and the origin-frame ODE in t of the flow
reconstruction -- take exact exponentials: rotations held as unit
quaternions (Euler-Rodrigues parameters, ``rodrigues_phi1``), multiplied
elementwise in the scan and turned into matrices only at output nodes.  The
2-dim complex systems use a closed-form 2x2 exponential and the same scan
with ``matmul``.

``_blocks`` lays every fixed-step run on whole output blocks (``_plan``
adds the block ends as output nodes); it also plans the fused fixed-step
DOP853 driver of the nonlinear profile ODEs (``spiral._fixed_step``), and it
alone validates a run's ``step`` and ``out_every``.  A fine step is a Magnus
step, or a DOP853 step of 12 right-hand sides.  One run (one side of a
two-sided run) takes at most ``_MAX_STEPS`` fine steps, a time budget: it
holds one piece of ``_CHUNK`` fine steps, about 4 MB for the frame kernel,
and its output nodes, which ``_plan`` bounds.  The Magnus kernels run on one chunk loop, ``_sweep``, in pieces of ``_CHUNK``
fine steps that keep only the requested states: every block end for
``propagate_frame`` and ``propagate_linear2``, any sorted set of fine steps
for ``frame_states``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (InvalidParameter, MemoryBudgetExceeded, NonFiniteCoefficient,
                     StepLimitExceeded)

# Gauss-Legendre 2-point nodes on [0, 1]
GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0

_CHUNK = 16_384   # fine steps per vectorized piece; caps peak memory
_MAX_STEPS = 50_000_000  # fine steps of one planned run at most (module docstring)
_SCAN_ROW = 32     # elements per row of the two-level prefix scan
# Planned bytes per output node of a dense run (``_plan``), rounded up from the
# tracemalloc peak: 162 per node of a profile's half, 451 per node of a side
# of ``spiral --smax 100`` (669 at --smax 40, where its one assembly piece
# weighs more per node)
_BYTES_PER_OUTPUT_NODE = 1000


# ---------------------------------------------------------------------------
# batched small-matrix and quaternion helpers
#
# A rotation is held as a unit quaternion w + x i + y j + z k, stored as the
# SU(2) pair (alpha, beta) = (w + i x, y + i z) in the last axis of a complex
# array; the Hamilton product is then the 2x2 unitary matrix product below.

_Q_ONE = np.array([1.0, 0.0], dtype=complex)


def _qmul(p, q):
    """Batched Hamilton product p q of quaternion pairs (rotation q, then p)."""
    a1, b1 = p[..., 0], p[..., 1]
    a2, b2 = q[..., 0], q[..., 1]
    return np.stack([a1 * a2 - b1 * b2.conj(), a1 * b2 + b1 * a2.conj()], axis=-1)


def _rotation(q):
    """Batched rotation matrices of (not necessarily unit) quaternion pairs."""
    w, x = q[..., 0].real, q[..., 0].imag
    y, z = q[..., 1].real, q[..., 1].imag
    n2 = w * w + x * x + y * y + z * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = w * w + x * x - y * y - z * z
    R[..., 1, 1] = w * w - x * x + y * y - z * z
    R[..., 2, 2] = w * w - x * x - y * y + z * z
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 1] = 2 * (y * z + w * x)
    return R / n2[..., None, None]


def _unrotate(q, v):
    """Batched row vectors v @ R(q) (the inverse rotation of v), unit q."""
    w, x = q[..., 0].real, q[..., 0].imag
    y, z = q[..., 1].real, q[..., 1].imag
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    t0 = 2 * (v1 * z - v2 * y)
    t1 = 2 * (v2 * x - v0 * z)
    t2 = 2 * (v0 * y - v1 * x)
    return np.stack([v0 + w * t0 + (t1 * z - t2 * y),
                     v1 + w * t1 + (t2 * x - t0 * z),
                     v2 + w * t2 + (t0 * y - t1 * x)], axis=-1)


def _scan(x, mul, one):
    """Inclusive prefix products along axis 0: out[k] = x[k] * ... * x[0].

    Two-level scan (Blelloch 1990): the elements, padded with ``one``, are
    cut into rows of ``_SCAN_ROW`` consecutive elements; a sequential pass
    over the columns, vectorized over all rows, forms the in-row prefixes,
    then every row is multiplied by the prefix of the row totals before it,
    which the same scan computes.  O(n) products in O(log n) vectorized
    passes.  ``mul(a, b)`` is the batched product a * b.
    """
    n = len(x)
    cols = min(n, _SCAN_ROW)
    rows = -(-n // cols)
    pad = np.empty((rows * cols,) + x.shape[1:], dtype=x.dtype)
    pad[:n] = x
    pad[n:] = one
    y = pad.reshape((rows, cols) + x.shape[1:]).swapaxes(0, 1).copy()
    for j in range(1, cols):
        y[j] = mul(y[j], y[j - 1])
    if rows > 1:
        y[:, 1:] = mul(y[:, 1:], _scan(y[-1, :-1], mul, one)[None])
    return y.swapaxes(0, 1).reshape(pad.shape)[:n]


def rodrigues_phi1(omega):
    """Exact rotation exp(skew(omega)) and the phi1 coefficients, batched.

    Returns (q, B, C): the Euler-Rodrigues pair of the rotation by |omega|
    about omega, and the coefficients of
    phi1(skew(omega)) = I + B skew(omega) + C skew(omega)^2, where
    phi1(X) = sum X^n/(n+1)! integrates a frozen-axis rotation in closed form.
    """
    th2 = np.einsum("ni,ni->n", omega, omega)
    th = np.sqrt(th2)
    small = th < 1e-4
    safe = np.where(small, 1.0, th)
    sh, ch = np.sin(safe / 2), np.cos(th / 2)
    half = np.where(small, 0.5 - th2 / 48 + th2 * th2 / 3840, sh / safe)
    C = np.where(
        small, 1 / 6 - th2 / 120 + th2 * th2 / 5040, (safe - 2 * sh * ch) / safe**3
    )
    q = np.empty((len(th), 2), dtype=complex)
    q.real[:, 0] = ch
    q.imag[:, 0] = half * omega[:, 0]
    q.real[:, 1] = half * omega[:, 1]
    q.imag[:, 1] = half * omega[:, 2]
    # (1 - cos th)/th^2 = 2 (sin(th/2)/th)^2, free of cancellation
    return q, 2 * half * half, C


def expm2(M):
    """Batched closed-form exponential of (N,2,2) complex matrices."""
    tr = 0.5 * (M[:, 0, 0] + M[:, 1, 1])
    D = M.copy()
    D[:, 0, 0] -= tr
    D[:, 1, 1] -= tr
    mu2 = D[:, 0, 0] ** 2 + D[:, 0, 1] * D[:, 1, 0]
    mu = np.sqrt(mu2.astype(complex))
    small = np.abs(mu) < 1e-6
    safe = np.where(small, 1.0, mu)
    ch = np.where(small, 1 + mu2 / 2 + mu2 * mu2 / 24, np.cosh(safe))
    sh = np.where(small, 1 + mu2 / 6 + mu2 * mu2 / 120, np.sinh(safe) / safe)
    out = ch[:, None, None] * np.eye(2, dtype=complex)[None] + sh[:, None, None] * D
    return np.exp(tr)[:, None, None] * out


def magnus_omega(A1, A2, h):
    """4th-order two-point Magnus exponent for y' = A(s) y."""
    return (h / 2) * (A1 + A2) + (np.sqrt(3.0) * h * h / 12) * (A2 @ A1 - A1 @ A2)


def magnus_frame_step(c1, c2, t1, t2, h):
    """One Magnus-4 step of the frame system, batched over steps.

    ``c1, c2, t1, t2`` are curvature and torsion at the two Gauss nodes and
    ``h`` the step (a scalar, or one per row).  Returns (q, wV): the
    Euler-Rodrigues pair of the exact rotation that advances the frame rows,
    R(q) @ F, and the position increment in frame coordinates, wV @ F.
    """
    h = np.asarray(h, dtype=float)
    k = np.sqrt(3.0) * h * h / 12
    o0, o1, o2 = -(h / 2) * (t1 + t2), k * (c2 * t1 - c1 * t2), -(h / 2) * (c1 + c2)
    q, B, C = rodrigues_phi1(np.stack([o0, o1, o2], axis=1))
    # wV = w phi1(skew(omega)) = w + B p + C (p x omega), with p = w x omega
    # and w = (h, k (c1 - c2), 0) the position row of the Magnus exponent
    w0, w1 = h, k * (c1 - c2)
    p0, p1, p2 = w1 * o2, -w0 * o2, w0 * o1 - w1 * o0
    wV = np.empty((len(o0), 3))
    wV[:, 0] = w0 + B * p0 + C * (p1 * o2 - p2 * o1)
    wV[:, 1] = w1 + B * p1 + C * (p2 * o0 - p0 * o2)
    wV[:, 2] = B * p2 + C * (p0 * o1 - p1 * o0)
    return q, wV


def _check_angle(angle, name):
    """Reject a rotation angle per step that reaches 1/eps radians, where
    rounding the angle alone exceeds a radian, as InvalidParameter naming
    the angle ``name``."""
    if not angle < 1 / np.finfo(float).eps:
        raise InvalidParameter(
            f"{name} = {angle:.3g} rad per step overflows a float's radian resolution")


def _stage_coeffs(fn, s):
    vals = np.asarray(fn(s), dtype=float)
    if vals.ndim == 0:
        vals = np.full(s.shape, float(vals))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteCoefficient("coefficient evaluated non-finite on the span")
    return vals


def _blocks(s0, s1, step, out_every):
    """Uniform fine grid over [s0, s1] in whole output blocks of
    ``out_every`` fine steps of at most ``step``.

    Returns (h, m, n_blocks): the fine step, the fine steps per output block
    and the block count, so the grid has n_blocks * m steps; more than
    ``_MAX_STEPS`` of them are StepLimitExceeded.  A step not finite and > 0,
    an ``out_every`` not an integer >= 1 and an empty span are InvalidParameter.
    """
    # written so that a NaN fails
    if not 0 < step < math.inf:
        raise InvalidParameter(f"step must be finite and positive, got {step!r}")
    if not (isinstance(out_every, numbers.Integral) and out_every >= 1):
        raise InvalidParameter(f"out_every must be an integer >= 1, got {out_every!r}")
    span = s1 - s0
    if not (math.isfinite(span) and span != 0.0):
        raise InvalidParameter(f"span [{s0:g}, {s1:g}] must be finite and nonempty")
    m = int(out_every)
    # a span that is a whole number of blocks up to roundoff gets exactly
    # that many; ceil alone would add a spurious block
    r = abs(span) / (step * m)
    if not math.isfinite(r):
        raise StepLimitExceeded(f"span {span:g} at step {step:g} needs {r:g} output blocks")
    n_blocks = round(r)
    if abs(r - n_blocks) > 1e-9 * r:
        n_blocks = math.ceil(r)
    n_blocks = max(1, n_blocks)
    if n_blocks * m > _MAX_STEPS:
        # as a float, inf beyond its range: the int may have 300 digits
        raise StepLimitExceeded(
            f"{float(n_blocks) * m:.3g} steps needed for span {span:g} at step {step:g}"
        )
    return span / (n_blocks * m), m, n_blocks


def _plan(s0, s1, step, out_every):
    """``_blocks`` with its output nodes: returns (h, m, s_out, n), n the
    fine-step count and s_out the n/m + 1 block ends, s_out[0] = s0; nodes
    over the memory budget are MemoryBudgetExceeded.  Block end j is labelled
    s0 + h (m j), the abscissa of the fine step m j that the kernels take."""
    h, m, n_blocks = _blocks(s0, s1, step, out_every)
    MemoryBudgetExceeded.check((n_blocks + 1) * _BYTES_PER_OUTPUT_NODE,
                               f"fixed-step run over [{s0:g}, {s1:g}]")
    return h, m, s0 + h * (m * np.arange(n_blocks + 1)), n_blocks * m


def _sweep(piece, s0, h, n, at, state):
    """The one chunk loop of the kernels: the states after the fine steps ``at``.

    The n fine steps of size h from s0 run in pieces of at most ``_CHUNK``
    steps.  ``at`` holds the requested states as sorted, distinct step
    counts in [0, n], 0 being the initial ``state`` (a tuple of arrays).
    ``piece(sk, ends, *state)`` advances ``state`` over the steps that start
    at ``sk`` and returns the tuple of states after the piece-local steps
    ``ends``: the requested ones, then the piece's last step, whose state
    starts the next piece.  Returns one array per state component, with a
    row per requested state.
    """
    outs = tuple(np.empty((len(at),) + x.shape, dtype=x.dtype) for x in state)
    for o, x in zip(outs, state):
        o[at == 0] = x
    for k0 in range(0, n, _CHUNK):
        kc = min(_CHUNK, n - k0)
        lo, hi = np.searchsorted(at, (k0 + 1, k0 + kc + 1))
        ends = at[lo:hi] - (k0 + 1)
        if hi == lo or ends[-1] != kc - 1:
            ends = np.append(ends, kc - 1)
        xs = piece(s0 + (k0 + np.arange(kc)) * h, ends, *state)
        for o, x in zip(outs, xs):
            o[lo:hi] = x[: hi - lo]
        state = tuple(x[-1] for x in xs)
    return outs


def frame_states(c_fn, tau_fn, s0, h, n, at, frame0, position0=None):
    """Frames, and points when ``position0`` is given, of the Frenet frame
    system after the fine steps ``at`` (sorted, distinct, in [0, n]) of n
    steps of size h from s0, as (frames, points); points is None without
    ``position0``.  Only the requested states are kept: the working arrays
    hold one piece of ``_CHUNK`` steps (see ``_sweep``).
    """

    def piece(sk, ends, F, G=None):
        sg1, sg2 = sk + GAUSS_C1 * h, sk + GAUSS_C2 * h
        c1, c2 = _stage_coeffs(c_fn, sg1), _stage_coeffs(c_fn, sg2)
        t1, t2 = _stage_coeffs(tau_fn, sg1), _stage_coeffs(tau_fn, sg2)
        with np.errstate(over="ignore", invalid="ignore"):
            q, wV = magnus_frame_step(c1, c2, t1, t2, h)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(wV))):
            raise NonFiniteCoefficient("propagator became non-finite")
        _check_angle(abs(h) * max(np.max(np.abs(x)) for x in (c1, c2, t1, t2)),
                     "frame rotation angle h max(|c|, |tau|)")
        P = _scan(q, _qmul, _Q_ONE)
        frames = _rotation(P[ends]) @ F
        if G is None:
            return (frames,)
        # step k adds wV_k @ R(P_{k-1}) @ F, with P_{-1} the identity
        wV[1:] = _unrotate(P[:-1], wV[1:])
        rows = np.add.reduceat(wV, np.concatenate(([0], ends[:-1] + 1))) @ F
        # one running sum from G: a point is rounded once per row, as if
        # the run were one piece
        rows[0] += G
        return frames, np.cumsum(rows, axis=0)

    state = [np.array(frame0, dtype=float)]
    if position0 is not None:
        state.append(np.array(position0, dtype=float))
    out = _sweep(piece, s0, h, n, np.asarray(at), state)
    return out[0], (out[1] if position0 is not None else None)


def propagate_frame(c_fn, tau_fn, s0, s1, frame0, *, step, out_every,
                    position0=None):
    """Propagate the Frenet frame system, optionally with the curve point.

    State rows are (T, n, b) (and G when position0 is given); the system is
    linear with coefficient rows T'=c n, n'=-c T + tau b, b'=-tau n, G'=T.
    Returns (s_out, frames, points) with outputs every ``out_every`` fine
    steps, s_out[0] = s0.  Every step is an exact rotation, so the frames
    stay orthonormal to roundoff without renormalization.
    """
    h, m, s_out, n = _plan(s0, s1, step, out_every)
    frames, points = frame_states(c_fn, tau_fn, s0, h, n, m * np.arange(len(s_out)),
                                  frame0, position0)
    return s_out, frames, points


def propagate_linear2(afn, s0, s1, y0, *, step, out_every):
    """Propagate a 2-dim complex linear system y' = A(s) y.

    ``afn(s_array) -> (N,2,2)`` complex.  Returns (s_out, Y) with Y[k] the
    state at s_out[k]; outputs every ``out_every`` fine steps.
    """
    h, m, s_out, n = _plan(s0, s1, step, out_every)

    def piece(sk, ends, y):
        A1 = afn(sk + GAUSS_C1 * h)
        A2 = afn(sk + GAUSS_C2 * h)
        with np.errstate(over="ignore", invalid="ignore"):
            P = expm2(magnus_omega(A1, A2, h))
        if not np.all(np.isfinite(P.view(float))):
            raise NonFiniteCoefficient("propagator became non-finite")
        return (np.einsum("bij,j->bi", _scan(P, np.matmul, np.eye(2))[ends], y),)

    y0 = np.array(y0, dtype=complex)
    return s_out, _sweep(piece, s0, h, n, m * np.arange(len(s_out)), (y0,))[0]


def two_sided(run, s_lo, s_hi):
    """Run ``run(s_end)`` from s = 0 toward each end of [s_lo, s_hi] and stitch.

    ``run`` returns a tuple of arrays whose first axis is its output nodes,
    node 0 at s = 0.  A side is run only when its end lies beyond 0; the
    result is the same tuple on one ascending grid, with the node at 0 once.
    """
    plus = run(s_hi) if s_hi > 0 else None
    minus = run(s_lo) if s_lo < 0 else None
    if minus is None:
        if plus is None:
            raise InvalidParameter("empty span")
        return plus
    if plus is None:
        return tuple(x[::-1] for x in minus)
    return tuple(np.concatenate([xm[:0:-1], xp]) for xm, xp in zip(minus, plus))
