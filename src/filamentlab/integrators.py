"""Shared ODE kernels.

Two families cover every integration in the package:

* ``rk4_solve`` -- classic fixed-step RK4 for small nonlinear systems.
* Magnus-4 propagators for *linear* systems y' = A(s) y: a 4th-order
  two-point commutator-corrected exponential step (Iserles & Norsett 1999).
  Per-step exponentials are built vectorized over all steps and combined by
  a doubling prefix scan inside output blocks and across them, so
  multi-million-step runs cost a handful of numpy passes instead of a
  Python loop.

The frame system (T,n,b) and its position-augmented variant have their own
step, ``magnus_frame_step``, because its exponentials are exact rotations
(Rodrigues) plus a closed-form phi1 block for the position row; the 2-dim
complex systems use a closed-form 2x2 exponential.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, NonFiniteCoefficient, StepLimitExceeded

# Gauss-Legendre 2-point nodes on [0, 1]
GAUSS_C1 = 0.5 - np.sqrt(3.0) / 6.0
GAUSS_C2 = 0.5 + np.sqrt(3.0) / 6.0

_CHUNK = 200_000  # fine steps per vectorized chunk; caps peak memory


def rk4_solve(f, s_nodes, y0, substeps=1):
    """Fixed-step RK4 over the (possibly non-uniform) node array.

    Returns an array with y at every node; ``substeps`` subdivides each
    interval uniformly.
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    out = np.empty((len(s_nodes),) + y.shape, dtype=y.dtype)
    out[0] = y
    for k in range(len(s_nodes) - 1):
        h = (s_nodes[k + 1] - s_nodes[k]) / substeps
        s = s_nodes[k]
        for _ in range(substeps):
            k1 = f(s, y)
            k2 = f(s + h / 2, y + (h / 2) * k1)
            k3 = f(s + h / 2, y + (h / 2) * k2)
            k4 = f(s + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        out[k + 1] = y
    return out


# ---------------------------------------------------------------------------
# batched small-matrix helpers


def skew(w):
    """Batched skew matrices: skew(w) @ x = w x x (cross product)."""
    n = w.shape[0]
    S = np.zeros((n, 3, 3))
    S[:, 0, 1] = -w[:, 2]
    S[:, 0, 2] = w[:, 1]
    S[:, 1, 0] = w[:, 2]
    S[:, 1, 2] = -w[:, 0]
    S[:, 2, 0] = -w[:, 1]
    S[:, 2, 1] = w[:, 0]
    return S


def rodrigues_phi1(omega):
    """Exact rotation R = exp(skew(omega)) and V = phi1(skew(omega)), batched.

    phi1(X) = sum X^n/(n+1)! integrates a frozen-axis rotation in closed form.
    """
    th = np.linalg.norm(omega, axis=1)
    th2 = th * th
    small = th < 1e-4
    safe = np.where(small, 1.0, th)
    A = np.where(small, 1 - th2 / 6 + th2 * th2 / 120, np.sin(safe) / safe)
    B = np.where(small, 0.5 - th2 / 24 + th2 * th2 / 720, (1 - np.cos(safe)) / safe**2)
    C = np.where(
        small, 1 / 6 - th2 / 120 + th2 * th2 / 5040, (safe - np.sin(safe)) / safe**3
    )
    S = skew(omega)
    S2 = S @ S
    eye = np.eye(3)[None]
    R = eye + A[:, None, None] * S + B[:, None, None] * S2
    V = eye + B[:, None, None] * S + C[:, None, None] * S2
    return R, V


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


def _prefix(P, axis):
    """Inclusive prefix products along ``axis``: out[k] = P[k] @ ... @ P[0]."""
    out = P.copy()
    n = out.shape[axis]
    lead = (slice(None),) * axis
    step = 1
    while step < n:
        hi, lo = lead + (slice(step, None),), lead + (slice(None, n - step),)
        out[hi] = np.matmul(out[hi], out[lo])
        step *= 2
    return out


def magnus_frame_step(c1, c2, t1, t2, h):
    """One Magnus-4 step of the frame system, batched over steps.

    ``c1, c2, t1, t2`` are curvature and torsion at the two Gauss nodes and
    ``h`` the step (a scalar, or one per row).  Returns (R, wV): the exact
    rotation that advances the frame rows, R @ F, and the position
    increment in frame coordinates, wV @ F.
    """
    h = np.asarray(h, dtype=float)
    hc = h[..., None]
    z = np.zeros_like(c1)
    v1 = np.stack([-t1, z, -c1], axis=1)
    v2 = np.stack([-t2, z, -c2], axis=1)
    omega = (hc / 2) * (v1 + v2) + (np.sqrt(3.0) * hc * hc / 12) * np.cross(v2, v1)
    R, V = rodrigues_phi1(omega)
    w = np.zeros_like(omega)
    w[:, 0] = h
    w[:, 1] = (np.sqrt(3.0) * h * h / 12) * (c1 - c2)
    return R, np.einsum("ni,nij->nj", w, V)


def _stage_coeffs(fn, s):
    vals = np.asarray(fn(s), dtype=float)
    if vals.ndim == 0:
        vals = np.full(s.shape, float(vals))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteCoefficient("coefficient evaluated non-finite on the span")
    return vals


def _plan(s0, s1, step, out_every, max_steps):
    """Uniform fine grid over [s0, s1] in whole output blocks.

    Returns (h, m, s_out, chunks): the fine step, the fine steps per output
    block, the output nodes and an iterator of (b0, bc, sk), the first block,
    the block count and the fine-step start points of each chunk of at most
    ``_CHUNK`` steps.
    """
    span = s1 - s0
    if span == 0:
        raise InvalidParameter("empty span")
    m = max(1, int(out_every))
    n_blocks = max(1, int(np.ceil(abs(span) / (step * m))))
    h = span / (n_blocks * m)
    n_steps = n_blocks * m
    if max_steps is not None and n_steps > max_steps:
        raise StepLimitExceeded(
            f"{n_steps} steps needed for span {span:g} at step {step:g}"
        )
    s_out = s0 + h * m * np.arange(n_blocks + 1)
    blocks_per_chunk = max(1, _CHUNK // m)

    def chunks():
        for b0 in range(0, n_blocks, blocks_per_chunk):
            bc = min(blocks_per_chunk, n_blocks - b0)
            yield b0, bc, s0 + (b0 * m + np.arange(bc * m)) * h

    return h, m, s_out, chunks()


def propagate_frame(c_fn, tau_fn, s0, s1, frame0, *, step, out_every,
                    position0=None, max_steps=None):
    """Propagate the Frenet frame system, optionally with the curve point.

    State rows are (T, n, b) (and G when position0 is given); the system is
    linear with coefficient rows T'=c n, n'=-c T + tau b, b'=-tau n, G'=T.
    Returns (s_out, frames, points) with outputs every ``out_every`` fine
    steps, s_out[0] = s0.  Every step is an exact rotation, so the frames
    stay orthonormal to roundoff without renormalization.
    """
    h, m, s_out, chunks = _plan(s0, s1, step, out_every, max_steps)
    F = np.array(frame0, dtype=float)
    G = None if position0 is None else np.array(position0, dtype=float)
    frames = np.empty((len(s_out), 3, 3))
    frames[0] = F
    points = None
    if G is not None:
        points = np.empty((len(s_out), 3))
        points[0] = G

    for b0, bc, sk in chunks:
        sg1, sg2 = sk + GAUSS_C1 * h, sk + GAUSS_C2 * h
        c1, c2 = _stage_coeffs(c_fn, sg1), _stage_coeffs(c_fn, sg2)
        t1, t2 = _stage_coeffs(tau_fn, sg1), _stage_coeffs(tau_fn, sg2)
        R, wV = magnus_frame_step(c1, c2, t1, t2, h)
        Q = _prefix(R.reshape(bc, m, 3, 3), axis=1)
        Pblk = _prefix(Q[:, -1], axis=0)
        frames[b0 + 1 : b0 + bc + 1] = Pblk @ F
        if G is not None:
            Qs = np.empty((bc, m, 3, 3))
            Qs[:, 0] = np.eye(3)
            Qs[:, 1:] = Q[:, :-1]
            Sblk = np.einsum("bki,bkij->bj", wV.reshape(bc, m, 3), Qs)
            Pprev = np.empty((bc, 3, 3))
            Pprev[0] = np.eye(3)
            Pprev[1:] = Pblk[:-1]
            rows = np.einsum("bi,bij->bj", Sblk, Pprev)
            points[b0 + 1 : b0 + bc + 1] = G + np.cumsum(rows @ F, axis=0)
            G = points[b0 + bc]
        F = frames[b0 + bc]
    return s_out, frames, points


def propagate_linear2(afn, s0, s1, y0, *, step, out_every, max_steps=None):
    """Propagate a 2-dim complex linear system y' = A(s) y.

    ``afn(s_array) -> (N,2,2)`` complex.  Returns (s_out, Y) with Y[k] the
    state at s_out[k]; outputs every ``out_every`` fine steps.
    """
    h, m, s_out, chunks = _plan(s0, s1, step, out_every, max_steps)
    y = np.array(y0, dtype=complex)
    out = np.empty((len(s_out), 2), dtype=complex)
    out[0] = y
    for b0, bc, sk in chunks:
        A1 = afn(sk + GAUSS_C1 * h)
        A2 = afn(sk + GAUSS_C2 * h)
        P = expm2(magnus_omega(A1, A2, h))
        if not np.all(np.isfinite(P.view(float))):
            raise NonFiniteCoefficient("propagator became non-finite")
        Q = _prefix(P.reshape(bc, m, 2, 2), axis=1)
        Pblk = _prefix(Q[:, -1], axis=0)
        out[b0 + 1 : b0 + bc + 1] = np.einsum("bij,j->bi", Pblk, y)
        y = out[b0 + bc]
    return s_out, out


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
