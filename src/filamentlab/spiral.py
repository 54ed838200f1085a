"""Rotating self-similar solutions.

chi(s,t) = exp((A/2) log t) sqrt(t) G(s/sqrt(t)) with A antisymmetric (mu in
the xy block) forces the profile equation G'' = (1/2)(I+A) G x G' with the
compatibility constraint (I+A)G(0) . G'(0) = 0.  Along any profile
|T'|^2 + mu T_3 + nu = 0 with nu = -mu T_3(0) - |(I+A)G(0)|^2/4, and the
reduced scalar description lives in (y, h) = (d c^2/ds, c^2 (tau - s/2)),
bridged to the complex profile equation f'' + i(s/2) f' + (f/2)(|f|^2+nu)=0
by  conj(f) f' = y/2 + i h.

All three ODEs (``spiral_profile``, ``yh_evolve``, ``f_solve``) run on one
fixed-step RK4 driver, ``_rk4_scalar``.  It plans whole output blocks with
the package's one planner, ``integrators._plan`` (which validates the span
and the step budget ``SolverConfig.max_steps``), checks the initial state,
and calls the equation's step body once per block.  Each body is a fused
loop on local floats: the four stages are written out, with no
right-hand-side call and no tuple per stage, in the same evaluation order as
the plain RK4 formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolated, InvalidParameter
from .geometry import Curve, SolverConfig
from .integrators import _plan, two_sided
from .selfsimilar import _hermite_eval

CONSTRAINT_TOL = 1e-10


def _amatrix(mu):
    return np.array([[0.0, -mu, 0.0], [mu, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass
class SpiralParams:
    mu: float
    G0: np.ndarray
    T0: np.ndarray
    nu: float = field(init=False)
    E0: float = field(init=False)
    c0_sq: float = field(init=False)
    y0: float = field(init=False)
    h0: float = field(init=False)

    def __post_init__(self):
        self.G0 = np.asarray(self.G0, dtype=float)
        self.T0 = np.asarray(self.T0, dtype=float)
        if not (math.isfinite(self.mu) and np.all(np.isfinite(self.G0))
                and np.all(np.isfinite(self.T0))):
            raise InvalidParameter("mu, G0 and T0 must be finite")
        if abs(np.linalg.norm(self.T0) - 1.0) > 1e-10:
            raise ConstraintViolated("|T0| must be 1")
        IA = np.eye(3) + _amatrix(self.mu)
        w = IA @ self.G0
        if abs(np.dot(w, self.T0)) > CONSTRAINT_TOL:
            raise ConstraintViolated("(I+A) G0 . T0 must vanish")
        self.nu = float(-self.mu * self.T0[2] - 0.25 * np.dot(w, w))
        # initial values of the reduced variables, from the profile equation
        m0 = 0.5 * w
        Tp = np.cross(m0, self.T0)                      # T'(0)
        mp = 0.5 * (IA @ self.T0)                       # m'(0)
        Tpp = np.cross(mp, self.T0) + np.cross(m0, Tp)  # T''(0)
        self.c0_sq = float(np.dot(Tp, Tp))
        self.y0 = float(2 * np.dot(Tp, Tpp))
        self.h0 = float(np.dot(np.cross(self.T0, Tp), Tpp))
        if self.c0_sq > 1e-14:
            self.E0 = float(
                (self.y0**2 / 4 + self.h0**2) / self.c0_sq
                + (self.c0_sq + self.nu) ** 2 / 4
            )
        else:
            self.E0 = float((self.c0_sq + self.nu) ** 2 / 4)


@dataclass
class SpiralProfileResult:
    params: SpiralParams
    curve: Curve           # frames attached where curvature resolves
    c_sq: np.ndarray       # |T'|^2 at the grid nodes
    y: np.ndarray          # d|T'|^2/ds = 2 T'.T'' at the grid nodes
    tau: np.ndarray        # torsion at the grid nodes (NaN where c ~ 0)

    def rotation_invariant_defect(self):
        T3 = self.curve.frames[:, 0, 2]
        return float(np.max(np.abs(self.c_sq + self.params.mu * T3 + self.params.nu)))

    def unit_speed_defect(self):
        T = self.curve.frames[:, 0]
        return float(np.max(np.abs(np.linalg.norm(T, axis=1) - 1.0)))


def _rk4_scalar(advance, y0, s0, s1, cfg):
    """Fixed-step RK4 driver shared by the scalar solvers of this module.

    Plans the fine steps over [s0, s1] with ``integrators._plan``, in output
    blocks of m = ``cfg.renorm_every`` steps of at most ``cfg.step``, and
    calls ``advance(y, s, h, m)`` once per block: it runs m RK4 steps of size
    h from the state tuple y at s and returns (y, s) at the block end.
    Returns (s_nodes, out) with the state at every block end in the rows of
    out, row 0 the initial state.
    """
    h, m, s_nodes, _ = _plan(s0, s1, cfg.step, cfg.renorm_every, cfg.max_steps)
    y0 = np.asarray(y0)
    if not np.all(np.isfinite(y0)):
        raise InvalidParameter("initial state must be finite")
    out = np.empty((len(s_nodes), len(y0)), dtype=y0.dtype)
    out[0] = y0
    y, s = tuple(y0.tolist()), s0
    for b in range(1, len(s_nodes)):
        y, s = advance(y, s, h, m)
        out[b] = y
    return s_nodes, out


def _profile_block(mu, state, s, h, m):
    """m RK4 steps of G' = T, T' = M x T with M = (1/2)(I+A)G (autonomous)."""
    gx, gy, gz, tx, ty, tz = state
    h2, h6 = h / 2, h / 6
    for _ in range(m):
        # stage 1: k1 = (T, a), a = M(G) x T
        mx = 0.5 * (gx - mu * gy)
        my = 0.5 * (mu * gx + gy)
        mz = 0.5 * gz
        ax = my * tz - mz * ty
        ay = mz * tx - mx * tz
        az = mx * ty - my * tx
        # stage 2 at (G + h2 T, u = T + h2 a): k2 = (u, b)
        px = gx + h2 * tx
        py = gy + h2 * ty
        pz = gz + h2 * tz
        ux = tx + h2 * ax
        uy = ty + h2 * ay
        uz = tz + h2 * az
        mx = 0.5 * (px - mu * py)
        my = 0.5 * (mu * px + py)
        mz = 0.5 * pz
        bx = my * uz - mz * uy
        by = mz * ux - mx * uz
        bz = mx * uy - my * ux
        # stage 3 at (G + h2 u, v = T + h2 b): k3 = (v, c)
        px = gx + h2 * ux
        py = gy + h2 * uy
        pz = gz + h2 * uz
        vx = tx + h2 * bx
        vy = ty + h2 * by
        vz = tz + h2 * bz
        mx = 0.5 * (px - mu * py)
        my = 0.5 * (mu * px + py)
        mz = 0.5 * pz
        cx = my * vz - mz * vy
        cy = mz * vx - mx * vz
        cz = mx * vy - my * vx
        # stage 4 at (G + h v, w = T + h c): k4 = (w, d)
        px = gx + h * vx
        py = gy + h * vy
        pz = gz + h * vz
        wx = tx + h * cx
        wy = ty + h * cy
        wz = tz + h * cz
        mx = 0.5 * (px - mu * py)
        my = 0.5 * (mu * px + py)
        mz = 0.5 * pz
        dx = my * wz - mz * wy
        dy = mz * wx - mx * wz
        dz = mx * wy - my * wx
        gx = gx + h6 * (tx + 2.0 * ux + 2.0 * vx + wx)
        gy = gy + h6 * (ty + 2.0 * uy + 2.0 * vy + wy)
        gz = gz + h6 * (tz + 2.0 * uz + 2.0 * vz + wz)
        tx = tx + h6 * (ax + 2.0 * bx + 2.0 * cx + dx)
        ty = ty + h6 * (ay + 2.0 * by + 2.0 * cy + dy)
        tz = tz + h6 * (az + 2.0 * bz + 2.0 * cz + dz)
    return (gx, gy, gz, tx, ty, tz), s + m * h


def _integrate_dir(params, s_end, cfg):
    """Scalar RK4 on (G, T) from s = 0; T' = (1/2)(I+A)G x T keeps the run light."""
    mu = params.mu
    s, out = _rk4_scalar(lambda y, s, h, m: _profile_block(mu, y, s, h, m),
                         (*params.G0.tolist(), *params.T0.tolist()), 0.0, s_end, cfg)
    return s, out[:, :3], out[:, 3:]


def spiral_profile(params, s_span, cfg=None):
    """Integrate the profile equation over s_span (must contain 0).

    Frames are assembled algebraically: n = T'/|T'|, b = T x n with
    T' = (1/2)(I+A)G x T evaluated pointwise.
    """
    if not isinstance(params, SpiralParams):
        raise InvalidParameter("params must be SpiralParams")
    s_lo, s_hi = float(s_span[0]), float(s_span[1])
    if s_lo > 0 or s_hi < 0:
        raise InvalidParameter("s_span must contain 0 (initial data lives there)")
    cfg = cfg or SolverConfig(step=3e-4, renorm_every=32)
    s, G, T = two_sided(
        lambda end: _integrate_dir(params, end, cfg),
        s_lo, s_hi,
    )
    mu = params.mu
    IA = np.eye(3) + _amatrix(mu)
    mvec = 0.5 * (G @ IA.T)
    Tp = np.cross(mvec, T)
    c_sq = np.sum(Tp * Tp, axis=1)
    c = np.sqrt(c_sq)
    ok = c > 1e-9
    nvec = np.full_like(T, np.nan)
    nvec[ok] = Tp[ok] / c[ok, None]
    bvec = np.cross(T, nvec)
    frames = np.stack([T, nvec, bvec], axis=1)
    # torsion tau = (T x T').T'' / |T'|^2 ; T'' = m' x T + m x T', m' = (I+A)T/2
    mp = 0.5 * (T @ IA.T)
    Tpp = np.cross(mp, T) + np.cross(mvec, Tp)
    tau = np.full(len(s), np.nan)
    tau[ok] = np.einsum("ij,ij->i", np.cross(T[ok], Tp[ok]), Tpp[ok]) / c_sq[ok]
    y = 2 * np.einsum("ij,ij->i", Tp, Tpp)
    return SpiralProfileResult(params, Curve(s, G, frames), c_sq, y, tau)


def g_of(x, nu, E0):
    """Coupling term of the reduced system: 2E(0) - (3x+nu)(x+nu)/2."""
    return 2 * E0 - (3 * x + nu) * (x + nu) / 2


def _yh_block(nu, E0, state, s, h, m):
    """m RK4 steps of x' = y, y' = s h + g(x), h' = -(s/4) y (g_of inlined)."""
    x, y, hh = state
    h2, h6 = h / 2, h / 6
    e2 = 2 * E0
    for _ in range(m):
        k1y = s * hh + (e2 - (3.0 * x + nu) * (x + nu) / 2.0)
        k1h = -(s / 4.0) * y
        x2, y2, hh2, s2 = x + h2 * y, y + h2 * k1y, hh + h2 * k1h, s + h2
        k2y = s2 * hh2 + (e2 - (3.0 * x2 + nu) * (x2 + nu) / 2.0)
        q2 = -(s2 / 4.0)
        k2h = q2 * y2
        x3, y3, hh3 = x + h2 * y2, y + h2 * k2y, hh + h2 * k2h
        k3y = s2 * hh3 + (e2 - (3.0 * x3 + nu) * (x3 + nu) / 2.0)
        k3h = q2 * y3
        x4, y4, hh4, s4 = x + h * y3, y + h * k3y, hh + h * k3h, s + h
        k4y = s4 * hh4 + (e2 - (3.0 * x4 + nu) * (x4 + nu) / 2.0)
        k4h = -(s4 / 4.0) * y4
        x += h6 * (y + 2.0 * y2 + 2.0 * y3 + y4)
        y += h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        hh += h6 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        s += h
    return (x, y, hh), s


def yh_evolve(y0, h0, nu, E0, s_span, cfg=None, *, x0):
    """Reduced system x' = y, y' = s h + g(x), h' = -(s/4) y from s_span[0].

    ``x0`` supplies |T'|^2 at the starting point (the system only sees its
    derivative y, so the level must be given).  Returns (s, x, y, h) arrays.
    """
    cfg = cfg or SolverConfig(step=2e-4, renorm_every=50)
    nu, E0 = float(nu), float(E0)
    if not (math.isfinite(nu) and math.isfinite(E0)):
        raise InvalidParameter("nu and E0 must be finite")
    s, out = _rk4_scalar(lambda y, s, h, m: _yh_block(nu, E0, y, s, h, m),
                         (float(x0), float(y0), float(h0)),
                         float(s_span[0]), float(s_span[1]), cfg)
    return s, out[:, 0], out[:, 1], out[:, 2]


def _f_block(nu, state, s, h, m):
    """m RK4 steps of f' = g, g' = -i(s/2) g - (f/2)(|f|^2 + nu)."""
    f, g = state
    h2, h6 = h / 2, h / 6
    for _ in range(m):
        k1g = -0.5j * s * g - 0.5 * f * (abs(f) ** 2 + nu)
        f2, g2, s2 = f + h2 * g, g + h2 * k1g, s + h2
        j2 = -0.5j * s2
        k2g = j2 * g2 - 0.5 * f2 * (abs(f2) ** 2 + nu)
        f3, g3 = f + h2 * g2, g + h2 * k2g
        k3g = j2 * g3 - 0.5 * f3 * (abs(f3) ** 2 + nu)
        f4, g4, s4 = f + h * g3, g + h * k3g, s + h
        k4g = -0.5j * s4 * g4 - 0.5 * f4 * (abs(f4) ** 2 + nu)
        f += h6 * (g + 2 * g2 + 2 * g3 + g4)
        g += h6 * (k1g + 2 * k2g + 2 * k3g + k4g)
        s += h
    return (f, g), s


def f_solve(f0, f0_prime, nu, s_span, cfg=None):
    """Complex profile equation f'' + i(s/2) f' + (f/2)(|f|^2 + nu) = 0.

    Initial data at s_span[0]; returns (s, f, f') arrays.  The conserved
    energy is |f'|^2 + (|f|^2 + nu)^2 / 4.
    """
    cfg = cfg or SolverConfig(step=2.5e-4, renorm_every=64)
    nu = float(nu)
    if not math.isfinite(nu):
        raise InvalidParameter("nu must be finite")
    s, out = _rk4_scalar(lambda y, s, h, m: _f_block(nu, y, s, h, m),
                         (complex(f0), complex(f0_prime)),
                         float(s_span[0]), float(s_span[1]), cfg)
    return s, out[:, 0], out[:, 1]


def f_energy(f, fp, nu):
    return np.abs(fp) ** 2 + 0.25 * (np.abs(f) ** 2 + nu) ** 2


def rotation_log(mu, t):
    """exp((A/2) log t): rotation by (mu/2) log t in the xy plane."""
    phi = 0.5 * mu * math.log(t)
    cph, sph = math.cos(phi), math.sin(phi)
    return np.array([[cph, -sph, 0.0], [sph, cph, 0.0], [0.0, 0.0, 1.0]])


def spiral_chi(params, profile_curve, s, t):
    """chi(s,t) = exp((A/2) log t) sqrt(t) G(s/sqrt(t)) for t > 0."""
    if t <= 0:
        raise InvalidParameter("t must be positive")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    rt = math.sqrt(t)
    sigma = s / rt
    grid = profile_curve.s_grid
    if sigma.min() < grid[0] - 1e-12 or sigma.max() > grid[-1] + 1e-12:
        from .errors import OutOfProfileRange

        raise OutOfProfileRange("s/sqrt(t) outside the computed profile span")
    G = _hermite_eval(profile_curve, sigma)
    out = rt * (G @ rotation_log(params.mu, t).T)
    return out[0] if scalar else out
