"""Rotating self-similar solutions.

chi(s,t) = exp((A/2) log t) sqrt(t) G(s/sqrt(t)) with A antisymmetric (mu in
the xy block) forces the profile equation G'' = (1/2)(I+A) G x G' with the
compatibility constraint (I+A)G(0) . G'(0) = 0.  Along any profile
|T'|^2 + mu T_3 + nu = 0 with nu = -mu T_3(0) - |(I+A)G(0)|^2/4, and the
reduced scalar description lives in (y, h) = (d c^2/ds, c^2 (tau - s/2)),
bridged to the complex profile equation f'' + i(s/2) f' + (f/2)(|f|^2+nu)=0
by  conj(f) f' = y/2 + i h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolated, InvalidParameter
from .geometry import Curve, SolverConfig
from .integrators import two_sided
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


def _rhs(G, T, mu):
    gx, gy, gz = G
    tx, ty, tz = T
    mx = 0.5 * (gx - mu * gy)
    my = 0.5 * (mu * gx + gy)
    mz = 0.5 * gz
    return (tx, ty, tz), (my * tz - mz * ty, mz * tx - mx * tz, mx * ty - my * tx)


def _integrate_dir(params, s_end, h, out_every):
    """Scalar RK4 on (G, T); T' = (1/2)(I+A)G x T keeps the run light."""
    mu = params.mu
    n = max(1, int(math.ceil(abs(s_end) / (h * out_every)))) * out_every
    h = s_end / n
    h2, h6 = h / 2, h / 6
    G = tuple(map(float, params.G0))
    T = tuple(map(float, params.T0))
    n_out = n // out_every
    out_G = np.empty((n_out + 1, 3))
    out_T = np.empty((n_out + 1, 3))
    out_G[0], out_T[0] = G, T
    for k in range(n):
        k1G, k1T = _rhs(G, T, mu)
        G2 = (G[0] + h2 * k1G[0], G[1] + h2 * k1G[1], G[2] + h2 * k1G[2])
        T2 = (T[0] + h2 * k1T[0], T[1] + h2 * k1T[1], T[2] + h2 * k1T[2])
        k2G, k2T = _rhs(G2, T2, mu)
        G3 = (G[0] + h2 * k2G[0], G[1] + h2 * k2G[1], G[2] + h2 * k2G[2])
        T3 = (T[0] + h2 * k2T[0], T[1] + h2 * k2T[1], T[2] + h2 * k2T[2])
        k3G, k3T = _rhs(G3, T3, mu)
        G4 = (G[0] + h * k3G[0], G[1] + h * k3G[1], G[2] + h * k3G[2])
        T4 = (T[0] + h * k3T[0], T[1] + h * k3T[1], T[2] + h * k3T[2])
        k4G, k4T = _rhs(G4, T4, mu)
        G = (G[0] + h6 * (k1G[0] + 2 * k2G[0] + 2 * k3G[0] + k4G[0]),
             G[1] + h6 * (k1G[1] + 2 * k2G[1] + 2 * k3G[1] + k4G[1]),
             G[2] + h6 * (k1G[2] + 2 * k2G[2] + 2 * k3G[2] + k4G[2]))
        T = (T[0] + h6 * (k1T[0] + 2 * k2T[0] + 2 * k3T[0] + k4T[0]),
             T[1] + h6 * (k1T[1] + 2 * k2T[1] + 2 * k3T[1] + k4T[1]),
             T[2] + h6 * (k1T[2] + 2 * k2T[2] + 2 * k3T[2] + k4T[2]))
        if (k + 1) % out_every == 0:
            out_G[(k + 1) // out_every] = G
            out_T[(k + 1) // out_every] = T
    s_nodes = np.linspace(0.0, n * h, n_out + 1)
    return s_nodes, out_G, out_T


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
        lambda end: _integrate_dir(params, end, cfg.step, cfg.renorm_every),
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


def yh_evolve(y0, h0, nu, E0, s_span, cfg=None, *, x0):
    """Reduced system x' = y, y' = s h + g(x), h' = -(s/4) y from s_span[0].

    ``x0`` supplies |T'|^2 at the starting point (the system only sees its
    derivative y, so the level must be given).  Returns (s, x, y, h) arrays.
    """
    cfg = cfg or SolverConfig(step=2e-4, renorm_every=50)
    s0, s1 = float(s_span[0]), float(s_span[1])
    step, m = cfg.step, cfg.renorm_every
    n = max(1, int(math.ceil(abs(s1 - s0) / (step * m)))) * m
    h = (s1 - s0) / n
    x, y, hh = float(x0), float(y0), float(h0)
    s = s0
    n_out = n // m
    out = np.empty((n_out + 1, 3))
    out[0] = x, y, hh
    h2, h6 = h / 2, h / 6
    for k in range(n):
        k1 = (y, s * hh + g_of(x, nu, E0), -(s / 4) * y)
        x2, y2, hh2, s2 = x + h2 * k1[0], y + h2 * k1[1], hh + h2 * k1[2], s + h2
        k2 = (y2, s2 * hh2 + g_of(x2, nu, E0), -(s2 / 4) * y2)
        x3, y3, hh3 = x + h2 * k2[0], y + h2 * k2[1], hh + h2 * k2[2]
        k3 = (y3, s2 * hh3 + g_of(x3, nu, E0), -(s2 / 4) * y3)
        x4, y4, hh4, s4 = x + h * k3[0], y + h * k3[1], hh + h * k3[2], s + h
        k4 = (y4, s4 * hh4 + g_of(x4, nu, E0), -(s4 / 4) * y4)
        x += h6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        hh += h6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        s += h
        if (k + 1) % m == 0:
            out[(k + 1) // m] = x, y, hh
    s_nodes = np.linspace(s0, s0 + n * h, n_out + 1)
    return s_nodes, out[:, 0], out[:, 1], out[:, 2]


def f_solve(f0, f0_prime, nu, s_span, cfg=None):
    """Complex profile equation f'' + i(s/2) f' + (f/2)(|f|^2 + nu) = 0.

    Initial data at s_span[0]; returns (s, f, f') arrays.  The conserved
    energy is |f'|^2 + (|f|^2 + nu)^2 / 4.
    """
    cfg = cfg or SolverConfig(step=2.5e-4, renorm_every=64)
    s0, s1 = float(s_span[0]), float(s_span[1])
    step, m = cfg.step, cfg.renorm_every
    n = max(1, int(math.ceil(abs(s1 - s0) / (step * m)))) * m
    h = (s1 - s0) / n
    f, g = complex(f0), complex(f0_prime)
    s = s0
    n_out = n // m
    out = np.empty((n_out + 1, 2), dtype=complex)
    out[0] = f, g
    h2, h6 = h / 2, h / 6
    for k in range(n):
        k1f = g
        k1g = -0.5j * s * g - 0.5 * f * (abs(f) ** 2 + nu)
        f2, g2, s2 = f + h2 * k1f, g + h2 * k1g, s + h2
        k2f = g2
        k2g = -0.5j * s2 * g2 - 0.5 * f2 * (abs(f2) ** 2 + nu)
        f3, g3 = f + h2 * k2f, g + h2 * k2g
        k3f = g3
        k3g = -0.5j * s2 * g3 - 0.5 * f3 * (abs(f3) ** 2 + nu)
        f4, g4, s4 = f + h * k3f, g + h * k3g, s + h
        k4f = g4
        k4g = -0.5j * s4 * g4 - 0.5 * f4 * (abs(f4) ** 2 + nu)
        f += h6 * (k1f + 2 * k2f + 2 * k3f + k4f)
        g += h6 * (k1g + 2 * k2g + 2 * k3g + k4g)
        s += h
        if (k + 1) % m == 0:
            out[(k + 1) // m] = f, g
    s_nodes = np.linspace(s0, s0 + n * h, n_out + 1)
    return s_nodes, out[:, 0], out[:, 1]


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
