"""Frame recovery through the second-order complex reduction.

For a curve with curvature c > 0 and torsion tau, each Cartesian component
of the frame comes from a solution of

    theta'' + (-c'/c + i tau) theta' + (c^2/4) theta = 0,

via  T_j = 1 - |theta_j|^2 / (2 E(0))  and  c (n_j - i b_j) = -theta_j
conj(theta_j') / E(0),  where  E(s) = |theta'/c|^2 + |theta|^2/4  is
conserved.  In the energy-normalised pair w = (theta/2, theta'/c) the
reduction reads  w' = [[0, c/2], [-c/2, -i tau]] w:  the coefficient is
skew-Hermitian and holds no c', so each Magnus step is unitary and keeps
E = |w|^2 to roundoff (Iserles & Norsett 1999).  This gives an integration
route entirely independent of the 3x3 Frenet system, and in the
self-similar case (c = a, tau = s/2) an independent computation of the
limit tangent component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvatureVanishes, EnergyDegenerate, GridMismatch, InvalidParameter
from .geometry import SolverConfig, FrameTrajectory
from .integrators import propagate_linear2

TOL_C = 1e-6


@dataclass(frozen=True)
class ThetaState:
    theta: complex
    theta_prime: complex


@dataclass
class ThetaTrajectory:
    s: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray


def energy(traj, c):
    """Conserved quantity E(s) = |theta'/c|^2 + |theta|^2 / 4 along a trajectory."""
    cv = np.asarray(c(traj.s), dtype=float)
    return np.abs(traj.theta_prime / cv) ** 2 + np.abs(traj.theta) ** 2 / 4


def energy_drift(traj, c):
    E = energy(traj, c)
    return float(np.max(np.abs(E - E[0])) / abs(E[0]))


def theta_solve(c, tau, init, s_span, cfg=None):
    """Integrate the reduction over s_span from ``init`` at s_span[0].

    Runs on w = (theta/2, theta'/c) and returns theta = 2 w_1 and
    theta' = c w_2 on the output nodes; ``c`` must stay positive on the span.
    """
    cfg = cfg or SolverConfig()

    def cval(s):
        cv = np.asarray(c(s), dtype=float)
        if np.any(cv <= TOL_C):
            raise CurvatureVanishes("c must stay above threshold on the span")
        return cv

    def afn(s):
        A = np.zeros((len(s), 2, 2), dtype=complex)
        A[:, 0, 1] = cval(s) / 2
        A[:, 1, 0] = -A[:, 0, 1]
        A[:, 1, 1] = -1j * np.asarray(tau(s), dtype=float)
        return A

    s0 = float(s_span[0])
    s_out, W = propagate_linear2(
        afn, s0, float(s_span[1]),
        np.array([init.theta / 2, init.theta_prime / cval(s0)], dtype=complex),
        step=cfg.step, out_every=cfg.renorm_every, max_steps=cfg.max_steps,
    )
    return ThetaTrajectory(s_out, 2 * W[:, 0], cval(s_out) * W[:, 1])


def canonical_initial_data(c0):
    """The three initial states recovering T = e1, n = e2, b = e3 at s = 0.

    Each has E(0) = 1/2 exactly: theta_1 = (0, c/sqrt2), theta_2 = (1, -c/2),
    theta_3 = (i, c/2).
    """
    return (
        ThetaState(0.0, c0 / np.sqrt(2.0)),
        ThetaState(1.0, -c0 / 2.0),
        ThetaState(1j, c0 / 2.0),
    )


def frame_from_theta(traj1, traj2, traj3, c, E0):
    """Assemble (T, n, b) componentwise from three theta trajectories."""
    if E0 <= 1e-12:
        raise EnergyDegenerate("E0 must be positive")
    trajs = (traj1, traj2, traj3)
    s = traj1.s
    for t in trajs[1:]:
        if len(t.s) != len(s) or np.max(np.abs(t.s - s)) > 1e-12 * max(1, np.max(np.abs(s))):
            raise GridMismatch("theta trajectories must share the s grid")
    cv = np.asarray(c(s), dtype=float)
    T = np.stack([1 - np.abs(t.theta) ** 2 / (2 * E0) for t in trajs], axis=1)
    prod = [t.theta * np.conj(t.theta_prime) for t in trajs]
    n = np.stack([-np.real(p) / (E0 * cv) for p in prod], axis=1)
    b = np.stack([np.imag(p) / (E0 * cv) for p in prod], axis=1)
    frames = np.stack([T, n, b], axis=1)
    return FrameTrajectory(s, frames)


@dataclass
class A1Estimate:
    a1: float
    spread: float
    energy_drift: float


def a1_from_theta(a, s_max):
    """Limit tangent component by the theta route (self-similar case).

    Integrates theta'' + i(s/2) theta' + (a^2/4) theta = 0 from
    theta(0) = 0, theta'(0) = a/sqrt2 and averages T_1 = 1 - |theta|^2 over
    the window [s_max/2, s_max]; the half-spread of T_1 on the window is the
    reported uncertainty.
    """
    if not (math.isfinite(a) and a > 0):
        raise InvalidParameter("a must be finite and positive for the theta route")
    if not (math.isfinite(s_max) and s_max > 0):
        raise InvalidParameter(f"s_max must be finite and positive, got {s_max}")
    traj = theta_solve(
        lambda s: np.full(np.shape(s), float(a)),
        lambda s: s / 2,
        ThetaState(0.0, a / np.sqrt(2.0)),
        (0.0, float(s_max)),
        SolverConfig(step=4e-3, renorm_every=8),
    )
    T1 = 1 - np.abs(traj.theta) ** 2
    win = traj.s >= s_max / 2
    a1 = float(np.mean(T1[win]))
    spread = float(0.5 * (np.max(T1[win]) - np.min(T1[win])))
    drift = energy_drift(traj, lambda s: np.full(np.shape(s), float(a)))
    return A1Estimate(a1, spread, drift)
