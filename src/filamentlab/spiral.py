"""Rotating self-similar solutions.

chi(s,t) = exp((A/2) log t) sqrt(t) G(s/sqrt(t)) with A antisymmetric (mu in
the xy block) forces the profile equation G'' = (1/2)(I+A) G x G' with the
compatibility constraint (I+A)G(0) . G'(0) = 0.  Along any profile
|T'|^2 + mu T_3 + nu = 0 with nu = -mu T_3(0) - |(I+A)G(0)|^2/4.  The
profile's c^2 = |T'|^2, y = d c^2/ds and torsion tau bridge it to the
complex profile equation f'' + i(s/2) f' + (f/2)(|f|^2+nu) = 0: the f with
f(0) = c(0) and conj(f) f' = y/2 + i c^2 (tau - s/2) at s = 0 keeps
|f|^2 = c^2 and conj(f) f' = y/2 + i c^2 (tau - s/2) at every s.

Both ODEs (``spiral_profile``, ``f_solve``) run on one fixed-step driver,
``_fixed_step``, with the 12-stage 8th-order Dormand-Prince tableau
(DOP853) and no step control, each on its own constant grid: the profile on
``_GRID``, which ``spiral_chi`` steps on, and f on ``_F_GRID``.  The driver
plans whole output blocks with the package's one planner,
``integrators._plan`` (which validates the step, the block, the span and
the step budget) and checks the initial state at once; the run it returns
calls the equation's step body once per block and refuses a state that
overflows.  Each body is a fused loop on local floats, generated once on
first use (``_body``) from the tableau and a short right-hand-side
template: the twelve stages are written out, with no right-hand-side call
and no tuple per stage.

The rotating profile has no mirror symmetry, so its two sides of s = 0 are
two independent runs.  ``spiral_profile`` plans and checks both, then, when
this process may run on two CPUs and each side has at least
``_MIN_SIDE_STEPS`` fine steps (about one fork round trip), integrates the
s <= 0 side in one forked worker (``dataio._beside``) while it integrates
the s >= 0 side itself.  The result is bit-identical to the serial run.
``selfsimilar.profile``, which holds one half, and the stability slices of
``flow``, which call ``integrators.two_sided`` directly, fork nothing.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .errors import (ConstraintViolated, InvalidParameter, NonFiniteCoefficient,
                     OutOfProfileRange)
from .geometry import Curve
from .integrators import _plan, two_sided
from .selfsimilar import _PIECE, _sigma

CONSTRAINT_TOL = 1e-10
# fine steps per side at least before the two sides run at once: a fork,
# pipe and reap round trip costs about 2.4 ms, some 150 DOP853 steps
_MIN_SIDE_STEPS = 150
_GRID = (4.8e-3, 2)  # (step, out_every) of every rotating profile
_F_GRID = (1.6e-2 / 3, 3)  # (step, out_every) of every f_solve run


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

    # data whose products overflow give a non-finite E0, refused at the end
    @np.errstate(over="ignore", invalid="ignore")
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
        try:
            if self.c0_sq > 1e-14:
                self.E0 = float(
                    (self.y0**2 / 4 + self.h0**2) / self.c0_sq
                    + (self.c0_sq + self.nu) ** 2 / 4
                )
            else:
                self.E0 = float((self.c0_sq + self.nu) ** 2 / 4)
        except OverflowError:  # a float power that overflows raises
            self.E0 = math.inf
        if not math.isfinite(self.E0):
            raise InvalidParameter(
                f"mu = {self.mu:g}, G0 and T0 give a non-finite energy E0")


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


# The 12-stage 8th-order Runge-Kutta method of Dormand & Prince (Prince &
# Dormand, J. Comput. Appl. Math. 1981; Hairer, Norsett & Wanner, Solving
# ODEs I, II.10), used at a fixed step: the nodes C, the nonzero entries of
# each row of A, and the weights B.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
)
_B = {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
      7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
      10: 0.20136540080403034, 11: 0.04471061572777259}


@functools.cache
def _body(rhs):
    """The fused block of m fixed DOP853 steps for one right-hand side.

    ``rhs`` is (parameters, state names, auxiliary lines, derivatives): the
    derivative of each state name is an expression in the state names, the
    parameters, s and the auxiliary names.  The generated function
    ``block(state, s, h, m, *parameters)`` writes every stage out on local
    floats -- stage i renames each state name v and s to vi and si, and a
    derivative that is a bare name is used in place, so G' = T costs
    nothing -- and returns the state tuple after m steps of size h.  The
    state entries and h may also be arrays of one shape, each element its
    own step (``spiral_chi``).
    """
    params, names, aux, ders = rhs
    names = names.split()
    word = re.compile(r"\b(%s)\b" % "|".join([*names, "s"]))
    uses_s = any(re.search(r"\bs\b", e) for e in (*aux, *ders))
    state = ", ".join(names)
    src = [f"def block(state, s, h, m, {params}):", f"    {state} = state",
           "    for _ in range(m):"]
    k = []  # k[i][j]: the name holding the derivative of state j at stage i

    def comb(row, j):
        return " + ".join(f"{a!r} * {k[i][j]}" for i, a in row.items())

    for i, row in enumerate(_A):
        def rename(e):
            return word.sub(rf"\g<1>{i or ''}", e)

        if i:
            src += [f"        {v}{i} = {v} + h * ({comb(row, j)})"
                    for j, v in enumerate(names)]
            if uses_s:
                src.append(f"        s{i} = s + {_C[i]!r} * h")
        src += ["        " + rename(line) for line in aux]
        k.append([])
        for j, e in enumerate(map(rename, ders)):
            if not e.isidentifier():
                src.append(f"        k{j}_{i} = {e}")
                e = f"k{j}_{i}"
            k[i].append(e)
    # one assignment: a stage-0 derivative may be a state name itself
    src.append(f"        {state} = " + ", ".join(
        f"{v} + h * ({comb(_B, j)})" for j, v in enumerate(names)))
    if uses_s:
        src.append("        s = s + h")
    src.append(f"    return {state}")
    scope = {}
    exec(compile("\n".join(src), f"<DOP853 block: {names}>", "exec"), scope)
    return scope["block"]


def _fixed_step(rhs, params, y0, s0, s1, grid):
    """Fixed-step DOP853 driver shared by the two ODEs of this module.

    Plans the fine steps over [s0, s1] with ``integrators._plan``, in output
    blocks of m steps of at most h for the ``grid`` (h, m), and checks that
    ``y0`` is finite, at once.  Returns (s_nodes, integrate), where
    ``integrate()`` runs the fused block of ``rhs`` (see ``_body``) with
    ``params`` once per block, from that block's start node, and returns
    ``out``: the state at every block end in its rows, row 0 the initial
    state.  A state that overflows, by an OverflowError or to a non-finite
    block end, is NonFiniteCoefficient.
    """
    h, m, s_nodes, _ = _plan(s0, s1, *grid)
    y0 = np.asarray(y0)
    if not np.all(np.isfinite(y0)):
        raise InvalidParameter("initial state must be finite")
    block = _body(rhs)

    def integrate():
        out = np.empty((len(s_nodes), len(y0)), dtype=y0.dtype)
        out[0] = y0
        y = tuple(y0.tolist())
        try:
            for b, s in enumerate(s_nodes[:-1].tolist(), 1):
                y = block(y, s, h, m, *params)
                out[b] = y
        except OverflowError:  # a float power or complex abs that overflows
            finite = False
        else:
            finite = np.isfinite(out).all()
        if not finite:
            raise NonFiniteCoefficient(
                f"the DOP853 state became non-finite on [{s0:g}, {s1:g}]")
        return out

    return s_nodes, integrate


# G' = T, T' = M x T with M = (1/2)(I+A)G (autonomous)
_PROFILE = ("mu", "gx gy gz tx ty tz",
            ("mx = 0.5 * (gx - mu * gy)", "my = 0.5 * (mu * gx + gy)", "mz = 0.5 * gz"),
            ("tx", "ty", "tz",
             "my * tz - mz * ty", "mz * tx - mx * tz", "mx * ty - my * tx"))


def _sides(params, s_lo, s_hi):
    """Integrate (G, T) from s = 0 to both ends; returns (s, G, T) on one
    ascending grid, stitched by ``integrators.two_sided``.

    Both sides are planned and checked before either runs.  With two CPUs
    and at least ``_MIN_SIDE_STEPS`` fine steps on each side, the s <= 0
    side runs in a forked worker (``dataio._beside``) while this process
    runs the s >= 0 side; the worker's generator yields its one item, the
    side's block-end array.  The two runs do the same arithmetic as the
    serial one, so the result is bit-identical.
    """
    y0 = (*params.G0.tolist(), *params.T0.tolist())
    plans = {end: _fixed_step(_PROFILE, (params.mu,), y0, 0.0, end, _GRID)
             for end in (s_hi, s_lo) if end != 0}
    steps = [(len(s) - 1) * _GRID[1] for s, _ in plans.values()]

    def minus_side():
        yield plans[s_lo][1]()

    with dataio._beside("spiral side worker", minus_side,
                        len(plans) == 2 and min(steps) >= _MIN_SIDE_STEPS) as minus:

        def run(end):
            s, integrate = plans[end]
            [out] = minus if end == s_lo else [integrate()]
            return s, out[:, :3], out[:, 3:]

        return two_sided(run, s_lo, s_hi)


def spiral_profile(params, s_span):
    """Integrate the profile equation over s_span (must contain 0) on ``_GRID``.

    Frames are assembled algebraically: n = T'/|T'|, b = T x n with
    T' = (1/2)(I+A)G x T evaluated pointwise (``_assemble``), in pieces of
    ``_PIECE`` nodes written into the preallocated outputs, so the working
    arrays are one piece whatever the span.  The two sides of s = 0 run at
    once where ``_sides`` says so.
    """
    if not isinstance(params, SpiralParams):
        raise InvalidParameter("params must be SpiralParams")
    s_lo, s_hi = float(s_span[0]), float(s_span[1])
    if s_lo > 0 or s_hi < 0:
        raise InvalidParameter("s_span must contain 0 (initial data lives there)")
    s, G, T = _sides(params, s_lo, s_hi)
    IA = np.eye(3) + _amatrix(params.mu)
    frames = np.empty((len(s), 3, 3))
    c_sq, y, tau = np.empty(len(s)), np.empty(len(s)), np.empty(len(s))
    for lo in range(0, len(s), _PIECE):
        p = slice(lo, lo + _PIECE)
        _assemble(IA, G[p], T[p], frames[p], c_sq[p], y[p], tau[p])
    return SpiralProfileResult(params, Curve(s, G, frames), c_sq, y, tau)


def _assemble(IA, G, T, frames, c_sq, y, tau):
    """Write the frames, c^2, y and tau of the nodes that carry ``G`` and
    ``T``, for the matrix I + A ``IA``, into the given output slices; rows
    are independent, so pieces of nodes give the bits of the whole."""
    mvec = 0.5 * (G @ IA.T)
    Tp = np.cross(mvec, T)
    np.sum(Tp * Tp, axis=1, out=c_sq)
    c = np.sqrt(c_sq)
    ok = c > 1e-9
    frames[:, 0] = T
    nvec = frames[:, 1]
    nvec.fill(np.nan)
    nvec[ok] = Tp[ok] / c[ok, None]
    frames[:, 2] = np.cross(T, nvec)
    # torsion tau = (T x T').T'' / |T'|^2 ; T'' = m' x T + m x T', m' = (I+A)T/2
    mp = 0.5 * (T @ IA.T)
    Tpp = np.cross(mp, T) + np.cross(mvec, Tp)
    tau.fill(np.nan)
    tau[ok] = np.einsum("ij,ij->i", np.cross(T[ok], Tp[ok]), Tpp[ok]) / c_sq[ok]
    y[:] = 2 * np.einsum("ij,ij->i", Tp, Tpp)


# f' = g, g' = -i(s/2) g - (f/2)(|f|^2 + nu)
_F = ("nu", "f g", (), ("g", "-0.5j * s * g - 0.5 * f * (abs(f) ** 2 + nu)"))


def f_solve(f0, f0_prime, nu, s_span):
    """Complex profile equation f'' + i(s/2) f' + (f/2)(|f|^2 + nu) = 0.

    Initial data at s_span[0]; returns (s, f, f') arrays on the nodes of
    ``_F_GRID`` (a node every 3 fine steps of at most 1.6e-2/3).  The
    conserved energy is |f'|^2 + (|f|^2 + nu)^2 / 4.
    """
    nu = float(nu)
    if not math.isfinite(nu):
        raise InvalidParameter("nu must be finite")
    s, integrate = _fixed_step(_F, (nu,), (complex(f0), complex(f0_prime)),
                               float(s_span[0]), float(s_span[1]), _F_GRID)
    out = integrate()
    return s, out[:, 0], out[:, 1]


def f_energy(f, fp, nu):
    return np.abs(fp) ** 2 + 0.25 * (np.abs(f) ** 2 + nu) ** 2


def rotation_log(mu, t):
    """exp((A/2) log t): rotation by (mu/2) log t in the xy plane."""
    phi = 0.5 * mu * math.log(t)
    cph, sph = math.cos(phi), math.sin(phi)
    return np.array([[cph, -sph, 0.0], [sph, cph, 0.0], [0.0, 0.0, 1.0]])


def spiral_chi(params, profile_curve, s, t):
    """chi(s,t) = exp((A/2) log t) sqrt(t) G(s/sqrt(t)) for t > 0.

    G between the profile's nodes takes one DOP853 step (the block that
    ``spiral_profile`` runs) from the nearest node, as
    ``selfsimilar.evaluate`` takes one Magnus step: on ``_GRID`` it is at
    most one fine step.  A non-finite t or s, or a t <= 0, is
    InvalidParameter; an s/sqrt(t) outside the profile's span, overflowing
    included, is OutOfProfileRange (``selfsimilar._sigma``).  An empty s
    gives (0, 3) rows.
    """
    # written so that a NaN fails
    if not 0 < t < math.inf:
        raise InvalidParameter(f"t must be finite and positive, got {t!r}")
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    rt = math.sqrt(t)
    sigma = _sigma(s, t)
    grid = profile_curve.s_grid
    if np.any(sigma < grid[0] - 1e-12) or np.any(sigma > grid[-1] + 1e-12):
        raise OutOfProfileRange("s/sqrt(t) outside the computed profile span")
    j = np.clip(np.searchsorted(grid, sigma), 1, len(grid) - 1)
    j -= sigma - grid[j - 1] < grid[j] - sigma
    state = (*profile_curve.points[j].T, *profile_curve.frames[j, 0].T)
    G = np.stack(_body(_PROFILE)(state, 0.0, sigma - grid[j], 1, params.mu)[:3], axis=1)
    out = rt * (G @ rotation_log(params.mu, t).T)
    return out[0] if scalar else out
