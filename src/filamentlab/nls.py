"""Spectral solver for the cubic family and the 1/t-coefficient equation.

The filament function u = c exp(i int tau) turns binormal-flow data into a
cubic Schrodinger state; the pseudo-conformal transform
u(s,t) = e^{i s^2/4t}/sqrt(t) conj(v)(s/t, 1/t) conjugates the delta-datum
problem to large-time perturbations of the constant a, governed by

    i v_t + v_ss + sign * coeff * (1/t)(|v|^2 - a^2) v = 0.

Evolution is Strang splitting, one stepper (``_strang``) shared by ``evolve``
and ``flow.stability_experiment``: the Fourier half-step is exact for the free
part and the (possibly 1/t-weighted) cubic phase is integrated in closed form
over each step, so mass is conserved to roundoff; a step costs one FFT pair,
two unit phases of one ``tan`` each (the half-step's on N/2 + 1 frequencies
only) and no allocation of the field's size.  Each step yields the spectrum
at its end and the physical-space field at its middle, both buffers that the
next step overwrites.  ``evolve`` passes each snapshot it stores to a sink
as it is made and keeps only the last, so a run holds one snapshot at a
time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingDetected,
    GridTooCoarse,
    InvalidParameter,
    MemoryBudgetExceeded,
    TimeSpanCrossesZero,
)
from .geometry import _nonuniform_dt, _uniform_step

ALIAS_FRACTION = 1e-6
# Largest share of max|w1| that a background a may round off the ansatz's
# perturbation w1: a rounds each sample by at most a eps/2, so max|w1| down
# to about 1e-10 a passes, and what a run reads off w1 keeps six digits.
W1_RESOLUTION = 1e-6
# Planned bytes of a Strang run per box point (the stepper's buffers, the
# datum's temporaries, the last snapshot and the work on one snapshot
# passed to a sink) and per time step (the time grid and its differences).
# The tracemalloc peak grows by about 157 bytes per point for ``evolve``
# with its datum and 192 for an nls CLI run, and 32 per step; these round
# those up.
_BYTES_PER_POINT = 200
_BYTES_PER_STEP = 40


def _check_n_points(n):
    if n < 16 or (n & (n - 1)) != 0:
        raise InvalidParameter(f"n_points must be a power of two >= 16, got {n}")


@dataclass
class ComplexField:
    """Complex samples on a uniform periodic grid of power-of-two size."""

    domain_length: float
    n_points: int
    values: np.ndarray
    s0: float | None = None  # left endpoint; default centers the box at 0

    def __post_init__(self):
        n = self.n_points
        if not (math.isfinite(self.domain_length) and self.domain_length > 0):
            raise InvalidParameter(
                f"domain_length must be finite and positive, got {self.domain_length}"
            )
        _check_n_points(n)
        # a normal grid step keeps the wavenumbers 2 pi k/L finite
        if not self.domain_length / n >= sys.float_info.min:
            raise InvalidParameter(
                f"grid step domain_length/n_points = {self.domain_length / n:g} "
                f"is not a normal float")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (n,):
            raise InvalidParameter("values shape must match n_points")
        if not np.all(np.isfinite(self.values.view(float))):
            raise InvalidParameter("values must be finite")
        if self.s0 is None:
            self.s0 = -self.domain_length / 2

    @classmethod
    def zeros(cls, domain_length, n_points):
        """The zero field on a box centered at 0; n_points is checked first."""
        _check_n_points(n_points)
        return cls(domain_length, n_points, np.zeros(n_points, dtype=complex))

    def grid(self):
        return self.s0 + self.domain_length * np.arange(self.n_points) / self.n_points

    def xi(self):
        return 2 * np.pi * np.fft.fftfreq(self.n_points, d=self.domain_length / self.n_points)

    def mass(self):
        return float(self.domain_length * np.mean(np.abs(self.values) ** 2))

    def l2_norm(self):
        return math.sqrt(self.mass())

    def derivative(self):
        return ComplexField(
            self.domain_length, self.n_points,
            np.fft.ifft(1j * self.xi() * np.fft.fft(self.values)), self.s0,
        )

    def alias_fraction(self):
        """Fraction of the non-constant spectral energy in the top third of |xi|.

        The k = 0 mode (a constant background) is left out of the total, so
        a background does not hide an under-resolved perturbation.
        """
        spec = np.abs(np.fft.fft(self.values)) ** 2
        k = np.abs(np.fft.fftfreq(self.n_points)) * self.n_points
        tail = spec[k >= self.n_points / 3].sum()
        tot = spec[1:].sum()
        return float(tail / tot) if tot > 0 else 0.0

    def copy_with(self, values):
        return ComplexField(self.domain_length, self.n_points, values, self.s0)


def gaussian_field(domain_length, n_points, l2_norm, width=2.0, center=0.0):
    """Gaussian bump normalized to the requested L2 norm.

    A nonzero bump narrower than the grid step dx = domain_length/n_points
    is GridTooCoarse: the grid does not resolve it (such a bump would also
    fail the alias gate, its top-third fraction being ~3e-3 at width = dx).
    """
    # the field's mass is the square of its norm
    if not (l2_norm >= 0 and math.isfinite(l2_norm * l2_norm)):
        raise InvalidParameter(
            f"l2_norm must be nonnegative with a finite square, got {l2_norm:g}")
    # a normal width**2 keeps the exponent finite (no 0/0 at the center)
    if not (width > 0 and sys.float_info.min <= width * width < math.inf):
        raise InvalidParameter(
            f"width must be positive with width**2 a normal float, got {width:g}")
    f = ComplexField.zeros(domain_length, n_points)
    dx = f.domain_length / f.n_points
    if l2_norm > 0 and width < dx:
        raise GridTooCoarse(
            f"width {width:g} is narrower than the grid step dx = {dx:g}: "
            "the grid does not resolve the datum")
    x = f.grid()
    # a square that overflows is a distance whose Gaussian is exactly 0
    with np.errstate(over="ignore"):
        vals = np.exp(-((x - center) ** 2) / (2 * width**2)).astype(complex)
    f = f.copy_with(vals)
    cur = f.l2_norm()
    if l2_norm > 0 and cur == 0:
        raise InvalidParameter("gaussian underflowed on this grid")
    return f.copy_with(vals * (l2_norm / cur if cur else 0.0))


@dataclass
class NlsProblem:
    """Equation selector: 'gp' has the 1/t (|v|^2-a^2) coefficient, 'none'
    the autonomous cubic.  The cubic coefficient defaults to the form cited
    by each experiment: 1 for the 1/t equation, 1/2 for the autonomous one.
    """

    sign: int = -1
    background_a: float = 0.0
    potential: str = "gp"
    t_span: tuple = (1.0, 10.0)
    coeff: float | None = None

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise InvalidParameter("sign must be +1 or -1")
        # the cubic term is stepped against a^2
        a = self.background_a
        if not (a >= 0 and math.isfinite(a * a)):
            raise InvalidParameter(
                f"background_a must be nonnegative with a finite square, got {a:g}")
        if not all(math.isfinite(t) for t in self.t_span):
            raise InvalidParameter(f"t_span {self.t_span} must be finite")
        if self.coeff is not None and not (math.isfinite(self.coeff) and self.coeff > 0):
            raise InvalidParameter(f"coeff must be finite and positive, got {self.coeff}")
        if self.potential not in ("gp", "none"):
            raise InvalidParameter("potential must be 'gp' or 'none'")
        t0, t1 = self.t_span
        if self.potential == "gp" and (t0 <= 0 or t1 <= 0):
            raise TimeSpanCrossesZero("the 1/t equation needs 0 < t_lo <= t_hi")
        # its time grid is log-uniform
        if self.potential == "gp" and not 0 < t1 / t0 < math.inf:
            raise InvalidParameter(f"t_span {self.t_span}: log(t1/t0) must be finite")
        if self.coeff is None:
            self.coeff = 1.0 if self.potential == "gp" else 0.5


def time_grid(problem, n_steps):
    t0, t1 = problem.t_span
    if problem.potential == "gp":
        return t0 * (t1 / t0) ** (np.arange(n_steps + 1) / n_steps)
    return np.linspace(t0, t1, n_steps + 1)


@dataclass
class EvolveResult:
    times: np.ndarray
    mass: np.ndarray
    final: ComplexField

    def mass_drift(self):
        """Largest mass change relative to the initial mass (absolute if that is 0)."""
        drift = np.max(np.abs(self.mass - self.mass[0]))
        return float(drift / self.mass[0] if self.mass[0] else drift)


def _unit_phase(h, out):
    """Write e^{2ih} into the complex array ``out``; ``h`` is overwritten.

    With t = tan h, cos 2h = 2/(1 + t^2) - 1 and sin 2h = 2t/(1 + t^2), so
    the phase costs one ``tan`` and five elementwise passes into the real and
    imaginary views of ``out``.  numpy dispatches float64 ``tan`` to its
    SIMD loops where the CPU has them, while float64 ``cos`` and ``sin`` are
    scalar libm calls.  A relative error d in t moves the angle 2h by
    sin(2h) d, so the result is within a few eps of exp(2ih) and of modulus
    1 (the bound is pinned in tests/test_properties.py).
    No double lies within 1e-18 of pi/2 + k pi, so t is finite and t^2
    does not overflow; h = +-0 gives exactly 1.
    """
    t = np.tan(h, out=h)
    c, s = out.real, out.imag
    np.multiply(t, t, out=c)
    np.add(c, 1, out=c)
    np.divide(2, c, out=c)
    np.multiply(t, c, out=s)
    np.subtract(c, 1, out=c)


def _strang(problem, v0, n_steps):
    """Yield (k, t_k, vhat_k, v_k) for Strang steps k = 1..n_steps.

    The spectrum is carried from step to step, so a step is v = ifft(vhat L),
    the cubic phase, vhat = fft(v) L, with L = exp(-i xi^2 dt/2).  ``vhat_k``
    is the spectrum after step k; ``v_k`` is the field in the middle of the
    step, after the cubic phase.  The phase keeps |v|, so |v_k| is the
    modulus of the half-step field ifft(vhat_{k-1} L) to roundoff.

    The yielded ``vhat_k`` and ``v_k`` are two buffers, overwritten by the
    next step: a caller reads them (or copies them) before asking for step
    k + 1.

    Both exponents are purely imaginary, so each factor is a unit phase
    written by ``_unit_phase`` from its half-angle; the 1/2 is folded into
    the per-step coefficients, which halves them exactly.  xi^2 is
    mirror-symmetric bit for bit, x2[j] == x2[N - j], so L is evaluated on
    the N/2 + 1 distinct frequencies and mirrored.  Every ufunc and both
    FFTs write with ``out=`` (numpy >= 2.0); a step allocates nothing of the
    field's size.
    """
    if n_steps < 1:
        raise InvalidParameter(f"n_steps must be >= 1, got {n_steps}")
    ts = time_grid(problem, n_steps)
    n = v0.n_points
    m = n // 2 + 1
    dt = np.diff(ts)
    dt_max = np.max(np.abs(dt))
    _check_free_phase(v0, dt_max / 2, "half-step phase xi^2 dt/2",
                      f"largest time step {dt_max:.3g}")
    quarter_dt = dt / -4  # the half-step's half-angle is xi^2 * quarter_dt
    xi2 = v0.xi()[:m] ** 2
    gp = problem.potential == "gp"
    a2 = problem.background_a**2 if gp else 0.0
    # cubic phase per unit |v|^2; the 1/t coefficient integrates to log(t_{k+1}/t_k)
    dw = np.log(ts[1:] / ts[:-1]) if gp else dt
    half_weight = problem.sign * problem.coeff * dw / 2
    vhat = np.fft.fft(v0.values)
    v = np.empty_like(vhat)
    half = np.empty_like(vhat)
    phase = np.empty_like(vhat)  # also holds vhat L before the inverse FFT
    y = np.empty(m)
    p = np.empty(n)
    for k in range(n_steps):
        np.multiply(xi2, quarter_dt[k], out=y)
        _unit_phase(y, half[:m])
        half[m:] = half[m - 2:0:-1]
        np.multiply(vhat, half, out=phase)
        np.fft.ifft(phase, out=v)
        np.abs(v, out=p)
        np.multiply(p, p, out=p)
        np.subtract(p, a2, out=p)
        np.multiply(p, half_weight[k], out=p)
        _unit_phase(p, phase)
        np.multiply(v, phase, out=v)
        np.fft.fft(v, out=vhat)
        np.multiply(vhat, half, out=vhat)
        yield k + 1, ts[k + 1], vhat, v


def check_memory(n_points, n_steps):
    """Plan the bytes of a Strang run of ``n_steps`` steps on ``n_points``:
    the stepper's buffers, one snapshot in flight, the last one and the
    time grid.  Raise MemoryBudgetExceeded above the package's budget;
    return the planned bytes."""
    need = n_points * _BYTES_PER_POINT + _BYTES_PER_STEP * (n_steps + 1)
    MemoryBudgetExceeded.check(need, "NLS run")
    return need


def evolve(problem, v0, n_steps, *, store_every=None, sink=None):
    """Strang-split run over the problem's time span.

    Stores a snapshot at step 0, every ``store_every``-th step (0 or None:
    none between) and the last, and tracks the mass at each; with ``sink``,
    a callable, each is passed to ``sink(t, field)`` as it is made.  The
    result keeps the last, ``final``, and no other, so the run holds one
    snapshot at a time.  A snapshot's top-third spectral fraction above
    ``ALIAS_FRACTION`` is AliasingDetected, raised at the end of the run.
    """
    if store_every is not None and store_every < 0:
        raise InvalidParameter(f"store_every must be >= 0, got {store_every}")
    check_memory(v0.n_points, n_steps)
    stored_t, mass, alias = [], [], []

    def store(t, field):
        stored_t.append(t)
        mass.append(field.mass())
        alias.append(field.alias_fraction())
        if sink is not None:
            sink(t, field)

    store(problem.t_span[0], v0)
    for k, t, vhat, _ in _strang(problem, v0, n_steps):
        if (store_every and k % store_every == 0) or k == n_steps:
            final = v0.copy_with(np.fft.ifft(vhat))
            store(t, final)
    frac = max(alias)
    if frac > ALIAS_FRACTION:
        raise AliasingDetected(f"top-third spectral energy fraction {frac:.2e}")
    return EvolveResult(np.array(stored_t), np.array(mass), final)


def hasimoto(intrinsic):
    """Filament function u = c exp(i int_0^s tau) from the first (c, tau) slice."""
    s = intrinsic.s_grid
    ds = _uniform_step(s, "hasimoto")
    c, tau = intrinsic.c[0], intrinsic.tau[0]
    phi = np.concatenate([[0.0], np.cumsum((tau[1:] + tau[:-1]) / 2 * np.diff(s))])
    phi = phi - np.interp(0.0, s, phi)  # phase reference at s = 0
    n = len(s)
    return ComplexField(n * ds, n, c * np.exp(1j * phi), s0=float(s[0]))


def pseudo_conformal(v_slice, t):
    """u(s,t) = e^{i s^2/(4t)}/sqrt(t) conj(v)(s/t, 1/t) on the rescaled grid."""
    if t <= 0:
        raise InvalidParameter("t must be positive")
    x = v_slice.grid()
    s = t * x
    u = np.exp(1j * s * s / (4 * t)) / math.sqrt(t) * np.conj(v_slice.values)
    return ComplexField(t * v_slice.domain_length, v_slice.n_points, u,
                        s0=float(t * v_slice.s0))


def pseudo_conformal_inverse(u_slice, t):
    """Inverse of :func:`pseudo_conformal` at the same time t."""
    if t <= 0:
        raise InvalidParameter("t must be positive")
    s = u_slice.grid()
    v = math.sqrt(t) * np.exp(1j * s * s / (4 * t)) * np.conj(u_slice.values)
    return ComplexField(u_slice.domain_length / t, u_slice.n_points,
                        v, s0=float(u_slice.s0 / t))


def _check_free_phase(field, dt, name, step):
    """Reject a free phase xi^2 dt on ``field``'s grid whose largest value,
    at the Nyquist wavenumber, reaches 1/eps radians, where rounding the
    phase alone exceeds a radian (an xi^2 that overflows included), as
    InvalidParameter naming the phase ``name`` and the time ``step``."""
    with np.errstate(over="ignore", invalid="ignore"):
        top = field.xi()[field.n_points // 2] ** 2 * abs(dt)
    if not top < 1 / sys.float_info.epsilon:
        raise InvalidParameter(
            f"{name} = {top:.3g} rad overflows a float's radian resolution "
            f"(grid step {field.domain_length / field.n_points:g}, {step})")


def free_evolution(field, t):
    """exp(i t d^2/ds^2) applied spectrally."""
    _check_free_phase(field, t, "free phase xi^2 t", f"time {t:.3g}")
    return field.copy_with(
        np.fft.ifft(np.fft.fft(field.values) * np.exp(-1j * field.xi() ** 2 * t))
    )


def long_range_ansatz(u_plus, a, sign, t, coeff=1.0):
    """v1(t) = a + e^{i sign coeff a^2 log t} (free evolution of u_plus).

    A perturbation w1 that (a + w1) - a misses by more than
    ``W1_RESOLUTION`` max|w1| is InvalidParameter: a run from v1 would
    measure the rounding of a, not w1."""
    if t <= 0:
        raise InvalidParameter("t must be positive")
    w1 = free_evolution(u_plus, t).values * _log_phase(a, sign, coeff, t)
    v1 = a + w1
    w1_max, lost = np.max(np.abs(w1)), np.max(np.abs((v1 - a) - w1))
    if lost > W1_RESOLUTION * w1_max:
        raise InvalidParameter(
            f"perturbation max|w1| = {w1_max:.3g} is not resolved by the background "
            f"a = {a:g}: (a + w1) - a is off by {lost / w1_max:.2g} max|w1|, "
            f"above {W1_RESOLUTION:g}")
    return u_plus.copy_with(v1)


def _log_phase(a, sign, coeff, t):
    """The long-range phase factor e^{i sign coeff a^2 log t}."""
    return np.exp(1j * sign * coeff * a * a * math.log(t))


def gp_energy(v, t, a, sign, coeff=1.0):
    """E(t) = (1/2) int |v_s|^2 - sign*coeff/(4t) int (|v|^2-a^2)^2; a t that
    is not finite and positive is InvalidParameter."""
    # written so that a NaN fails
    if not 0 < t < math.inf:
        raise InvalidParameter(f"t must be finite and positive, got {t!r}")
    vs = v.derivative().values
    L = v.domain_length
    kin = 0.5 * L * np.mean(np.abs(vs) ** 2)
    pot = L * np.mean((np.abs(v.values) ** 2 - a * a) ** 2)
    return float(kin - sign * coeff * pot / (4 * t))


def gp_energy_law_defect(times, fields, a, sign, coeff=1.0):
    """Central-difference defect of dE/dt = sign*coeff/(4 t^2) int (|v|^2-a^2)^2."""
    times = np.asarray(times, dtype=float)
    E = np.array([gp_energy(f, t, a, sign, coeff) for f, t in zip(fields, times)])
    P = np.array(
        [f.domain_length * np.mean((np.abs(f.values) ** 2 - a * a) ** 2) for f in fields]
    )
    dE = _nonuniform_dt(E, times)
    defect = np.abs(dE - sign * coeff * P[1:-1] / (4 * times[1:-1] ** 2))
    return float(np.max(defect))


def galilean_transform(field, m, t):
    """u_N(s,t) = e^{-i t N^2 + i N s} u(s - 2 N t, t) with N = m * 2 pi / L."""
    N = 2 * np.pi / field.domain_length * m
    xi = field.xi()
    shifted = np.fft.ifft(np.fft.fft(field.values) * np.exp(-1j * xi * 2 * N * t))
    s = field.grid()
    return field.copy_with(np.exp(1j * (N * s - t * N * N)) * shifted)


def faithful_horizon(u_plus):
    """t_clean = 4 xi_cut / L, below which the box of ``u_plus`` (length L)
    no longer stands for the line in a 1/t run from it: by T = 1/t_clean
    the content up to xi_cut, the frequency radius holding all but 1e-8 of
    the spectral energy, has crossed half the box at group speed 2 xi_cut.
    A datum of zero energy gives 0."""
    spec = np.abs(np.fft.fft(u_plus.values)) ** 2
    tot = spec.sum()
    if tot == 0:
        return 0.0
    xi = np.abs(u_plus.xi())
    order = np.argsort(xi)
    cum = np.cumsum(spec[order])
    k = int(np.searchsorted(cum, (1 - 1e-8) * tot))
    return 4.0 * float(xi[order[min(k, len(xi) - 1)]]) / u_plus.domain_length


def long_range_comparison(a, u_plus, sign, t_span, n_steps):
    """One GP run from v1(t0), at the 1/t equation's default coefficient 1;
    ansatz defects with and without the log phase.

    Snapshots are checked about 24 times over the run, each as ``evolve``
    makes it (its ``sink``); none is kept.  Returns a dict with
    the endpoint defects, their ratio, and fitted log-log decay slopes of
    ||v - v1|| and its derivative; the later half of the stored times, through
    which the slopes are fitted, must be distinct in log t to within the
    rank tolerance of ``np.polyfit``.
    """
    if n_steps < 2:
        # the slopes are fitted through the later half of >= 2 stored times
        raise InvalidParameter(f"n_steps must be >= 2, got {n_steps}")
    problem = NlsProblem(sign=sign, background_a=a, potential="gp", t_span=tuple(t_span))
    # the steps ``evolve`` stores: 0, every store-th one and the last
    store = max(1, n_steps // 24)
    k = np.append(np.arange(0, n_steps, store), n_steps)
    lt = np.log(time_grid(problem, n_steps)[k[len(k) // 2:]])
    # lt is monotone in k, so a repeat is a neighbour; distinct log t still
    # fit at full rank only if np.polyfit's scaled Vandermonde matrix keeps
    # its rank at the tolerance len(lt) * eps (rank is the third of full=True)
    if np.any(lt[1:] == lt[:-1]) or np.polyfit(lt, lt, 1, full=True)[2] < 2:
        raise InvalidParameter(
            f"t_span {problem.t_span}: the later half of the stored times is not "
            "distinct in log t to within np.polyfit's rank tolerance, so no decay "
            "slope can be fitted")
    v0 = long_range_ansatz(u_plus, a, sign, problem.t_span[0], problem.coeff)
    d_phase, d_free, d_deriv = [], [], []

    def defects(t, f):
        # the ansatz with and without its log phase share one free evolution
        w = free_evolution(u_plus, t).values
        diff = f.copy_with(f.values - (a + w * _log_phase(a, sign, problem.coeff, t)))
        d_phase.append(diff.l2_norm())
        d_free.append(f.copy_with(f.values - (a + w)).l2_norm())
        d_deriv.append(diff.derivative().l2_norm())

    res = evolve(problem, v0, n_steps, store_every=store, sink=defects)
    d_phase, d_free, d_deriv = map(np.array, (d_phase, d_free, d_deriv))
    half = len(res.times) // 2

    def slope(d):
        y = np.log(np.maximum(d[half:], 1e-300))
        return float(np.polyfit(lt, y, 1)[0])

    return {
        "t_final": float(res.times[-1]),
        "defect_with_phase": float(d_phase[-1]),
        "defect_without_phase": float(d_free[-1]),
        "ratio": float(d_phase[-1] / d_free[-1]) if d_free[-1] else float("nan"),
        "slope_l2": slope(d_phase),
        "slope_deriv_l2": slope(d_deriv),
        "mass_drift": res.mass_drift(),
        "times": res.times.tolist(),
        "defects_with_phase": d_phase.tolist(),
        "defects_without_phase": d_free.tolist(),
    }
