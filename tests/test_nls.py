import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import nls
from filamentlab.errors import (
    AliasingDetected,
    GridTooCoarse,
    InvalidParameter,
    MemoryBudgetExceeded,
    TimeSpanCrossesZero,
)
from filamentlab.geometry import IntrinsicData
from filamentlab.nls import ComplexField, NlsProblem, evolve, gaussian_field


def collected(problem, v0, n_steps, store_every):
    """``evolve``'s result and every snapshot it stored, collected by a sink."""
    fields = []
    out = evolve(problem, v0, n_steps, store_every=store_every,
                 sink=lambda t, field: fields.append(field))
    return out, fields


def uniform_slice(L, n, c_fn, tau_fn):
    s = -L / 2 + L * np.arange(n) / n
    return IntrinsicData(s, [0.0], c_fn(s)[None], tau_fn(s)[None]), s


def test_hasimoto_constant_and_helix():
    data, s = uniform_slice(32.0, 64, lambda s: np.ones_like(s), lambda s: 0 * s)
    u = nls.hasimoto(data)
    assert np.max(np.abs(u.values - 1)) < 1e-14

    N = 2 * np.pi / 32.0 * 3  # integer wavenumber on the box
    data, s = uniform_slice(32.0, 256, lambda s: np.ones_like(s),
                            lambda s: np.full_like(s, N))
    u = nls.hasimoto(data)
    assert np.max(np.abs(u.values - np.exp(1j * N * s))) < 1e-12


def test_hasimoto_selfsimilar_slice():
    data, s = uniform_slice(20.0, 512, lambda s: 0.7 * np.ones_like(s), lambda s: s / 2)
    u = nls.hasimoto(data)
    target = 0.7 * np.exp(1j * s * s / 4)
    # trapezoid phase error is O(ds^2) per unit length
    assert np.max(np.abs(u.values - target)) < 2e-3
    assert np.max(np.abs(np.abs(u.values) - 0.7)) < 1e-14


def test_hasimoto_accepts_measured_intrinsic_data():
    # chain: curve -> finite-difference (c, tau) -> filament function
    from filamentlab.geometry import Curve, curvature_torsion_from_curve

    s = np.linspace(-16.0, 16.0, 2053)  # interior stencil leaves 2049 nodes
    r2 = np.sqrt(2.0)
    hel = Curve(s, np.column_stack([np.cos(s / r2), np.sin(s / r2), s / r2]))
    data = curvature_torsion_from_curve(hel)
    # trim to a power-of-two grid for the field type
    n = 2048
    sliced = type(data)(data.s_grid[:n], data.t_grid, data.c[:, :n],
                        data.tau[:, :n])
    u = nls.hasimoto(sliced)
    target = 0.5 * np.exp(1j * 0.5 * sliced.s_grid)
    assert np.max(np.abs(u.values - target)) < 1e-3


def test_gp_constant_background_is_exact():
    n = 256
    f = ComplexField(50.0, n, np.full(n, 0.8, dtype=complex))
    problem = NlsProblem(sign=-1, background_a=0.8, potential="gp", t_span=(1.0, 20.0))
    out = evolve(problem, f, 400)
    assert np.max(np.abs(out.final.values - 0.8)) < 1e-12
    assert out.mass_drift() <= 1e-10


def test_mass_conserved_generic_run():
    n = 512
    f = gaussian_field(60.0, n, 0.5, width=3.0)
    base = ComplexField(60.0, n, 0.4 + f.values)
    problem = NlsProblem(sign=1, background_a=0.4, potential="gp", t_span=(1.0, 8.0))
    out = evolve(problem, base, 600, store_every=100)
    assert out.mass_drift() <= 1e-10


def test_second_order_self_convergence():
    n = 256
    rng = np.random.default_rng(7)
    modes = np.arange(-3, 4)
    x = ComplexField(40.0, n, np.zeros(n, dtype=complex)).grid()
    w = sum((rng.normal() + 1j * rng.normal()) * np.exp(2j * np.pi * m * x / 40.0)
            for m in modes)
    v0 = ComplexField(40.0, n, 0.05 * w)
    problem = NlsProblem(sign=1, background_a=0.0, potential="none", t_span=(0.0, 1.0))

    def final(nsteps):
        return evolve(problem, v0, nsteps).final.values

    ref = final(3200)
    e1 = np.max(np.abs(final(200) - ref))
    e2 = np.max(np.abs(final(400) - ref))
    assert e1 / e2 > 3.4  # second order in dt


@settings(max_examples=20, deadline=None)
@given(coeffs=arrays(complex, 13, elements=st.complex_numbers(
           max_magnitude=1.0, allow_nan=False, allow_infinity=False)),
       m=st.integers(-3, 3), sign=st.sampled_from([-1, 1]))
def test_galilean_covariance(coeffs, m, sign):
    # u_N(s,t) = e^{-itN^2+iNs} u(s-2Nt, t) solves the autonomous cubic with
    # u.  The datum holds the modes |k| <= 6 of 64, so a boost by |m| <= 3
    # modes keeps the field and its cube inside the band the stepper resolves
    n, L, t1 = 64, 40.0, 0.5
    spec = np.zeros(n, dtype=complex)
    spec[np.r_[0:7, -6:0]] = coeffs
    v = np.fft.ifft(spec) * n
    u0 = ComplexField(L, n, 0.3 * v / max(1.0, float(np.max(np.abs(v)))))
    problem = NlsProblem(sign=sign, background_a=0.0, potential="none", t_span=(0.0, t1))
    direct = evolve(problem, nls.galilean_transform(u0, m, 0.0), 200).final
    moved = nls.galilean_transform(evolve(problem, u0, 200).final, m, t1)
    assert np.max(np.abs(direct.values - moved.values)) <= 1e-6


def test_scaling_symmetry():
    # lambda u(lambda s, lambda^2 t) solves the cubic when u does (lambda = 2)
    lam = 2.0
    n = 512
    L = 40.0
    x = ComplexField(L, n, np.zeros(n, dtype=complex)).grid()
    u0 = ComplexField(L, n, 0.2 * np.exp(-x**2 / 9))
    t1 = 0.4
    coarse = evolve(NlsProblem(sign=1, background_a=0.0, potential="none",
                               t_span=(0.0, t1)), u0, 1600).final
    # rescaled run on the box of length L/lam: datum lam*u0(lam x)
    xs = ComplexField(L / lam, n, np.zeros(n, dtype=complex)).grid()
    u0s = ComplexField(L / lam, n, lam * 0.2 * np.exp(-((lam * xs) ** 2) / 9))
    fine = evolve(NlsProblem(sign=1, background_a=0.0, potential="none",
                             t_span=(0.0, t1 / lam**2)), u0s, 1600).final
    assert np.max(np.abs(fine.values - lam * coarse.values)) <= 1e-6


def test_pseudo_conformal_map_and_inverse():
    n = 256
    v = ComplexField(30.0, n, np.full(n, 0.6, dtype=complex))
    u = nls.pseudo_conformal(v, 1.0)
    s = u.grid()
    assert np.max(np.abs(u.values - 0.6 * np.exp(1j * s * s / 4))) < 1e-13

    x = v.grid()
    v2 = ComplexField(30.0, n, 0.6 + 0.05 * np.exp(-(x**2) / 4 + 0.3j * x))
    u2 = nls.pseudo_conformal(v2, 2.0)
    back = nls.pseudo_conformal_inverse(u2, 2.0)
    assert np.max(np.abs(back.values - v2.values)) <= 1e-6
    assert np.max(np.abs(np.abs(u2.values) - np.abs(v2.values) / math.sqrt(2.0))) < 1e-13


def test_long_range_ansatz_properties():
    n = 256
    up = gaussian_field(60.0, n, 1e-2, width=2.0)
    v1 = nls.long_range_ansatz(up, 0.5, -1, 3.0)
    # unitarity: ||v1 - a|| equals ||u_plus|| at every time
    for t in (0.5, 1.0, 10.0, 100.0):
        v1t = nls.long_range_ansatz(up, 0.5, -1, t)
        diff = up.copy_with(v1t.values - 0.5)
        assert abs(diff.l2_norm() - up.l2_norm()) < 1e-12
    zero = up.copy_with(0 * up.values)
    assert np.max(np.abs(nls.long_range_ansatz(zero, 0.7, 1, 5.0).values - 0.7)) == 0.0
    free = nls.free_evolution(up, 5.0)
    assert np.max(np.abs(nls.long_range_ansatz(up, 0.0, 1, 5.0).values
                         - (0.0 + free.values))) < 1e-14


@pytest.mark.parametrize("a, norm", [(1e16, 1e-2), (0.5, 1e-30)])
def test_long_range_ansatz_refuses_a_perturbation_the_background_rounds_away(a, norm):
    # a + w1 drops w1 (or all but its imaginary part), so a run from it would
    # measure rounding
    up = gaussian_field(100.0, 256, norm, width=2.0)
    with pytest.raises(InvalidParameter,
                       match=r"max\|w1\| = .* is not resolved by the background "
                             rf"a = {re.escape(f'{a:g}')}:"):
        nls.long_range_ansatz(up, a, -1, 10.0)
    # scaled to max|w1| = 1e-8 a, the datum passes on the same background:
    # (a + w1) - a keeps it to about 1e-8
    w_max = np.max(np.abs(nls.free_evolution(up, 10.0).values))
    assert w_max > 0
    small = up.copy_with(up.values * (1e-8 * a / w_max))
    w1 = nls.free_evolution(small, 10.0).values * nls._log_phase(a, -1, 1.0, 10.0)
    v1 = nls.long_range_ansatz(small, a, -1, 10.0).values
    assert np.array_equal(v1, a + w1)
    assert np.max(np.abs((v1 - a) - w1)) <= 1e-6 * np.max(np.abs(w1))


def test_gp_energy_constant_zero_and_law():
    n = 256
    f = ComplexField(50.0, n, np.full(n, 0.9, dtype=complex))
    assert nls.gp_energy(f, 2.0, 0.9, -1) == pytest.approx(0.0, abs=1e-14)

    x = f.grid()
    v0 = ComplexField(50.0, n, 0.5 + 0.02 * np.exp(-(x**2) / 8))
    problem = NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(1.0, 4.0))

    def law_defect(nsteps):
        # refining nsteps with fixed store_every also refines the sampling
        # grid of the central-difference dE/dt estimate
        out, fields = collected(problem, v0, nsteps, 25)
        return nls.gp_energy_law_defect(out.times, fields, 0.5, -1)

    d1, d2 = law_defect(400), law_defect(800)
    assert d1 / d2 > 3.0  # O(dt^2)

    # defocusing branch: E(t) monotone non-increasing
    out, fields = collected(problem, v0, 800, 50)
    E = [nls.gp_energy(f, t, 0.5, -1) for f, t in zip(fields, out.times)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(E, E[1:]))


def test_long_range_phase_signature_small():
    # reduced-size version of the resonance check (full size in acceptance)
    n = 1024
    up = gaussian_field(240.0, n, 1e-2, width=2.0)
    report = nls.long_range_comparison(0.5, up, -1, (10.0, 2000.0), 900)
    assert report["defect_with_phase"] <= 0.5 * report["defect_without_phase"]
    assert report["mass_drift"] <= 1e-10


def test_streamed_comparison_equals_the_kept_snapshots():
    # the report read off each snapshot as evolve makes it equals, exactly,
    # one built afterwards from the snapshots a sink kept
    a, sign, t_span, n_steps = 0.5, -1, (10.0, 2000.0), 240
    up = gaussian_field(240.0, 1024, 1e-2, width=2.0)
    got = nls.long_range_comparison(a, up, sign, t_span, n_steps)
    problem = NlsProblem(sign=sign, background_a=a, potential="gp", t_span=t_span)
    store = n_steps // 24  # the comparison's snapshot spacing
    res, fields = collected(problem, nls.long_range_ansatz(up, a, sign, t_span[0]),
                            n_steps, store)
    d_phase, d_free, d_deriv = [], [], []
    for t, f in zip(res.times, fields):
        w = nls.free_evolution(up, t).values
        diff = f.copy_with(f.values - (a + w * nls._log_phase(a, sign, 1.0, t)))
        d_phase.append(diff.l2_norm())
        d_free.append(f.copy_with(f.values - (a + w)).l2_norm())
        d_deriv.append(diff.derivative().l2_norm())
    d_phase, d_free, d_deriv = map(np.array, (d_phase, d_free, d_deriv))
    k = np.append(np.arange(0, n_steps, store), n_steps)
    lt = np.log(nls.time_grid(problem, n_steps)[k[len(k) // 2:]])
    half = len(res.times) // 2

    def slope(d):
        return float(np.polyfit(lt, np.log(np.maximum(d[half:], 1e-300)), 1)[0])

    assert got == {
        "t_final": float(res.times[-1]),
        "defect_with_phase": float(d_phase[-1]),
        "defect_without_phase": float(d_free[-1]),
        "ratio": float(d_phase[-1] / d_free[-1]),
        "slope_l2": slope(d_phase),
        "slope_deriv_l2": slope(d_deriv),
        "mass_drift": res.mass_drift(),
        "times": res.times.tolist(),
        "defects_with_phase": d_phase.tolist(),
        "defects_without_phase": d_free.tolist(),
    }


def test_evolve_sink_sees_each_snapshot_and_keeps_none():
    n = 128
    f = gaussian_field(40.0, n, 0.5, width=2.0)
    v0 = f.copy_with(0.5 + f.values * np.exp(0.3j * f.grid()))
    problem = NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(1.0, 3.0))
    seen = []
    out = evolve(problem, v0, 12, store_every=5,
                 sink=lambda t, field: seen.append((t, field.values.copy())))
    # step 0, every fifth step and the last, as the stepper makes them
    spectra = {k: vhat.copy() for k, _, vhat, _ in nls._strang(problem, v0, 12)}
    want = [v0.values] + [np.fft.ifft(spectra[k]) for k in (5, 10, 12)]
    assert [t for t, _ in seen] == out.times.tolist()
    assert np.array_equal(out.times, nls.time_grid(problem, 12)[[0, 5, 10, 12]])
    assert all(np.array_equal(v, w) for (_, v), w in zip(seen, want, strict=True))
    assert np.array_equal(out.mass, [v0.copy_with(w).mass() for w in want])
    # the result keeps the last snapshot and no other
    assert [f.name for f in dataclasses.fields(out)] == ["times", "mass", "final"]
    assert np.array_equal(out.final.values, want[-1])


def test_long_range_comparison_memory_per_point():
    # the snapshots are read as they are made: the traced peak grows by the
    # stepper's buffers and one snapshot's work per point (about 170 bytes);
    # keeping its 26 snapshots would add 16 bytes per point for each
    peaks = {}
    for n in (8192, 65536):
        up = gaussian_field(900.0, n, 1e-2, width=2.0)
        tracemalloc.start()
        try:
            nls.long_range_comparison(0.5, up, -1, (10.0, 1e4), 48)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[65536] - peaks[8192]) / (65536 - 8192) <= 250


def test_evolve_memory_does_not_grow_with_the_snapshot_count():
    # a snapshot at each of 200 steps on 2^12 points: the run holds one in
    # flight and the last (a traced peak of 0.59 MB), inside the plan of
    # 0.83 MB.  When evolve kept every snapshot its peak grew by one per
    # step, 16 bytes per point: 3.98 MB at 50 steps and 13.7 MB at 200
    n, n_steps = 2**12, 200
    f = gaussian_field(100.0, n, 1e-2, width=2.0)
    v0 = f.copy_with(0.5 + f.values)
    problem = NlsProblem(sign=-1, background_a=0.5, t_span=(1.0, 10.0))
    tracemalloc.start()
    try:
        evolve(problem, v0, n_steps, store_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nls.check_memory(n, n_steps)


def test_validation_errors():
    with pytest.raises(TimeSpanCrossesZero):
        NlsProblem(sign=1, background_a=0.1, potential="gp", t_span=(-1.0, 1.0))
    with pytest.raises(InvalidParameter):
        NlsProblem(sign=2, background_a=0.1)
    for bad in ({"t_span": (1.0, math.inf)}, {"t_span": (math.nan, 2.0)},
                {"background_a": math.inf}, {"background_a": math.nan},
                {"coeff": math.inf}, {"coeff": math.nan}, {"coeff": 0.0},
                {"coeff": -1.0}, {"t_span": (5e-324, 10.0)},
                {"t_span": (10.0, 5e-324)}):
        with pytest.raises(InvalidParameter):
            NlsProblem(**bad)
    for norm, width in ((math.inf, 2.0), (math.nan, 2.0), (-0.01, 2.0), (1.0, 0.0),
                        (1.0, -1.0), (1.0, math.inf), (1.0, math.nan), (1.0, 1e200)):
        with pytest.raises(InvalidParameter):
            gaussian_field(10.0, 64, norm, width)
    quiet = NlsProblem(background_a=0.0, t_span=(1.0, 2.0))
    for n_steps, store_every in ((0, None), (-3, None), (10, -1)):
        with pytest.raises(InvalidParameter, match="must be >= "):
            evolve(quiet, ComplexField.zeros(10.0, 64), n_steps, store_every=store_every)
    # a box of 2^24 points is refused before its buffers are allocated; a
    # million steps on 4096 points keep one snapshot, not a million
    with pytest.raises(MemoryBudgetExceeded, match="budget"):
        nls.check_memory(2**24, 100)
    assert nls.check_memory(4096, 10**6) < 2**26
    for length in (0.0, -5.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="domain_length"):
            ComplexField(length, 64, np.zeros(64, dtype=complex))
    with pytest.raises(InvalidParameter):
        ComplexField(10.0, 100, np.zeros(100, dtype=complex))  # not a power of two
    for length in (5e-324, 64 * 1e-310):  # grid step zero, then subnormal
        with pytest.raises(InvalidParameter, match="normal float"):
            ComplexField.zeros(length, 64)
    # a normal step whose Nyquist wavenumber squares to inf: the stepper
    # rejects it before numpy warns about cos(inf)
    tiny = ComplexField.zeros(1e-300, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="overflows"):
            evolve(NlsProblem(background_a=0.0, t_span=(1.0, 2.0)), tiny, 4)
    n = 64
    f = ComplexField(10.0, n, np.exp(1j * np.pi * np.arange(n)))  # Nyquist comb
    problem = NlsProblem(sign=1, background_a=0.0, potential="none", t_span=(0.0, 0.1))
    with pytest.raises(AliasingDetected):
        evolve(problem, f, 10)



@pytest.mark.parametrize("factor, rejected", [(0.999, False), (1.001, True)])
def test_half_step_phase_is_bounded_by_float_resolution(factor, rejected):
    # one free step whose Nyquist phase xi^2 dt/2 is just below or above
    # 1/eps radians, where rounding the phase alone exceeds a radian; a
    # constant field keeps its one mode, so the step is otherwise harmless
    field = ComplexField(100.0, 256, np.ones(256, dtype=complex))
    xi_max = math.pi * 256 / 100.0
    dt = factor * 2 / (sys.float_info.epsilon * xi_max**2)
    problem = NlsProblem(sign=1, background_a=0.0, potential="none", t_span=(0.0, dt))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rejected:
            with pytest.raises(InvalidParameter, match="radian resolution"):
                evolve(problem, field, 1)
        else:
            assert evolve(problem, field, 1).times[-1] == dt

def test_alias_gate_sees_perturbation_under_background():
    # grid step 1.95 against width 2: the bump is under-resolved, and a
    # constant background must not dilute that away
    bump = gaussian_field(500.0, 256, 1e-2, 2.0)
    problem = NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(10.0, 20.0))
    for a in (0.0, 0.5):
        field = bump.copy_with(a + bump.values)
        assert field.alias_fraction() == pytest.approx(bump.alias_fraction(), rel=1e-9)
        assert field.alias_fraction() > nls.ALIAS_FRACTION
        with pytest.raises(AliasingDetected):
            evolve(problem, field, 10)
    assert ComplexField(900.0, 256, np.full(256, 0.5)).alias_fraction() == 0.0
    # grid step 3.5 against width 2: refused when built, as the grid cannot
    # resolve it; a zero bump needs no resolution
    with pytest.raises(GridTooCoarse, match=r"width 2 is narrower than the grid step dx = 3\.5"):
        gaussian_field(900.0, 256, 1e-2, 2.0)
    assert gaussian_field(900.0, 256, 0.0, 2.0).l2_norm() == 0.0
    # resolved, the same bump on the background passes
    fine = gaussian_field(100.0, 256, 1e-2, 2.0)
    assert fine.copy_with(0.5 + fine.values).alias_fraction() < nls.ALIAS_FRACTION


@pytest.mark.parametrize("n", [-1, 0, 3, 100])
def test_bad_n_points_is_invalid_parameter(n):
    # checked before any array of n_points entries is allocated
    with pytest.raises(InvalidParameter, match="n_points"):
        gaussian_field(100.0, n, 1e-2)
    with pytest.raises(InvalidParameter, match="n_points"):
        ComplexField.zeros(100.0, n)


def test_mass_drift_of_zero_field_is_absolute():
    zero = ComplexField(10.0, 64, np.zeros(64, dtype=complex))
    res = evolve(NlsProblem(background_a=0.0, t_span=(1.0, 2.0)), zero, 5)
    assert res.mass_drift() == 0.0


def test_gp_energy_law_defect_uses_the_nonuniform_stencil():
    # dE/dt by the shared 3-point stencil on a geometric time grid
    rng = np.random.default_rng(7)
    n = 64
    x = 10.0 * np.arange(n) / n
    fields = [ComplexField(10.0, n, 0.5 + 0.01 * rng.normal(size=n)
                           + 0.01j * np.sin(2 * np.pi * x / 10.0)) for _ in range(5)]
    times = 1.5 ** np.arange(5)
    E = np.array([nls.gp_energy(f, t, 0.5, -1) for f, t in zip(fields, times)])
    P = np.array([10.0 * np.mean((np.abs(f.values) ** 2 - 0.25) ** 2) for f in fields])
    hp, hn = np.diff(times)[:-1], np.diff(times)[1:]
    dE = (hp**2 * E[2:] + (hn**2 - hp**2) * E[1:-1] - hn**2 * E[:-2]) / (
        hp * hn * (hp + hn))
    expect = np.max(np.abs(dE + P[1:-1] / (4 * times[1:-1] ** 2)))
    assert nls.gp_energy_law_defect(times, fields, 0.5, -1) == expect


def _unfused_strang(problem, v0, n_steps):
    """Reference: both linear half-steps of every step through their own FFT pair."""
    ts = nls.time_grid(problem, n_steps)
    xi2 = v0.xi() ** 2
    a2 = problem.background_a**2
    v = v0.values.copy()
    for k in range(n_steps):
        dt = ts[k + 1] - ts[k]
        v = np.fft.ifft(np.fft.fft(v) * np.exp(-1j * xi2 * dt / 2))
        if problem.potential == "gp":
            phase = (np.abs(v) ** 2 - a2) * math.log(ts[k + 1] / ts[k])
        else:
            phase = np.abs(v) ** 2 * dt
        v = v * np.exp(1j * problem.sign * problem.coeff * phase)
        v = np.fft.ifft(np.fft.fft(v) * np.exp(-1j * xi2 * dt / 2))
    return v


@pytest.mark.parametrize("potential", ["gp", "none"])
def test_stepper_matches_unfused_strang(potential):
    # gp runs on the geometric time grid, none on the linear one
    n = 256
    bump = gaussian_field(50.0, n, 1.0, width=2.0)
    bump = bump.copy_with(bump.values * np.exp(0.4j * bump.grid()))
    a = 0.5 if potential == "gp" else 0.0
    v0 = bump.copy_with(a + bump.values)
    problem = NlsProblem(sign=1, background_a=a, potential=potential,
                         t_span=(1.0, 6.0) if potential == "gp" else (0.0, 2.0))
    n_steps = 300
    ref = _unfused_strang(problem, v0, n_steps)
    out = evolve(problem, v0, n_steps, store_every=100)
    assert np.max(np.abs(ref - v0.values)) > 0.1  # the run moved the field
    assert np.max(np.abs(out.final.values - ref)) <= 1e-12
    # the stepper overwrites its spectrum buffer at every step, so keep copies
    steps = [(k, t, vhat.copy()) for k, t, vhat, _ in nls._strang(problem, v0, n_steps)]
    assert not np.array_equal(steps[0][2], steps[-1][2])
    assert [k for k, _, _ in steps] == list(range(1, n_steps + 1))
    assert np.array_equal([t for _, t, _ in steps], nls.time_grid(problem, n_steps)[1:])
    assert np.max(np.abs(np.fft.ifft(steps[-1][2]) - ref)) <= 1e-12
    assert np.array_equal(out.times, nls.time_grid(problem, n_steps)[::100])


def _unit_phase(y):
    """e^{iy} from the stepper's kernel, in a fresh array."""
    out = np.empty(y.shape, complex)
    nls._unit_phase(y / 2, out)
    return out


def _previous_strang(problem, v0, n_steps):
    """Reference: the stepper before its buffers, each factor over all N points."""
    ts = nls.time_grid(problem, n_steps)
    xi2 = v0.xi() ** 2
    gp = problem.potential == "gp"
    a2 = problem.background_a**2 if gp else 0.0
    dw = np.log(ts[1:] / ts[:-1]) if gp else np.diff(ts)
    weight = problem.sign * problem.coeff * dw
    vhat = np.fft.fft(v0.values)
    for k in range(n_steps):
        half = _unit_phase(-xi2 * (ts[k + 1] - ts[k]) / 2)
        v = np.fft.ifft(vhat * half)
        v = v * _unit_phase((np.abs(v) ** 2 - a2) * weight[k])
        vhat = np.fft.fft(v) * half
        yield k + 1, ts[k + 1], vhat


@pytest.mark.parametrize("potential", ["gp", "none"])
def test_stepper_equals_previous_loop(potential):
    # both loops build their factors with one kernel, so this pins the
    # buffers, the mirrored half-step and the out= plumbing; agreement with
    # np.exp is pinned by test_stepper_matches_unfused_strang (whole run)
    # and tests/test_properties.py (the kernel)
    n = 256
    bump = gaussian_field(50.0, n, 1.0, width=2.0)
    bump = bump.copy_with(bump.values * np.exp(0.4j * bump.grid()))
    a = 0.5 if potential == "gp" else 0.0
    v0 = bump.copy_with(a + bump.values)
    problem = NlsProblem(sign=-1, background_a=a, potential=potential,
                         t_span=(1.0, 6.0) if potential == "gp" else (-1.0, 2.0))
    n_steps = 300
    pairs = zip(_previous_strang(problem, v0, n_steps), nls._strang(problem, v0, n_steps),
                strict=True)
    for (k_ref, t_ref, ref), (k, t, vhat, _) in pairs:
        assert (k, t) == (k_ref, t_ref)
        assert np.max(np.abs(vhat - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("potential", ["gp", "none"])
def test_stepper_mid_step_field_has_the_half_step_modulus(potential):
    # the cubic phase keeps |v|, so the yielded mid-step buffer has the
    # modulus of the half-step field ifft(vhat_{k-1} L_k)
    n = 256
    bump = gaussian_field(50.0, n, 1.0, width=2.0)
    bump = bump.copy_with(bump.values * np.exp(0.4j * bump.grid()))
    a = 0.5 if potential == "gp" else 0.0
    v0 = bump.copy_with(a + bump.values)
    problem = NlsProblem(sign=-1, background_a=a, potential=potential,
                         t_span=(1.0, 6.0) if potential == "gp" else (-1.0, 2.0))
    n_steps = 50
    ts = nls.time_grid(problem, n_steps)
    xi2 = v0.xi() ** 2
    prev = np.fft.fft(v0.values)
    for k, _, vhat, v in nls._strang(problem, v0, n_steps):
        half = np.fft.ifft(prev * np.exp(-1j * xi2 * (ts[k] - ts[k - 1]) / 2))
        assert np.max(np.abs(np.abs(v) - np.abs(half))) <= 1e-14 * np.max(np.abs(half))
        assert not np.array_equal(v, half)  # the buffer holds the phased field
        prev = vhat.copy()


def test_evolve_snapshots_are_distinct_copies():
    n = 128
    f = gaussian_field(40.0, n, 0.5, width=2.0)
    v0 = f.copy_with(0.5 + f.values * np.exp(0.3j * f.grid()))
    problem = NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(1.0, 3.0))
    n_steps = 12
    _, fields = collected(problem, v0, n_steps, 1)
    expect = [v0.values] + [np.fft.ifft(vhat.copy())
                            for _, _, vhat, _ in nls._strang(problem, v0, n_steps)]
    assert len(fields) == n_steps + 1
    # each snapshot the sink kept still holds its step's field
    for got, want in zip(fields, expect, strict=True):
        assert np.array_equal(got.values, want)
    for i in range(len(fields)):
        for j in range(i):
            assert not np.array_equal(fields[i].values, fields[j].values)


def test_evolve_fft_count(monkeypatch):
    # one FFT pair per step, one inverse FFT per stored field after the first
    # and one alias-check FFT per stored field; an unfused step needs two pairs
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    n = 128
    f = gaussian_field(40.0, n, 0.2, width=2.0)
    problem = NlsProblem(sign=-1, background_a=0.5, potential="gp", t_span=(1.0, 3.0))
    n_steps = 60
    out = evolve(problem, f.copy_with(0.5 + f.values), n_steps, store_every=20)
    assert len(out.times) == 4
    assert len(calls) <= 2 * n_steps + 2 * len(out.times)


@pytest.mark.parametrize("L, N", [(100.0, 1024), (400.0, 4096)])
def test_faithful_horizon_reads_the_spectral_support(L, N):
    # t_clean = 4 xi_cut / L, xi_cut the least radius outside which lies at
    # most 1e-8 of the spectral energy
    f = gaussian_field(L, N, 1e-2)
    xi_cut = nls.faithful_horizon(f) * L / 4
    spec = np.abs(np.fft.fft(f.values)) ** 2
    xi = np.abs(f.xi())
    assert spec[xi > xi_cut * (1 + 1e-12)].sum() <= 1e-8 * spec.sum()
    assert spec[xi >= xi_cut * (1 - 1e-12)].sum() > 1e-8 * spec.sum()
    assert nls.faithful_horizon(ComplexField(L, N, np.zeros(N, dtype=complex))) == 0.0
