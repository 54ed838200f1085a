import math
import warnings

import numpy as np
import pytest

from filamentlab import nls
from filamentlab.errors import (
    AliasingDetected,
    GridTooCoarse,
    InvalidParameter,
    TimeSpanCrossesZero,
)
from filamentlab.geometry import IntrinsicData
from filamentlab.nls import ComplexField, NlsProblem, evolve, gaussian_field


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
    assert np.max(np.abs(out.fields[-1].values - 0.8)) < 1e-12
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
        return evolve(problem, v0, nsteps).fields[-1].values

    ref = final(3200)
    e1 = np.max(np.abs(final(200) - ref))
    e2 = np.max(np.abs(final(400) - ref))
    assert e1 / e2 > 3.4  # second order in dt


def test_galilean_covariance():
    # u_N(s,t) = e^{-itN^2+iNs} u(s-2Nt, t) solves the autonomous cubic with u
    n = 512
    L = 40.0
    x = ComplexField(L, n, np.zeros(n, dtype=complex)).grid()
    u0 = ComplexField(L, n, 0.3 * np.exp(-x**2 / 4) + 0.1j * np.exp(-(x - 3) ** 2 / 6))
    t1 = 0.5
    problem = NlsProblem(sign=1, background_a=0.0, potential="none", t_span=(0.0, t1))
    direct = evolve(problem, nls.galilean_transform(u0, 2, 0.0), 2000).fields[-1]
    moved = nls.galilean_transform(evolve(problem, u0, 2000).fields[-1], 2, t1)
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
                               t_span=(0.0, t1)), u0, 1600).fields[-1]
    # rescaled run on the box of length L/lam: datum lam*u0(lam x)
    xs = ComplexField(L / lam, n, np.zeros(n, dtype=complex)).grid()
    u0s = ComplexField(L / lam, n, lam * 0.2 * np.exp(-((lam * xs) ** 2) / 9))
    fine = evolve(NlsProblem(sign=1, background_a=0.0, potential="none",
                             t_span=(0.0, t1 / lam**2)), u0s, 1600).fields[-1]
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
        out = evolve(problem, v0, nsteps, store_every=25)
        return nls.gp_energy_law_defect(out.times, out.fields, 0.5, -1)

    d1, d2 = law_defect(400), law_defect(800)
    assert d1 / d2 > 3.0  # O(dt^2)

    # defocusing branch: E(t) monotone non-increasing
    out = evolve(problem, v0, 800, store_every=50)
    E = [nls.gp_energy(f, t, 0.5, -1) for f, t in zip(out.fields, out.times)]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(E, E[1:]))


def test_long_range_phase_signature_small():
    # reduced-size version of the resonance check (full size in acceptance)
    n = 1024
    up = gaussian_field(240.0, n, 1e-2, width=2.0)
    report = nls.long_range_comparison(0.5, up, -1, (10.0, 2000.0), 900)
    assert report["defect_with_phase"] <= 0.5 * report["defect_without_phase"]
    assert report["mass_drift"] <= 1e-10


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
                        (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(InvalidParameter):
            gaussian_field(10.0, 64, norm, width)
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
    assert np.max(np.abs(out.fields[-1].values - ref)) <= 1e-12
    # the stepper overwrites its spectrum buffer at every step, so keep copies
    steps = [(k, t, vhat.copy()) for k, t, vhat, _ in nls._strang(problem, v0, n_steps)]
    assert not np.array_equal(steps[0][2], steps[-1][2])
    assert [k for k, _, _ in steps] == list(range(1, n_steps + 1))
    assert np.array_equal([t for _, t, _ in steps], nls.time_grid(problem, n_steps)[1:])
    assert np.max(np.abs(np.fft.ifft(steps[-1][2]) - ref)) <= 1e-12
    assert np.array_equal(out.times, nls.time_grid(problem, n_steps)[::100])


def _previous_strang(problem, v0, n_steps):
    """Reference: the stepper before its buffers, one complex exp per factor."""
    ts = nls.time_grid(problem, n_steps)
    xi2 = v0.xi() ** 2
    gp = problem.potential == "gp"
    a2 = problem.background_a**2 if gp else 0.0
    dw = np.log(ts[1:] / ts[:-1]) if gp else np.diff(ts)
    weight = problem.sign * problem.coeff * dw
    vhat = np.fft.fft(v0.values)
    for k in range(n_steps):
        half = np.exp(-1j * xi2 * (ts[k + 1] - ts[k]) / 2)
        v = np.fft.ifft(vhat * half)
        v = v * np.exp(1j * ((np.abs(v) ** 2 - a2) * weight[k]))
        vhat = np.fft.fft(v) * half
        yield k + 1, ts[k + 1], vhat


@pytest.mark.parametrize("potential", ["gp", "none"])
def test_stepper_equals_previous_loop(potential):
    # cos/sin into buffer views equal glibc's cexp bit for bit; the bound
    # leaves room for a libm whose cexp and cos/sin differ in the last bit
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
    out = evolve(problem, v0, n_steps, store_every=1)
    expect = [v0.values] + [np.fft.ifft(vhat.copy())
                            for _, _, vhat, _ in nls._strang(problem, v0, n_steps)]
    assert len(out.fields) == n_steps + 1
    for got, want in zip(out.fields, expect, strict=True):
        assert np.array_equal(got.values, want)
    for i in range(len(out.fields)):
        for j in range(i):
            assert not np.array_equal(out.fields[i].values, out.fields[j].values)


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
    assert len(out.fields) == 4
    assert len(calls) <= 2 * n_steps + 2 * len(out.fields)

