"""Property tests of invariants that point tests check only at a few inputs."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import flow, nls, selfsimilar
from filamentlab.dataio import dumps_json
from filamentlab.geometry import Curve, IntrinsicData
from filamentlab.integrators import _rotation


@st.composite
def fields(draw):
    n = draw(st.sampled_from([16, 32, 64, 128, 256, 1024]))
    length = draw(st.floats(0.5, 1e3))
    values = draw(arrays(complex, n, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    return nls.ComplexField(length, n, values)


@settings(max_examples=200, deadline=None)
@given(fields(), st.floats(1e-3, 1e3))
def test_pseudo_conformal_inverse_is_identity(v, t):
    back = nls.pseudo_conformal_inverse(nls.pseudo_conformal(v, t), t)
    assert back.n_points == v.n_points
    assert math.isclose(back.domain_length, v.domain_length, rel_tol=1e-15)
    assert math.isclose(back.s0, v.s0, rel_tol=1e-15)
    # the chirp e^{i s^2/4t} is rebuilt from a rescaled grid, so its phase
    # agrees to roundoff relative to its size; subnormal values round to
    # within the smallest normal float
    phase = t * (v.domain_length / 2) ** 2 / 4
    scale = float(np.max(np.abs(v.values)))
    bound = 16 * np.finfo(float).eps * (1 + phase) * scale + np.finfo(float).tiny
    assert np.max(np.abs(back.values - v.values)) <= bound


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 16), st.floats(1e-300, 1e300))
def test_xi_squared_is_mirror_symmetric(log2_n, length):
    # nls._strang evaluates the half-step on the N/2 + 1 distinct
    # frequencies and mirrors it, which needs x2[k] == x2[N - k] bit for bit
    with np.errstate(over="ignore"):
        x2 = nls.ComplexField.zeros(length, 1 << log2_n).xi() ** 2
    assert x2[0] == 0
    assert x2[1:].tobytes() == x2[:0:-1].tobytes()


# nls._unit_phase builds e^{iy} from t = tan(y/2); its error is tan's
# relative error plus five roundings, 1.8 eps and 2 eps in modulus at most
# as measured, with numpy's SIMD tan and with the scalar libm one
_UNIT_PHASE_BOUND = 4 * np.finfo(float).eps
# the largest free phase _check_free_phase admits is below 1/eps radians
_Y_MAX = 1 / np.finfo(float).eps


def _check_unit_phase(y):
    out = np.empty(y.shape, complex)
    nls._unit_phase(y / 2, out)
    assert np.max(np.abs(out - np.exp(1j * y)), initial=0) <= _UNIT_PHASE_BOUND
    assert np.max(np.abs(np.abs(out) - 1), initial=0) <= _UNIT_PHASE_BOUND
    return out


@settings(max_examples=300, deadline=None)
@given(arrays(float, st.integers(1, 64), elements=st.floats(
    -_Y_MAX, _Y_MAX, exclude_min=True, exclude_max=True)))
def test_unit_phase_is_exp_iy(y):
    # arrays of up to 64, so the vector loops and their remainders both run
    _check_unit_phase(y)


def test_unit_phase_at_its_hard_points():
    k = np.arange(-1000.0, 1001.0)
    for y in (k * np.pi, np.pi / 2 + k * np.pi, k * 1e12 * np.pi,
              np.array([0.99 * _Y_MAX, -0.99 * _Y_MAX])):
        _check_unit_phase(y)
    # e^{+-i0} is exactly 1
    out = _check_unit_phase(np.array([0.0, -0.0]))
    assert np.all(out.real == 1) and np.all(out.imag == 0)


# Hasimoto's map: a curve's filament function u = c e^{i int tau} fixes the
# curve up to a rigid motion.  The self-similar curve
# chi(s, t) = sqrt(t) G_a(s/sqrt(t)), turned by Q and moved by p, has
# c = a/sqrt(t) and tau = s/2t; (c, tau) read back from its u on every slice
# rebuild it from Q and its point at (0, 1).  The slices are integrated at a
# fine step <= 1e-3; the origin point chi(0, t) is a Simpson integral in
# log t over _HASIMOTO_TIMES slices, whose error sets the points' floor:
# 0.003 to 0.005 a h^4 measured over a in [0.1, 2] and t down to 1e-2, h
# the log-t step, so the points are bounded by 0.01 a h^4 (plus rounding
# of the shift).  The frames differ by at most 1.9e-10 (measured),
# bounded by 1e-9.
_HASIMOTO_TIMES = 33


@st.composite
def rigid_motions(draw):
    q = draw(arrays(float, 4, elements=st.floats(-1, 1)).filter(
        lambda q: np.linalg.norm(q) > 0.1))
    shift = draw(arrays(float, 3, elements=st.floats(-10, 10)))
    return _rotation((q[:2] + 1j * q[2:])[None])[0], shift


@settings(max_examples=12, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(1e-2, 0.5), rigid_motions())
def test_hasimoto_then_reconstruct_flow_reproduces_the_curve(a, t_min, motion):
    Q, shift = motion
    n, ds = 256, 0.02
    s = ds * (np.arange(n) - n // 2)
    t = t_min ** (1 - np.arange(_HASIMOTO_TIMES) / (_HASIMOTO_TIMES - 1))
    c, tau = [], []
    for tk in t:
        u = nls.hasimoto(IntrinsicData(s, tk, np.full(n, a / math.sqrt(tk)),
                                       s / (2 * tk))).values
        c.append(np.abs(u))
        tau.append(np.gradient(np.unwrap(np.angle(u)), ds, edge_order=2))
    point0 = shift + np.array([0.0, 0.0, 2 * a]) @ Q
    res = flow.reconstruct_flow(IntrinsicData(s, t, c, tau), Q, point0)
    sigma = (s[None] / np.sqrt(t)[:, None]).ravel()
    F, G, *_ = selfsimilar.sample(a, 1.01 * np.max(np.abs(sigma)), sigma)
    F, G = F.reshape(len(t), n, 3, 3), G.reshape(len(t), n, 3)
    h = math.log(1 / t_min) / (_HASIMOTO_TIMES - 1)
    for curve, tk, Fk, Gk in zip(res.curves, t, F, G):
        assert np.max(np.abs(curve.frames - Fk @ Q)) <= 1e-9
        assert np.max(np.abs(curve.points - (shift + math.sqrt(tk) * Gk @ Q))) <= (
            0.01 * a * h**4 + 1e-12 * np.max(np.abs(shift)))


# The energy law of the 1/t equation, dE/dt = sign coeff/(4 t^2)
# int (|v|^2 - a^2)^2, holds along its solutions, so gp_energy_law_defect
# of a Strang run tends to 0 at second order in the step.  Random
# band-limited fields around a, both signs, both coefficients: with the
# stored spacing halved with the step, the defect falls by 3.67 to 3.98
# from 400 to 800 steps (measured); at least 3 is required, as at the point
# test, while a law or stepper off by O(1) or O(dt) falls by 1 or 2.
@st.composite
def gp_runs(draw):
    n, length = 64, draw(st.floats(10.0, 60.0))
    a = draw(st.floats(0.2, 1.0))
    modes = draw(arrays(complex, 9, elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)).filter(
        lambda m: np.linalg.norm(m) > 0.1))
    modes *= draw(st.floats(0.01, 0.2)) * a / np.linalg.norm(modes)
    x = length * np.arange(n) / n
    k = np.arange(-4, 5)
    v0 = a + np.exp(2j * np.pi * np.outer(x, k) / length) @ modes
    t0 = draw(st.floats(0.5, 2.0))
    problem = nls.NlsProblem(sign=draw(st.sampled_from([-1, 1])), background_a=a,
                             potential="gp", t_span=(t0, t0 * draw(st.floats(1.5, 4.0))),
                             coeff=draw(st.sampled_from([0.5, 1.0])))
    return problem, nls.ComplexField(length, n, v0)


@settings(max_examples=25, deadline=None)
@given(gp_runs())
def test_gp_energy_law_defect_falls_at_second_order(run):
    problem, v0 = run
    defects = []
    for steps in (400, 800):
        out = nls.evolve(problem, v0, steps, store_every=20)
        defects.append(nls.gp_energy_law_defect(out.times, out.fields,
                                                problem.background_a, problem.sign,
                                                problem.coeff))
    assert defects[1] <= defects[0] / 3


# the CSV writer's %.17g reads back exactly, -0.0, subnormals, +-inf and nan
# included (nan as the one value float("nan") reads back)
_csv_floats = st.one_of(st.floats(allow_nan=False), st.just(math.nan))


@st.composite
def curves(draw):
    s = np.sort(np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=1, max_size=40, unique=True))))
    n = len(s)
    points = draw(arrays(float, (n, 3), elements=_csv_floats))
    frames = draw(st.none() | arrays(float, (n, 3, 3), elements=_csv_floats))
    return Curve(s, points, frames)


@settings(max_examples=100, deadline=None)
@given(curves())
def test_curve_csv_round_trip(tmp_path_factory, curve):
    path = tmp_path_factory.mktemp("csv") / "curve.csv"
    curve.write_csv(path)
    back = Curve.read_csv(path)
    assert back.s_grid.tobytes() == curve.s_grid.tobytes()
    assert back.points.tobytes() == curve.points.tobytes()
    if curve.frames is None:
        assert back.frames is None
    else:
        assert back.frames.tobytes() == curve.frames.tobytes()


# run.json writes non-finite floats as the strings "nan", "inf", "-inf",
# which float() reads back

def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_json_float_round_trip(x):
    assert _same(float(json.loads(dumps_json(x))), x)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
def test_json_array_round_trip(xs):
    out = json.loads(dumps_json({"values": np.array(xs, dtype=float)}))
    got = [float(x) for x in out["values"]]
    assert len(got) == len(xs)
    assert all(_same(g, x) for g, x in zip(got, xs))
