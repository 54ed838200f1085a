"""Property tests of invariants that point tests check only at a few inputs."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import nls
from filamentlab.dataio import dumps_json
from filamentlab.geometry import Curve


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
