"""Property tests of invariants that point tests check only at a few inputs."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filamentlab import nls
from filamentlab.dataio import dumps_json


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
