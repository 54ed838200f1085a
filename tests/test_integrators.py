"""Frame-kernel tests: the two-level prefix scan, the quaternion Magnus-4
step against dense matrix exponentials, the stability-regime oracle, and the
step planner."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from filamentlab import integrators
from filamentlab.errors import InvalidParameter, StepLimitExceeded
from filamentlab.integrators import (
    _Q_ONE,
    _SCAN_ROW,
    _qmul,
    _rotation,
    _scan,
    _unrotate,
    expm2,
    magnus_frame_step,
    propagate_frame,
    rodrigues_phi1,
)

B = _SCAN_ROW
SCAN_LENGTHS = (1, 2, 7, B, B + 1, B * B, B * B + 1, 1031)  # 1031 is prime


def _skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _random_quaternions(rng, n):
    q, _, _ = rodrigues_phi1(rng.normal(size=(n, 3)))
    return q


def _random_unitary2(rng, n):
    M = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return expm2(0.5j * (M + np.conj(np.swapaxes(M, 1, 2))))


@pytest.mark.parametrize("n", SCAN_LENGTHS)
@pytest.mark.parametrize("kind", ["quaternion", "matrix2"])
def test_scan_matches_sequential_product(kind, n):
    rng = np.random.default_rng(n)
    if kind == "quaternion":
        x, mul, one = _random_quaternions(rng, n), _qmul, _Q_ONE
    else:
        x, mul, one = _random_unitary2(rng, n), np.matmul, np.eye(2)
    out = _scan(x, mul, one)
    assert out.shape == x.shape
    acc = x[0]
    assert np.array_equal(out[0], x[0])
    for k in range(1, n):
        acc = mul(x[k], acc)
        assert np.max(np.abs(out[k] - acc)) < 1e-13, k


def test_quaternion_product_composes_rotations():
    rng = np.random.default_rng(1)
    p, q = _random_quaternions(rng, 50), _random_quaternions(rng, 50)
    assert np.max(np.abs(_rotation(_qmul(p, q)) - _rotation(p) @ _rotation(q))) < 1e-14
    v = rng.normal(size=(50, 3))
    assert np.max(np.abs(_unrotate(q, v) - np.einsum("ni,nij->nj", v, _rotation(q)))) < 1e-14


def test_magnus_frame_step_matches_augmented_expm():
    # the step is exp of the 4x4 position-augmented Magnus exponent
    # [[skew(omega), 0], [w, 0]] acting on rows (T, n, b, G); angles span the
    # series branch (< 1e-4) and the closed form
    rng = np.random.default_rng(2)
    n = 40
    h = np.concatenate([np.full(n // 2, 1e-7), np.full(n // 2, 0.3)])
    c1, c2 = 1 + rng.random(n), 1 + rng.random(n)
    t1, t2 = rng.normal(size=n), rng.normal(size=n)
    q, wV = magnus_frame_step(c1, c2, t1, t2, h)
    k = np.sqrt(3.0) * h * h / 12
    for i in range(n):
        v1, v2 = np.array([-t1[i], 0, -c1[i]]), np.array([-t2[i], 0, -c2[i]])
        omega = (h[i] / 2) * (v1 + v2) + k[i] * np.cross(v2, v1)
        X = np.zeros((4, 4))
        X[:3, :3] = _skew(omega)
        X[3, :3] = [h[i], k[i] * (c1[i] - c2[i]), 0.0]
        E = expm(X)
        assert np.max(np.abs(_rotation(q[i]) - E[:3, :3])) < 1e-14
        assert np.max(np.abs(wV[i] - E[3, :3])) < 1e-15
    assert np.max(np.abs(np.abs(q[:, 0]) ** 2 + np.abs(q[:, 1]) ** 2 - 1)) < 1e-15


def test_frame_oracle_stability_regime():
    # the t = 1e-4 slice of the stability run: c = a/sqrt(t), tau = s/2t, at
    # the pipeline's step 0.25/max|tau| over |s| <= 5 and 1000 steps per node
    c, t = 50.0, 1e-4
    tau = lambda s: s / (2 * t)

    def rhs(s, y):
        F = y[:9].reshape(3, 3)
        A = np.array([[0.0, c, 0.0], [-c, 0.0, tau(s)], [0.0, -tau(s), 0.0]])
        return np.concatenate([(A @ F).ravel(), F[0]])

    G0 = np.array([0.0, 0.0, 1.0])
    s, frames, points = propagate_frame(
        lambda x: np.full(np.shape(x), c), tau, 0.0, 0.05, np.eye(3),
        step=0.25 * 2 * t / 5.0, out_every=1000, position0=G0)
    ref = solve_ivp(rhs, (0.0, 0.05), np.concatenate([np.eye(3).ravel(), G0]),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=s)
    assert len(s) == 6
    assert np.max(np.abs(frames.reshape(-1, 9) - ref.y.T[:, :9])) < 1e-8
    assert np.max(np.abs(points - ref.y.T[:, 9:])) < 1e-8


def test_frames_orthonormal_across_chunks(monkeypatch):
    # several scan chunks per span: the frame handed from chunk to chunk
    # stays a rotation
    monkeypatch.setattr(integrators, "_CHUNK", 3000)
    s, frames, points = propagate_frame(
        lambda x: 1 + 0.3 * np.sin(x), lambda x: x / 2, 0.0, 40.0, np.eye(3),
        step=1e-3, out_every=7, position0=np.zeros(3))
    eye = np.eye(3)[None]
    assert np.max(np.abs(frames @ np.swapaxes(frames, 1, 2) - eye)) < 1e-13
    monkeypatch.undo()
    s2, frames2, points2 = propagate_frame(
        lambda x: 1 + 0.3 * np.sin(x), lambda x: x / 2, 0.0, 40.0, np.eye(3),
        step=1e-3, out_every=7, position0=np.zeros(3))
    assert np.array_equal(s, s2)
    assert np.max(np.abs(frames - frames2)) < 1e-12
    assert np.max(np.abs(points - points2)) < 1e-12


def test_plan_whole_span_gets_exact_block_count():
    # spans that are a whole number of blocks up to roundoff, as the
    # reconstruction asks for (step ds/m, m steps per block, s_max = k ds)
    for ds in (0.002, 0.005, 0.01, 0.02, 0.05):
        for m in (1, 3, 8, 50, 1000):
            for n_blocks in (1, 2, 7, 300, 500, 1500, 2000):
                s_end = ds * n_blocks
                for s1 in (s_end, -s_end):
                    h, mm, s_out, _ = integrators._plan(0.0, s1, ds / m, m, None)
                    assert len(s_out) == n_blocks + 1, (ds, m, n_blocks)
                    assert mm == m
    # a span just past a whole number of blocks still gets one more
    h, m, s_out, _ = integrators._plan(0.0, 1.0 + 1e-6, 0.1, 1, None)
    assert len(s_out) == 12


@settings(max_examples=300, deadline=None)
@given(s0_rel=st.floats(-100.0, 100.0),
       span=st.floats(1e-3, 1e3).flatmap(lambda x: st.sampled_from((x, -x))),
       blocks=st.floats(1e-6, 1e4), out_every=st.integers(1, 64),
       max_steps=st.integers(1, 10**6))
def test_plan_properties(s0_rel, span, blocks, out_every, max_steps):
    s0 = s0_rel * abs(span)
    s1 = s0 + span
    span = s1 - s0  # the span the planner sees
    step = abs(span) / (blocks * out_every)
    h, m, s_out, _ = integrators._plan(s0, s1, step, out_every, None)
    n_blocks = len(s_out) - 1
    assert m == out_every and n_blocks >= 1
    assert s_out[0] == s0
    assert abs(s_out[-1] - s1) <= 1e-12 * abs(span)
    assert h * m * n_blocks == pytest.approx(span, rel=1e-12)
    # the step bound holds, and one block fewer would break it: no spurious block
    assert abs(h) <= step * (1 + 1e-9)
    if n_blocks > 1:
        assert abs(span) / ((n_blocks - 1) * m) > step * (1 - 1e-9)
    if n_blocks * m > max_steps:
        with pytest.raises(StepLimitExceeded):
            integrators._plan(s0, s1, step, out_every, max_steps)
    else:
        assert len(integrators._plan(s0, s1, step, out_every, max_steps)[2]) == len(s_out)


@pytest.mark.parametrize("s0, s1", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                                    (math.inf, math.inf), (1.5, 1.5)])
def test_plan_rejects_non_finite_or_empty_span(s0, s1):
    with pytest.raises(InvalidParameter, match="span"):
        integrators._plan(s0, s1, 0.1, 4, None)


@pytest.mark.parametrize("out_every", [0, -3, 0.5])
def test_plan_rejects_out_every_below_one(out_every):
    with pytest.raises(InvalidParameter, match="out_every"):
        integrators._plan(0.0, 1.0, 0.1, out_every, None)
