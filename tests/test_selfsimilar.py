import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filamentlab import selfsimilar
from filamentlab.errors import InvalidParameter, OutOfProfileRange
from filamentlab.geometry import SolverConfig
from filamentlab.integrators import propagate_frame
from filamentlab.selfsimilar import chi, corner_angle, profile, self_intersections


def test_zero_curvature_is_straight_line():
    prof = profile(0.0, 10.0)
    s = prof.curve.s_grid
    assert np.max(np.abs(prof.curve.points - np.column_stack([s, 0 * s, 0 * s]))) < 1e-12
    assert np.allclose(prof.A_plus, [1, 0, 0], atol=1e-12)
    assert np.allclose(prof.A_minus, [1, 0, 0], atol=1e-12)


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        profile(-0.1, 10.0)
    with pytest.raises(InvalidParameter):
        profile(0.5, 0.0)
    # non-finite inputs fail before the default config divides by s_max
    with pytest.raises(InvalidParameter):
        profile(0.5, math.inf)
    with pytest.raises(InvalidParameter):
        profile(math.nan, 10.0)
    with pytest.raises(InvalidParameter):
        corner_angle(-1.0)


def test_angle_law_frenet_route():
    prof = profile(0.5, 400.0)
    exact = math.exp(-math.pi * 0.25 / 2)
    assert abs(prof.a1_estimate - exact) <= prof.a1_error_bound + 1e-3
    assert abs(prof.a1_estimate - 0.6752) < 1e-3


def _direct_left_half(a, s_max, cfg):
    """G_a integrated from 0 to -s_max, as profile() did before it mirrored."""
    return propagate_frame(lambda s: np.full(np.shape(s), float(a)), lambda s: s / 2,
                           0.0, -float(s_max), np.eye(3), step=cfg.step,
                           out_every=cfg.renorm_every,
                           position0=np.array([0.0, 0.0, 2 * a]),
                           max_steps=cfg.max_steps)


@pytest.mark.parametrize("a, s_max, cfg", [
    *((a, s_max, None) for a in (0.0, 0.1, 0.5, 1.0, 2.0)
      for s_max in (20.0, 100.0, 400.0, 500.0, 750.0)),
    (0.5, 100.0, SolverConfig(step=1e-3, renorm_every=16)),
])
def test_mirrored_half_equals_direct_run_bit_for_bit(a, s_max, cfg):
    prof = profile(a, s_max, cfg)
    s, frames, points = _direct_left_half(a, s_max, cfg or selfsimilar._default_cfg(s_max))
    n = len(s)
    assert len(prof.curve.s_grid) == 2 * n - 1
    for got, want in ((prof.curve.s_grid, s), (prof.curve.frames, frames),
                      (prof.curve.points, points)):
        assert got[:n][::-1].tobytes() == want.tobytes()


def test_mirror_defect_measures_the_direct_run():
    assert selfsimilar.mirror_defect(0.5, 60.0) == 0.0
    assert selfsimilar.mirror_defect(0.5, 100.0, SolverConfig(step=1e-3, renorm_every=16)) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(1.0, 200.0))
@example(0.0, 1.0)  # |G(0)|^2 = 4 a^2 = 0: no violation, not 0/0
def test_modulus_law_holds_across_a_and_span(a, s_max):
    assert selfsimilar.modulus_defect(profile(a, s_max)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(1.0, 200.0))
def test_mirror_equals_direct_run_across_a_and_span(a, s_max):
    assert selfsimilar.mirror_defect(a, s_max) == 0.0


def test_a1_error_bound_holds():
    for a in (0.1, 0.3, 0.5, 0.9, 1.5, 2.0):
        for s_max in (10.0, 40.0, 100.0, 250.0):
            prof = profile(a, s_max)
            S = prof.s_max
            assert prof.a1_error_bound == pytest.approx(2 * a / S + 2 * a * a / S**2,
                                                        rel=1e-15)
            err = abs(prof.a1_estimate - math.exp(-math.pi * a * a / 2))
            assert err <= prof.a1_error_bound


def test_modulus_law_reading_sharpens_a1():
    # G(S)/S misses exp(-pi a^2/2) by 5.5e-6 here; G(S)/(S + 2a^2/S) is G/|G|
    # to O(S^-4)
    prof = profile(0.5, 250.0)
    assert abs(prof.a1_estimate - math.exp(-math.pi * 0.25 / 2)) <= 1e-7


def test_modulus_law_and_parity():
    # parity between the nodes: x is odd and y, z are even
    sig = np.random.default_rng(0).uniform(0.0, 60.0, 1000)
    for a in (0.25, 1.0):
        prof = profile(a, 60.0)
        assert selfsimilar.modulus_defect(prof) <= 1e-6
        right = selfsimilar.evaluate(prof, sig)[1]
        left = selfsimilar.evaluate(prof, -sig)[1]
        assert np.max(np.abs(left - right * [-1.0, 1.0, 1.0])) <= 1e-12


def test_evaluate_between_nodes_matches_a_direct_run():
    a, cfg = 2.0, SolverConfig(step=1e-4, renorm_every=1)
    prof = profile(a, 30.0)
    for end in (0.123456, -7.654321, 29.9999):
        s, frames, points = selfsimilar._half(a, end, cfg)
        F, G = selfsimilar.evaluate(prof, np.array([end]))
        assert np.max(np.abs(G[0] - points[-1])) <= 1e-10
        assert np.max(np.abs(F[0] - frames[-1])) <= 1e-10


def test_evaluate_range_check_allows_roundoff():
    prof = profile(0.5, 10.0)
    S = prof.s_max
    edge = selfsimilar.evaluate(prof, np.array([-S * (1 + 1e-13), S * (1 + 1e-13)]))[1]
    assert np.allclose(edge, prof.curve.points[[0, -1]], atol=1e-10)
    with pytest.raises(OutOfProfileRange):
        selfsimilar.evaluate(prof, np.array([S * (1 + 1e-11)]))


@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.0, 2.0), span=st.floats(10.0, 400.0), data=st.data())
def test_sample_matches_the_dense_profile(a, span, data):
    # the stability run's reference, against evaluate on the dense profile.
    # Below a span of about 200 the profile's nodes lie up to 16 fine steps
    # apart; evaluate steps from the nearest one in steps of at most one
    # fine step, as sample does (one long step erred by 7.6e-10 at a = 2,
    # span 50)
    prof = profile(a, span)
    S = prof.s_max
    drawn = data.draw(st.lists(st.floats(-S, S), min_size=1, max_size=40))
    sigma = np.array(data.draw(st.permutations(drawn + drawn[:3] + [0.0, S, -S, 0.0])))
    F, G, A_plus, A_minus = selfsimilar.sample(a, span, sigma)
    F0, G0 = selfsimilar.evaluate(prof, sigma)
    assert np.max(np.abs(F - F0)) <= 1e-10
    # |G| = sqrt(sigma^2 + 4 a^2): the points agree relative to their size
    size = np.maximum(1.0, np.abs(sigma))[:, None]
    assert np.max(np.abs(G - G0) / size) <= 1e-10
    assert np.max(np.abs(A_plus - prof.A_plus)) <= 1e-10
    assert np.max(np.abs(A_minus - prof.A_minus)) <= 1e-10
    zero = sigma == 0
    assert np.all(F[zero] == np.eye(3)) and np.all(G[zero] == [0.0, 0.0, 2 * a])
    with pytest.raises(OutOfProfileRange):
        selfsimilar.sample(a, span, np.append(sigma, -S * (1 + 1e-11)))


@pytest.mark.parametrize("a, span", [(2.0, 50.0), (2.0, 60.0), (1.0, 10.0)])
def test_evaluate_between_short_span_nodes_matches_sample(a, span):
    # the profile's nodes lie 13 to 16 fine steps apart here; the midpoints
    # are the farthest points from a node (one Magnus step there: 9.1e-10)
    prof = profile(a, span)
    g = prof.curve.s_grid
    assert selfsimilar._grid(prof.s_max)[1] >= 13
    sigma = np.concatenate([(g[:-1] + g[1:]) / 2, g[:-1] + 0.3 * np.diff(g)])
    F, G = selfsimilar.sample(a, span, sigma)[:2]
    F0, G0 = selfsimilar.evaluate(prof, sigma)
    assert np.max(np.abs(F - F0)) <= 1e-11
    assert np.max(np.abs(G - G0) / np.maximum(1.0, np.abs(sigma))[:, None]) <= 1e-11


@settings(max_examples=8, deadline=None)
@given(a=st.floats(0.0, 2.0), span=st.floats(10.0, 900.0))
@example(0.0, 20.0)
@example(0.3, 15.0)
@example(2.0, 60.0)
@example(0.5, 500.004)
def test_sample_on_the_profile_nodes_is_the_profile(a, span):
    # the two routes to G_a share one grid (selfsimilar._grid): on the
    # profile's own nodes, a node every 16 fine steps at spans below 50,
    # every fine step beyond 785, the sampling reproduces the profile and
    # its A+/- bit for bit, signs of zero included
    prof = profile(a, span)
    F, G, A_plus, A_minus = selfsimilar.sample(a, span, prof.curve.s_grid)
    for got, want in ((F, prof.curve.frames), (G, prof.curve.points),
                      (A_plus, prof.A_plus), (A_minus, prof.A_minus)):
        assert got.tobytes() == want.tobytes()


def test_third_order_ode_residual_second_order():
    # G''' + (a^2 + s^2/4) G' - (s/4) G = 0 via finite differences
    a = 0.6

    def residual(step):
        prof = profile(a, 8.0, SolverConfig(step=step, renorm_every=8))
        s = prof.curve.s_grid
        h = s[1] - s[0]
        G = prof.curve.points
        d1 = (G[2:] - G[:-2]) / (2 * h)
        d3 = (G[4:] - 2 * G[3:-1] + 2 * G[1:-3] - G[:-4]) / (2 * h**3)
        coef = (a * a + s[2:-2] ** 2 / 4)[:, None]
        res = d3 + coef * d1[1:-1] - (s[2:-2] / 4)[:, None] * G[2:-2]
        return np.max(np.linalg.norm(res, axis=1))

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 / r2 > 3.0
    assert r2 < 2e-4


def test_corner_angle_closed_form_values():
    # frozen from direct evaluation of exp(-pi a^2/2) and 2 asin
    a1, gamma = corner_angle(0.0)
    assert a1 == 1.0 and gamma == pytest.approx(math.pi)
    a1, gamma = corner_angle(0.5)
    assert a1 == pytest.approx(0.6752319066557773, abs=1e-15)
    assert gamma == pytest.approx(1.4825581234056835, abs=1e-12)
    a1, gamma = corner_angle(1.0)
    assert a1 == pytest.approx(0.20787957635076193, abs=1e-15)
    assert gamma == pytest.approx(0.4188133568611601, abs=1e-12)


def test_gamma_measured_consistent_with_law():
    prof = profile(0.5, 400.0)
    _, gamma_cf = corner_angle(0.5)
    assert abs(prof.gamma_measured() - gamma_cf) < 2e-3


def test_a1_monotone_decreasing_in_a():
    vals = [profile(a, 200.0).a1_estimate for a in (0.25, 0.5, 1.0, 1.5, 2.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_chi_at_origin_and_scaling():
    prof = profile(1.0, 30.0)
    assert np.allclose(chi(prof, 0.0, 4.0), [0, 0, 4], atol=1e-12)
    lam = 2.0
    s, t = 1.3, 0.7
    left = chi(prof, lam * s, lam * lam * t)
    right = lam * chi(prof, s, t)
    assert np.max(np.abs(left - right)) < 1e-13


def test_corner_bound_prop_sweep():
    a = 0.5
    prof = profile(a, 80.0)
    for t in (1.0, 0.25, 0.01):
        sig = prof.curve.s_grid
        keep = np.abs(sig * math.sqrt(t)) <= 5.0
        s_phys = sig[keep] * math.sqrt(t)
        vals = math.sqrt(t) * prof.curve.points[keep]
        cone = chi(prof, s_phys, 0.0)
        sup = np.max(np.linalg.norm(vals - cone, axis=1))
        assert sup <= 2 * a * math.sqrt(t) * (1 + 1e-12)


def test_chi_range_check():
    prof = profile(0.5, 10.0)
    with pytest.raises(OutOfProfileRange):
        chi(prof, 20.0, 1.0)
    with pytest.raises(InvalidParameter):
        chi(prof, 1.0, -1.0)


def test_self_intersections_dichotomy():
    prof_small = profile(0.1, 100.0)
    assert len(self_intersections(prof_small)) == 0

    prof_large = profile(2.0, 100.0)
    roots = self_intersections(prof_large)
    assert len(roots) > 0
    # parity makes G(s*) = G(-s*) at the returned zeros
    for r in roots[:5]:
        gp = chi(prof_large, r, 1.0)
        gm = chi(prof_large, -r, 1.0)
        assert np.linalg.norm(gp - gm) <= 1e-8
    # x really vanishes there: a direct run that ends at each root, apart
    # from the evaluator that found it
    for r in roots[:5]:
        _, _, points = selfsimilar._half(2.0, r, SolverConfig(step=1e-4, renorm_every=1))
        assert abs(points[-1, 0]) < 1e-9


def test_small_a_first_zero_matches_sin_asymptotics():
    # near s = 0 the first component behaves like sin(a s)/a for large a
    prof = profile(2.0, 20.0)
    roots = self_intersections(prof)
    assert abs(roots[0] - math.pi / 2) < 0.2
