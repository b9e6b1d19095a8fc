import numpy as np
import pytest

from ccdiff import (ConditionalScoreOracle, GaussianScoreOracle,
                    ValidationError, ZeroScoreOracle, forward_coeffs,
                    make_ve_schedule, make_vp_schedule, reverse_step_ddpm)
from ccdiff.rng import RngStream

VP = make_vp_schedule(1e-4, 0.02, 1000)
VE = make_ve_schedule(0.01, 378, 1000)


def test_conditional_score_vanishes_at_kernel_mean():
    x_ref = RngStream(0).normal((32,))
    oracle = ConditionalScoreOracle(x_ref)
    c = forward_coeffs(VP, 257)
    out = oracle.score(c.a * x_ref, 257, VP)
    assert np.allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("schedule", [VP, VE], ids=["vp", "ve"])
@pytest.mark.parametrize("x_shape", [(16,), (3, 16)], ids=["single", "batched"])
def test_gaussian_with_zero_variance_degenerates_to_conditional(schedule, x_shape):
    # Bit for bit, and both equal to the kernel score -(x - a_i mu) / b_i^2.
    mu = RngStream(1).normal((16,))
    g = GaussianScoreOracle(mu=mu, var=0.0)
    cond = ConditionalScoreOracle(mu)
    x = RngStream(2).normal(x_shape)
    for i in (1, 100, 1000):
        c = forward_coeffs(schedule, i)
        kernel = -(x - c.a * mu) / (c.b * c.b)
        assert np.array_equal(g.score(x, i, schedule), kernel)
        assert np.array_equal(cond.score(x, i, schedule), kernel)
        jd = np.full(x_shape, -1.0 / (c.b * c.b))
        assert np.array_equal(np.broadcast_to(g.slope(i, schedule), x.shape), jd)
        assert np.array_equal(np.broadcast_to(cond.slope(i, schedule), x.shape), jd)


@pytest.mark.parametrize("var", ["scalar", "per-pixel"])
@pytest.mark.parametrize("schedule, i", [(VP, 257), (VE, 20)], ids=["vp", "ve"])
def test_gaussian_score_keeps_the_bits_of_negate_then_divide(schedule, i, var):
    # The score divides by the negated denominator, and skips a_i mu on VE
    # steps (a_i = 1).  Byte for byte it must equal negating, then dividing,
    # signed zeros included: half of x sits exactly at a_i mu.
    mu = RngStream(4).normal((4, 16))
    v = 0.25 if var == "scalar" else RngStream(5).uniform(0.0, 2.0, (4, 16))
    c = forward_coeffs(schedule, i)
    assert (c.a < 1.0) == (schedule is VP)
    x = np.where(np.arange(16) % 2 == 0, c.a * mu, RngStream(6).normal((4, 16)))
    old = np.subtract(x, c.a * mu)
    np.negative(old, out=old)
    old /= c.a * c.a * np.asarray(v) + c.b * c.b
    assert np.signbit(old[x == c.a * mu]).any()
    assert GaussianScoreOracle(mu, v).score(x, i, schedule).tobytes() == old.tobytes()


def test_conditional_score_one_noise_std_from_mean():
    x_ref = RngStream(3).normal((8,))
    oracle = ConditionalScoreOracle(x_ref)
    c = forward_coeffs(VP, 1000)
    x = c.a * x_ref + c.b * np.ones(8)
    out = oracle.score(x, 1000, VP)
    assert np.allclose(out, -np.ones(8) / c.b, rtol=1e-12)
    assert c.b == pytest.approx(0.99998, abs=1e-5)


def test_jacobian_closed_forms():
    x_ref = RngStream(4).normal((12,))
    x = RngStream(5).normal((12,))
    cond = ConditionalScoreOracle(x_ref)
    for schedule, i in ((VP, 400), (VE, 400)):
        c = forward_coeffs(schedule, i)
        jd = np.broadcast_to(cond.slope(i, schedule), x.shape)
        assert np.allclose(jd, -1.0 / c.b ** 2, rtol=1e-14)
    g0 = GaussianScoreOracle(mu=x_ref, var=0.0)
    for schedule in (VP, VE):
        assert np.array_equal(np.broadcast_to(g0.slope(123, schedule), x.shape),
                              np.broadcast_to(cond.slope(123, schedule), x.shape))


def test_gaussian_unit_variance_jacobian_is_minus_one_on_vp():
    # Variance preserving: a^2 var + b^2 = a^2 + b^2 = 1 when var = 1.
    g = GaussianScoreOracle(mu=np.zeros(6), var=1.0)
    x = RngStream(6).normal((6,))
    for i in (1, 77, 1000):
        assert np.allclose(np.broadcast_to(g.slope(i, VP), x.shape), -1.0, rtol=1e-14)


def _fd_slope(oracle, x, i, schedule, h=1e-5):
    out = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        sp = oracle.score(x + e, i, schedule)
        sm = oracle.score(x - e, i, schedule)
        out.flat[k] = (sp.flat[k] - sm.flat[k]) / (2 * h)
    return out


@pytest.mark.parametrize("make_oracle", [
    lambda rng: ConditionalScoreOracle(rng.substream(0).normal((9,))),
    lambda rng: GaussianScoreOracle(mu=rng.substream(0).normal((9,)),
                                    var=rng.substream(1).uniform(0.1, 2.0, (9,))),
])
def test_finite_difference_jacobian_matches_closed_form(make_oracle):
    rng = RngStream(7)
    oracle = make_oracle(rng)
    for trial in range(10):
        x = rng.substream(10 + trial).normal((9,))
        i = int(rng.substream(100 + trial).uniform(1, VP.N + 1))
        fd = _fd_slope(oracle, x, i, VP)
        exact = np.broadcast_to(oracle.slope(i, VP), x.shape)
        assert np.allclose(fd, exact, rtol=1e-6)


def test_reverse_map_jacobian_ties_to_contraction_factor():
    # Finite differences on the composed reverse step reproduce
    # sqrt(alpha_i) (1 - alpha_bar_{i-1}) / (1 - alpha_bar_i).
    rng = RngStream(8)
    x_ref = rng.substream(0).normal((5,))
    oracle = ConditionalScoreOracle(x_ref)
    x = rng.substream(1).normal((5,))
    for i in (2, 50, 700):
        h = 1e-6
        e = np.zeros(5)
        e[2] = h
        zp = np.zeros(5)
        fp = reverse_step_ddpm(x + e, i, VP, oracle, zp)
        fm = reverse_step_ddpm(x - e, i, VP, oracle, zp)
        fd = (fp[2] - fm[2]) / (2 * h)
        expected = (np.sqrt(VP.alpha[i]) * (1 - VP.alpha_bar[i - 1])
                    / (1 - VP.alpha_bar[i]))
        assert fd == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("var", ["scalar", "per-pixel"])
@pytest.mark.parametrize("schedule", [VP, VE], ids=["vp", "ve"])
def test_score_is_affine_in_x(schedule, var):
    # s = J_i x + c_i: mixtures commute with the score, and the difference
    # of two scores is the slope times the difference of their arguments.
    rng = RngStream(9)
    v = 0.5 if var == "scalar" else rng.substream(3).uniform(0.1, 2.0, (7,))
    oracle = GaussianScoreOracle(mu=rng.substream(0).normal((7,)), var=v)
    x, y = rng.substream(1).normal((7,)), rng.substream(2).normal((7,))
    for a in (0.0, 0.3, 1.0):
        mix = oracle.score(a * x + (1 - a) * y, 321, schedule)
        parts = (a * oracle.score(x, 321, schedule)
                 + (1 - a) * oracle.score(y, 321, schedule))
        assert np.allclose(mix, parts, rtol=1e-12)
    for i in (1, 321, 1000):
        sx, sy = oracle.score(x, i, schedule), oracle.score(y, i, schedule)
        tol = 1e-12 * max(np.abs(sx).max(), np.abs(sy).max())
        assert np.abs((sx - sy) - oracle.slope(i, schedule) * (x - y)).max() <= tol


def test_validation_errors():
    oracle = ZeroScoreOracle()
    x = np.zeros(4)
    with pytest.raises(ValidationError):
        oracle.score(x, 0, VP)
    with pytest.raises(ValidationError):
        oracle.score(x, VP.N + 1, VP)
    with pytest.raises(ValidationError):
        oracle.slope(VP.N + 1, VP)
    assert oracle.slope(VP.N, VP) == 0.0
    # The last two do not broadcast to the mean's shape (3,): ccdf_sample
    # used to die mid-loop on numpy's broadcast error.
    for var in (-1.0, np.nan, np.inf, [0.5, np.nan, 0.5], np.ones(2), np.ones((2, 3))):
        with pytest.raises(ValidationError):
            GaussianScoreOracle(mu=np.zeros(3), var=var)
    with pytest.raises(ValidationError, match=r"\(3,\).*\(4, 4\)"):
        GaussianScoreOracle(mu=np.zeros((4, 4)), var=np.ones(3))


def test_output_shape_matches_input_shape():
    oracle = ConditionalScoreOracle(np.zeros((4, 4)))
    x = RngStream(10).normal((3, 4, 4))  # leading batch axis broadcasts
    out = oracle.score(x, 11, VP)
    assert out.shape == x.shape
