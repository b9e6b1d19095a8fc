import gc
import io
import weakref

import numpy as np
import pytest

from ccdiff import (SamplerKind, ValidationError, forward_coeffs,
                    make_ve_schedule, make_vp_schedule, step_index_of_time)
from ccdiff import schedules
from ccdiff.imgio import write_csv
from ccdiff.schedules import schedule_rows, ve_increment

# High-precision product of (1 - beta_i) for VP(1e-4, 0.02, 1000), computed
# once with mpmath at 50 digits (see test_alpha_bar_against_mpmath_oracle).
ALPHA_BAR_1000 = 4.0358297653756833e-05


def test_vp_endpoints_match_reference_hyperparameters():
    s = make_vp_schedule(1e-4, 0.02, 1000)
    assert s.beta[1] == 1e-4
    assert s.beta[1000] == 0.02
    assert s.N == 1000


def test_vp_two_point_schedule_is_exact():
    s = make_vp_schedule(1e-4, 0.02, 2)
    assert s.beta[1] == 1e-4 and s.beta[2] == 0.02


def test_alpha_bar_against_mpmath_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    prod = mp.mpf(1)
    for i in range(1, 1001):
        beta = mp.mpf("1e-4") + (i - 1) * (mp.mpf("0.02") - mp.mpf("1e-4")) / 999
        prod *= 1 - beta
    assert float(prod) == pytest.approx(ALPHA_BAR_1000, rel=1e-15)
    s = make_vp_schedule(1e-4, 0.02, 1000)
    assert s.alpha_bar[1000] == pytest.approx(ALPHA_BAR_1000, rel=1e-13)


def test_alpha_bar_exponential_cross_check():
    # exp(-sum beta) = exp(-N (beta_min + beta_max)/2) ~ 4.3e-5 is only a
    # first-order approximation of the product; the true gap is 6.5%, so the
    # cross-check tolerance is 8% (the second-order term sum(beta^2)/2 ~ 0.067).
    s = make_vp_schedule(1e-4, 0.02, 1000)
    approx = np.exp(-1000 * (1e-4 + 0.02) / 2)
    assert approx == pytest.approx(4.3e-5, rel=0.01)
    assert s.alpha_bar[1000] == pytest.approx(approx, rel=0.08)


def test_vp_monotonicity_invariants():
    s = make_vp_schedule(1e-4, 0.02, 500)
    assert np.all(np.diff(s.beta[1:]) > 0)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[0] == 1.0
    assert s.ddim_sigma[0] == 0.0
    assert np.all(np.diff(s.ddim_sigma) > 0)


def test_vp_variance_preserving_identity():
    s = make_vp_schedule(1e-4, 0.02, 333)
    for i in (1, 10, 100, 333):
        c = forward_coeffs(s, i)
        assert c.a ** 2 + c.b ** 2 == pytest.approx(1.0, abs=1e-15)


def test_ve_endpoints_match_reference_hyperparameters():
    v = make_ve_schedule(0.01, 378, 1000)
    assert v.sigma[1] == pytest.approx(0.01, rel=1e-15)
    assert v.sigma[1000] == pytest.approx(378.0, rel=1e-12)


def test_ve_two_point_schedule_extrapolates_sigma0():
    v = make_ve_schedule(0.01, 378, 2)
    assert v.sigma[0] == pytest.approx(0.01 ** 2 / 378, rel=1e-12)
    assert v.sigma[1] == pytest.approx(0.01, rel=1e-15)
    assert v.sigma[2] == pytest.approx(378.0, rel=1e-12)


def test_ve_midpoint_matches_closed_form():
    v = make_ve_schedule(0.01, 378, 1000)
    closed = 0.01 * 37800.0 ** (499.0 / 999.0)
    assert v.sigma[500] == pytest.approx(closed, rel=1e-12)
    assert closed == pytest.approx(1.926, rel=0.01)


def test_ve_sigma_strictly_increasing_and_b_increasing():
    v = make_ve_schedule(0.01, 378, 200)
    assert np.all(np.diff(v.sigma) > 0)
    b = np.array([forward_coeffs(v, i).b for i in range(1, 201)])
    assert np.all(np.diff(b) > 0)
    assert b[-1] == pytest.approx(np.sqrt(v.sigma[200] ** 2 - v.sigma[0] ** 2))


def test_forward_coeffs_examples():
    # DDPM with alpha_bar_i = 0.25 -> (0.5, sqrt(0.75)); betas chosen so that
    # (1 - b1)(1 - b2) = 0.25 exactly in the algebra.
    s = make_vp_schedule(0.4, 1.0 - 0.25 / 0.6, 2)
    c = forward_coeffs(s, 2)
    assert c.a == pytest.approx(0.5, rel=1e-12)
    assert c.b == pytest.approx(np.sqrt(0.75), rel=1e-12)

    v = make_ve_schedule(0.01, 378, 100)
    c1 = forward_coeffs(v, 1)
    assert c1.a == 1.0
    assert c1.b == pytest.approx(np.sqrt(v.sigma[1] ** 2 - v.sigma[0] ** 2), rel=1e-15)

    s = make_vp_schedule(1e-4, 0.02, 1000)
    c = forward_coeffs(s, 1000)
    assert c.a == pytest.approx(np.sqrt(ALPHA_BAR_1000), rel=1e-12)
    assert c.a == pytest.approx(6.6e-3, rel=0.05)
    assert c.b == pytest.approx(0.99998, abs=1e-5)


def test_schedules_are_pure_data():
    a = make_vp_schedule(1e-4, 0.02, 100)
    b = make_vp_schedule(1e-4, 0.02, 100)
    for name in ("beta", "alpha", "alpha_bar", "sigma", "ddim_sigma"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    with pytest.raises(ValueError):
        a.beta[3] = 0.5  # frozen arrays


@pytest.mark.parametrize("args", [
    (0.0, 0.02, 100), (-1e-4, 0.02, 100), (0.02, 0.02, 100),
    (0.03, 0.02, 100), (1e-4, 1.0, 100), (1e-4, 1.5, 100), (1e-4, 0.02, 1),
])
def test_vp_rejects_bad_arguments(args):
    with pytest.raises(ValidationError):
        make_vp_schedule(*args)


def test_vp_refuses_a_beta_min_below_float_resolution():
    # 1 - 1e-17 rounds to 1: alpha_bar_1 = 1 and b_1 = 0 would make every
    # later quotient by b_1 or 1 - alpha_bar_1 warn and turn nan.
    with pytest.raises(ValidationError, match="beta_min = 1e-17 is below float resolution"):
        make_vp_schedule(1e-17, 0.02, 100)
    s = make_vp_schedule(1e-16, 0.02, 100)
    assert s.alpha_bar[1] < 1.0 and forward_coeffs(s, 1).b > 0.0


def test_vp_refuses_an_alpha_bar_that_underflows():
    # alpha_bar_N = 0 would make ddim_sigma_N infinite and lambda_N = nan.
    with pytest.raises(ValidationError, match="alpha_bar_N = 0 underflows at beta_min = 0.5, "
                                              "beta_max = 0.9, N = 2000"):
        make_vp_schedule(0.5, 0.9, 2000)
    # 0.5^1021 is a normal float: ddim_sigma_N^2 stays finite.
    s = make_vp_schedule(0.5, 0.500000001, 1021)
    assert s.alpha_bar[-1] >= np.finfo(np.float64).tiny
    assert np.isfinite(s.ddim_sigma[-1] ** 2)
    with pytest.raises(ValidationError, match="underflows"):
        make_vp_schedule(0.5, 0.500000001, 1022)


def test_ve_refuses_a_first_sigma_that_rounds_to_the_second():
    # sigma_max / sigma_min = 1 + 1e-15 puts sigma_0 at sigma_1: b_1 = 0.
    with pytest.raises(ValidationError, match=r"sigma_0 rounds to sigma_1 \(b_1 = 0\) at "
                                              "sigma_min = 1, sigma_max = 1.000000000000001, "
                                              "N = 1000"):
        make_ve_schedule(1, 1.000000000000001, 1000)
    s = make_ve_schedule(1, 1.00000000001, 1000)
    assert s.sigma[0] < s.sigma[1] and forward_coeffs(s, 1).b > 0.0


@pytest.mark.parametrize("args", [
    (0.0, 378, 100), (-0.01, 378, 100), (378, 0.01, 100),
    (0.01, 0.01, 100), (0.01, 378, 1), (0.01, np.inf, 4), (np.nan, 378, 100),
])
def test_ve_rejects_bad_arguments(args):
    with pytest.raises(ValidationError):
        make_ve_schedule(*args)


def test_forward_coeffs_rejects_out_of_range_index():
    s = make_vp_schedule(1e-4, 0.02, 10)
    for i in (0, 11, -3):
        with pytest.raises(ValidationError):
            forward_coeffs(s, i)


def _bytes(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


# On each VE schedule here a scalar sigma_i ** 2 (libm pow) differs from the
# product sigma_i * sigma_i at one step i, as the test checks.
MEMO_VP = [(1e-4, 0.02, 1000), (1e-3, 0.05, 50), (0.1, 0.3, 7)]
MEMO_VE = [(0.01, 378.0, 1000), (0.12, 212.4, 208), (0.02, 50.0, 50)]


@pytest.mark.parametrize("args", MEMO_VP)
def test_memoised_vp_coefficients_have_the_bits_of_their_formula(args):
    s = make_vp_schedule(*args)
    for i in np.random.default_rng(1).permutation(np.arange(1, s.N + 1)):
        c = forward_coeffs(s, i)
        ab = s.alpha_bar[i]
        assert _bytes(c.a, c.b) == _bytes(float(np.sqrt(ab)), float(np.sqrt(1.0 - ab))), i
        assert forward_coeffs(s, i) is c


@pytest.mark.parametrize("args", MEMO_VE)
def test_memoised_ve_coefficients_and_increments_have_the_bits_of_their_formula(args):
    s = make_ve_schedule(*args)
    sig = s.sigma
    assert any(sig[i] ** 2 != sig[i] * sig[i] for i in range(s.N + 1))
    for i in np.random.default_rng(2).permutation(np.arange(1, s.N + 1)):
        c = forward_coeffs(s, i)
        b = float(np.sqrt(sig[i] ** 2 - sig[0] ** 2))
        assert _bytes(c.a, c.b) == _bytes(1.0, b), i
        dv = float(sig[i] ** 2 - sig[i - 1] ** 2)
        assert _bytes(*ve_increment(s, i)) == _bytes(dv, np.sqrt(dv)), i
        assert forward_coeffs(s, i) is c and ve_increment(s, i) is ve_increment(s, i)


@pytest.mark.parametrize("make, args", [(make_vp_schedule, (1e-4, 0.02, 10)),
                                        (make_ve_schedule, (0.01, 378.0, 10))])
def test_step_scalars_refuse_an_index_out_of_range_before_reading_the_memo(make, args):
    s = make(*args)
    for i in (0, s.N + 1, -1, -s.N):
        for fn in (forward_coeffs, ve_increment):
            with pytest.raises(ValidationError, match="out of range"):
                fn(s, i)
    assert s not in schedules._MEMOS
    # With every entry filled; unchecked, -1 and -N would read the arrays'
    # entries N and 1 from their end.
    for i in range(1, s.N + 1):
        forward_coeffs(s, i), ve_increment(s, i)
    for i in (0, s.N + 1, -1, -s.N):
        for fn in (forward_coeffs, ve_increment):
            with pytest.raises(ValidationError, match="out of range"):
                fn(s, i)


def test_the_step_memo_is_freed_with_its_schedule():
    gc.collect()
    before = len(schedules._MEMOS)
    own = make_ve_schedule(0.01, 378.0, 1000)
    c = forward_coeffs(own, 10)
    ve_increment(own, 10)
    assert len(schedules._MEMOS) == before + 1
    coeffs_ref, schedule_ref = weakref.ref(c), weakref.ref(own)
    del own, c
    gc.collect()
    assert schedule_ref() is None and coeffs_ref() is None
    assert len(schedules._MEMOS) == before


def test_step_index_of_time():
    assert step_index_of_time(0.02, 1000) == 20
    assert step_index_of_time(1.0, 1000) == 1000
    assert step_index_of_time(1e-9, 1000) == 1
    with pytest.raises(ValidationError):
        step_index_of_time(0.0, 1000)
    with pytest.raises(ValidationError):
        step_index_of_time(1.2, 1000)


def test_every_step_index_is_reached_by_its_own_time():
    # t0 = k/N names every N' = k: contract's --t0 is the only way to set N'.
    for N in range(2, 1001):
        for k in range(1, N + 1):
            assert step_index_of_time(k / N, N) == k


def test_with_kind_retag():
    s = make_vp_schedule(1e-4, 0.02, 10)
    assert s.with_kind(SamplerKind.DDIM) is s
    with pytest.raises(ValidationError):
        s.with_kind(SamplerKind.SMLD)
    v = make_ve_schedule(0.01, 378, 10)
    with pytest.raises(ValidationError):
        v.with_kind(SamplerKind.DDIM)


def test_schedule_csv_round_trip_fields():
    s = make_vp_schedule(1e-4, 0.02, 5)
    buf = io.StringIO()
    write_csv(buf, schedule_rows(s))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,beta,alpha,alpha_bar,sigma,ddim_sigma"
    assert len(lines) == 7  # header + rows 0..5
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 1.0

    v = make_ve_schedule(0.01, 378, 4)
    buf = io.StringIO()
    write_csv(buf, schedule_rows(v))
    row = buf.getvalue().strip().splitlines()[1].split(",")
    assert row[1] == "" and row[5] == ""  # beta / ddim_sigma absent for VE


def test_schedule_invariants_hold_for_random_parameters():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def schedules(draw):
        N = draw(st.integers(2, 2000))
        if draw(st.booleans()):
            bmin = draw(st.floats(1e-6, 2e-2))
            bmax = bmin + draw(st.floats(0.01, 1.0)) * (0.05 - bmin)
            return make_vp_schedule(bmin, bmax, N)
        smin = draw(st.floats(1e-3, 10.0))
        return make_ve_schedule(smin, smin * draw(st.floats(1.5, 1e5)), N)

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(schedules(), st.floats(0.0, 1.0, exclude_min=True))
    def check(s, t):
        names = ("beta", "alpha", "alpha_bar", "sigma", "ddim_sigma")
        arrays = [getattr(s, name) for name in names]
        assert all((arr is None) == (not s.is_vp and name != "sigma")
                   for name, arr in zip(names, arrays))
        for arr in arrays:
            if arr is not None:
                assert arr.shape == (s.N + 1,) and arr.dtype == np.float64
                assert not arr.flags.writeable
        coeffs = [forward_coeffs(s, i) for i in range(1, s.N + 1)]
        if s.is_vp:
            assert np.array_equal(s.alpha_bar, np.cumprod(s.alpha))
            assert np.all(np.diff(s.ddim_sigma) > 0)
            assert all(abs(c.a ** 2 + c.b ** 2 - 1.0) <= 1e-15 for c in coeffs)
        else:
            assert np.all(np.diff(s.sigma) > 0)
            assert all(c.a == 1.0 for c in coeffs)
        assert 1 <= step_index_of_time(t, s.N) <= s.N

    check()
