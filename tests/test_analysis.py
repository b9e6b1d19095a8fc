import itertools

import numpy as np
import pytest

from ccdiff import (ConditionalScoreOracle, ExperimentConfig, IdentityOp,
                    InpaintOp, SamplerKind, SrOp, ValidationError,
                    contraction_rate, forward_error, make_ve_schedule,
                    make_vp_schedule, minimal_shortcut, noise_constant,
                    noise_constant_per_step, reverse_step_ddpm)
from ccdiff.analysis import (bound_traces, contraction_report,
                             noise_constant_candidates)
from ccdiff.rng import RngStream
from ccdiff.samplers import RULES
from ccdiff.schedules import forward_coeffs

VP = make_vp_schedule(1e-4, 0.02, 1000)
VE = make_ve_schedule(0.01, 378, 1000)


def _random_schedules(seed, count):
    gen = RngStream(seed, (0x5C,)).generator()
    out = []
    for _ in range(count):
        N = int(gen.integers(5, 400))
        bmin = float(gen.uniform(1e-5, 5e-3))
        bmax = float(gen.uniform(bmin * 2, 0.5))
        smin = float(gen.uniform(1e-3, 0.5))
        smax = float(gen.uniform(smin * 3, 500.0))
        out.append((make_vp_schedule(bmin, bmax, N), make_ve_schedule(smin, smax, N)))
    return out


# ---------------------------- contraction rate ------------------------------


def test_ddpm_lambda_first_step_is_zero():
    _, lam = contraction_rate(VP, SamplerKind.DDPM, 10)
    assert lam[0] == 0.0


def test_lambda_strictly_below_one_for_all_kinds():
    for vp, ve in _random_schedules(1, 40):
        n_prime = vp.N
        for kind, sch in ((SamplerKind.DDPM, vp), (SamplerKind.SMLD, ve),
                          (SamplerKind.DDIM, vp)):
            lam, per = contraction_rate(sch, kind, n_prime)
            assert lam < 1.0
            assert per.size == n_prime
            assert lam == per.max()


def test_ddpm_lambda_matches_coupled_pair_ratios_over_full_window():
    # Cross-module oracle: per-step shared-noise ratios from the sampler
    # equal the closed-form factors to 1e-9 for the first 200 steps.
    n_prime = 200
    _, lam = contraction_rate(VP, SamplerKind.DDPM, n_prime)
    rng = RngStream(2)
    ref = rng.substream(0).normal((16,))
    oracle = ConditionalScoreOracle(ref)
    x = rng.substream(1).normal((16,))
    xt = x + rng.substream(2).normal((16,))
    for i in range(2, n_prime + 1):  # i = 1 has ratio 0/0-free lambda = 0
        z = rng.substream(100 + i).normal((16,))
        a = reverse_step_ddpm(x, i, VP, oracle, z)
        b = reverse_step_ddpm(xt, i, VP, oracle, z)
        ratio = np.linalg.norm(a - b) / np.linalg.norm(x - xt)
        assert ratio == pytest.approx(lam[i - 1], rel=1e-9)


def test_smld_lambda_uses_sigma0():
    _, lam = contraction_rate(VE, SamplerKind.SMLD, 5)
    s = VE.sigma
    expected = (s[0] ** 2 - s[0] ** 2) / (s[1] ** 2 - s[0] ** 2)
    assert lam[0] == expected == 0.0
    assert lam[3] == pytest.approx(
        (s[3] ** 2 - s[0] ** 2) / (s[4] ** 2 - s[0] ** 2), rel=1e-15)


def test_ddim_lambda_on_vp_and_ve_views():
    _, lam_vp = contraction_rate(VP, SamplerKind.DDIM, 4)
    assert lam_vp[0] == 0.0  # ddim sigma_0 = 0
    d = VP.ddim_sigma
    assert lam_vp[2] == pytest.approx(d[2] / d[3], rel=1e-15)
    _, lam_ve = contraction_rate(VE, SamplerKind.DDIM, 4)
    s = VE.sigma
    assert lam_ve[1] == pytest.approx(s[1] / s[2], rel=1e-15)


# ----------------------------- noise constant -------------------------------


def test_noise_constant_examples():
    assert noise_constant(VP, SamplerKind.DDIM, 300, 64) == 0.0
    assert noise_constant(VP, SamplerKind.DDPM, 300, 64) == \
        pytest.approx(64 * VP.beta[300], rel=1e-15)
    # SMLD: closed form for the geometric grid vs the direct max scan
    n_prime, n = 700, 64
    scan = noise_constant(VE, SamplerKind.SMLD, n_prime, n)
    ratio = (VE.sigma[1] / VE.sigma[VE.N]) ** (2.0 / (VE.N - 1))
    closed = n * VE.sigma[n_prime] ** 2 * (1.0 - ratio)
    assert scan == pytest.approx(closed, rel=1e-12)


def test_noise_constant_candidates_surface_alternatives():
    cands = noise_constant_candidates(VP, SamplerKind.DDPM, 300, 64)
    assert cands["primary"] == pytest.approx(64 * VP.beta[300])
    assert cands["n_one_minus_alpha_N"] == pytest.approx(64 * 0.02)
    assert cands["n_one_minus_alpha_bar_N"] == pytest.approx(
        64 * (1 - VP.alpha_bar[1000]), rel=1e-12)
    cands_ve = noise_constant_candidates(VE, SamplerKind.SMLD, 700, 64)
    assert cands_ve["geometric_form"] == pytest.approx(cands_ve["primary"], rel=1e-12)


# ------------------------------ forward error -------------------------------


def test_forward_error_zero_eps0():
    for kind, sch in ((SamplerKind.DDPM, VP), (SamplerKind.SMLD, VE)):
        a, b = RULES[kind].coords(sch, 123)
        assert forward_error(0.0, sch, kind, 123, 32) == \
            pytest.approx(2 * b * b * 32, rel=1e-15)


def test_forward_error_full_path_ddpm_approaches_2n():
    val = forward_error(10.0, VP, SamplerKind.DDPM, 1000, 64)
    assert val == pytest.approx(2 * 64, rel=1e-3)


def test_forward_error_matches_monte_carlo():
    # 1e4 independent-noise pairs, n = 64, N' = 100, eps0 = 10, within 4 SE.
    n, M, n_prime, eps0 = 64, 10_000, 100, 10.0
    rng = RngStream(3)
    g = rng.substream(0).normal((n,))
    d = rng.substream(1).normal((n,))
    x0 = g + d * np.sqrt(eps0) / np.linalg.norm(d)
    for kind, sch in ((SamplerKind.DDPM, VP), (SamplerKind.SMLD, VE),
                      (SamplerKind.DDIM, VP)):
        c = forward_coeffs(sch, n_prime)
        X = c.a * x0 + c.b * rng.substream(10).normal((M, n))
        G = c.a * g + c.b * rng.substream(11).normal((M, n))
        diff = X - G
        if kind is SamplerKind.DDIM:
            diff = diff / np.sqrt(sch.alpha_bar[n_prime])
        sq = np.sum(diff ** 2, axis=1)
        se = sq.std(ddof=1) / np.sqrt(M)
        assert abs(sq.mean() - forward_error(eps0, sch, kind, n_prime, n)) <= 4 * se


def test_forward_error_ddim_uses_reparameterized_coordinates():
    val = forward_error(5.0, VP, SamplerKind.DDIM, 200, 16)
    sig = VP.ddim_sigma[200]
    assert val == pytest.approx(5.0 + 2 * sig ** 2 * 16, rel=1e-15)


def test_forward_error_rejects_negative_eps0():
    for eps0 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            forward_error(eps0, VP, SamplerKind.DDPM, 10, 4)


# -------------------------------- bounds ------------------------------------


def test_error_bound_ddim_is_pure_contraction_of_forward_error():
    lam, per = contraction_rate(VP, SamplerKind.DDIM, 50)
    cs = noise_constant_per_step(VP, SamplerKind.DDIM, 50, 64)
    fwd = forward_error(2.0, VP, SamplerKind.DDIM, 50, 64)
    simple, recursive = bound_traces(per, cs, 1.0, fwd)
    assert simple[0] == pytest.approx(lam ** 100 * fwd, rel=1e-12)
    assert recursive[0] == pytest.approx(np.prod(per ** 2) * fwd, abs=1e-300)


def test_error_bound_trivial_arithmetic():
    per = np.array([0.5, 0.5])
    cs = np.zeros(2)
    simple, recursive = bound_traces(per, cs, 1.0, 8.0)
    assert simple[0] == pytest.approx(0.5 ** 4 * 8.0, rel=1e-15)
    assert recursive[0] == pytest.approx(0.5, rel=1e-15)


def test_recursive_bound_never_exceeds_simple_bound():
    gen = RngStream(4, (0xB0,)).generator()
    count = 0
    for vp, ve in _random_schedules(5, 334):
        for kind, sch in ((SamplerKind.DDPM, vp), (SamplerKind.SMLD, ve),
                          (SamplerKind.DDIM, vp)):
            n_prime = int(gen.integers(1, sch.N + 1))
            n = int(gen.integers(1, 512))
            tau = float(gen.uniform(0.0, 1.0))
            eps0 = float(gen.uniform(0.0, 100.0))
            _, per = contraction_rate(sch, kind, n_prime)
            cs = noise_constant_per_step(sch, kind, n_prime, n)
            fwd = forward_error(eps0, sch, kind, n_prime, n)
            simple, recursive = bound_traces(per, cs, tau, fwd)
            assert recursive[0] <= simple[0] + 1e-12
            count += 1
    assert count >= 1000


def test_bound_traces_are_stepwise_ordered():
    _, per = contraction_rate(VP, SamplerKind.DDPM, 40)
    cs = noise_constant_per_step(VP, SamplerKind.DDPM, 40, 32)
    fwd = forward_error(3.0, VP, SamplerKind.DDPM, 40, 32)
    simple, rec = bound_traces(per, cs, 0.5, fwd)
    assert simple.shape == rec.shape == (41,)
    assert np.all(rec <= simple + 1e-12)
    assert rec[40] == fwd


def test_error_bound_rejects_non_contracting_lambda():
    with pytest.raises(ValidationError):
        bound_traces(np.array([1.0]), np.array([0.0]), 1.0, 1.0)
    with pytest.raises(ValidationError):
        bound_traces(np.array([0.5, np.nan]), np.array([0.0, 0.0]), 1.0, 1.0)
    for tau in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            bound_traces(np.array([0.5]), np.array([1.0]), tau, 1.0)


def _recursive_trace_on_numpy_scalars(lam, cs, tau, fwd_err):
    """The recursion as it ran on numpy float64 scalars: the bits to keep."""
    rec = np.empty(lam.size + 1)
    rec[lam.size] = fwd_err
    for j in range(lam.size, 0, -1):
        rec[j - 1] = lam[j - 1] ** 2 * rec[j] + 2.0 * cs[j - 1] * tau
    return rec


def _assert_recursive_trace_keeps_its_bits(schedule, kind, n_prime, n, tau, eps0):
    _, lam = contraction_rate(schedule, kind, n_prime)
    cs = noise_constant_per_step(schedule, kind, n_prime, n)
    fwd = forward_error(eps0, schedule, kind, n_prime, n)
    _, rec = bound_traces(lam, cs, tau, fwd)
    ref = _recursive_trace_on_numpy_scalars(lam, cs, tau, fwd)
    assert rec.dtype == ref.dtype and rec.shape == ref.shape
    assert rec.tobytes() == ref.tobytes(), (kind, n_prime, n, tau, eps0)


# Values cycled over N', so that every N' in 1..N runs once per kind and each
# value meets many N'.
BIT_GRID = list(itertools.product((1, 64, 4096, 10**6), (0.0, 0.3, 0.5, 1.0),
                                  (0.0, 0.1, 10.0, 1e4)))


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_recursive_trace_is_bit_identical_to_the_numpy_scalar_loop(kind):
    # On the N = 1000 VP schedule, lam * lam and np.power(lam, 2) each differ
    # from pow(lam, 2) in a few entries of lambda (2 for DDPM, 1 for DDIM).
    schedule = VE if kind is SamplerKind.SMLD else VP
    cases = zip(range(1, schedule.N + 1), itertools.cycle(BIT_GRID))
    for n_prime, (n, tau, eps0) in cases:
        _assert_recursive_trace_keeps_its_bits(schedule, kind, n_prime, n, tau, eps0)


def test_recursive_trace_keeps_its_bits_on_random_queries():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=300, deadline=None, database=None)
    @hyp.given(st.sampled_from(list(SamplerKind)), st.integers(1, 1000),
               st.integers(1, 10**8), st.floats(0.0, 1.0),
               st.floats(0.0, 1e6))
    def check(kind, n_prime, n, tau, eps0):
        schedule = VE if kind is SamplerKind.SMLD else VP
        _assert_recursive_trace_keeps_its_bits(schedule, kind, n_prime, n, tau, eps0)

    check()


# ----------------------------- minimal shortcut -----------------------------


def test_ddim_ve_closed_form_inversion_matches_scan():
    # sigma_{N'}^2 >= eps0/(2n) on the geometric grid inverts to
    # i = 1 + (N-1) ln(sqrt(eps0/2n)/sigma_min) / ln(sigma_max/sigma_min).
    eps0, n = 12.8, 64
    res = minimal_shortcut(eps0, 1.0, VE, SamplerKind.DDIM, 1.0, n)
    assert res.feasible
    target = np.sqrt(eps0 / (2 * n))
    closed = 1 + 999 * np.log(target / 0.01) / np.log(37800.0)
    assert res.n_prime == int(np.ceil(closed)) == 329
    assert target == pytest.approx(0.3162, abs=1e-4)
    assert VE.sigma[res.n_prime] ** 2 >= eps0 / (2 * n)
    assert VE.sigma[res.n_prime - 1] ** 2 < eps0 / (2 * n)


def test_shortcut_monotone_in_eps0_for_ddim_and_smld():
    lad = np.geomspace(0.5, 200.0, 10)
    prev_ddim = prev_smld = 0
    for eps0 in lad:
        r1 = minimal_shortcut(float(eps0), 1.0, VE, SamplerKind.DDIM, 1.0, 64)
        assert r1.feasible
        assert r1.n_prime >= prev_ddim
        prev_ddim = r1.n_prime
        r2 = minimal_shortcut(float(eps0), 1.0, VE, SamplerKind.SMLD, 1.0, 64)
        assert r2.feasible
        assert r2.n_prime >= prev_smld
        prev_smld = r2.n_prime


def test_ddpm_shortcut_satisfies_defining_inequalities():
    eps0, mu, tau, n = 48.0, 1.0, 3.0 / 64.0, 64
    res = minimal_shortcut(eps0, mu, VP, SamplerKind.DDPM, tau, n)
    assert res.feasible
    np_ = res.n_prime
    lower = 2 * np.log(4 * n / (mu * eps0))
    upper = mu * eps0 / (4 * n * tau)
    assert np_ * VP.beta[np_] >= lower
    assert np_ * VP.beta[np_] <= upper
    assert (np_ - 1) * VP.beta[np_ - 1] < lower  # minimality


def test_ddpm_shortcut_empty_window_is_reported_not_guessed():
    res = minimal_shortcut(0.5, 1.0, VP, SamplerKind.DDPM, 1.0, 64)
    assert not res.feasible
    assert res.n_prime is None
    assert "window" in res.reason or "unsatisfiable" in res.reason


def test_smld_shortcut_precondition_failures_name_the_condition():
    big_sigma_min = make_ve_schedule(5.0, 378.0, 100)
    res = minimal_shortcut(1.0, 1.0, big_sigma_min, SamplerKind.SMLD, 1.0, 64)
    assert not res.feasible and "sigma_min" in res.reason
    small_sigma_max = make_ve_schedule(1e-4, 1e-2, 100)
    res = minimal_shortcut(1000.0, 1.0, small_sigma_max, SamplerKind.SMLD, 1.0, 64)
    assert not res.feasible and "sigma_max" in res.reason


def test_ddim_shortcut_sigma0_violation_reported():
    fat = make_ve_schedule(5.0, 378.0, 100)
    res = minimal_shortcut(12.8, 1.0, fat, SamplerKind.DDIM, 1.0, 64)
    assert not res.feasible and "sigma_0" in res.reason


def test_shortcut_validates_inputs():
    with pytest.raises(ValidationError):
        minimal_shortcut(0.0, 1.0, VE, SamplerKind.DDIM, 1.0, 64)
    with pytest.raises(ValidationError):
        minimal_shortcut(1.0, 0.0, VE, SamplerKind.DDIM, 1.0, 64)
    with pytest.raises(ValidationError):
        minimal_shortcut(1.0, 2.0, VE, SamplerKind.DDIM, 1.0, 64)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            minimal_shortcut(bad, 1.0, VE, SamplerKind.DDIM, 1.0, 64)
        with pytest.raises(ValidationError):
            minimal_shortcut(1.0, bad, VE, SamplerKind.DDIM, 1.0, 64)
        with pytest.raises(ValidationError):
            minimal_shortcut(1.0, 1.0, VE, SamplerKind.DDIM, bad, 64)
    # 10**400 converts to no float.
    for n in (0, -5, 10**400, np.inf, np.nan):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            minimal_shortcut(1.0, 1.0, VE, SamplerKind.SMLD, 1.0, n)
        with pytest.raises(ValidationError, match="n must be >= 1"):
            contraction_report(VP, SamplerKind.DDPM, 120, n, 0.5, 10.0)


def _meets_checks(res, schedule, kind, n_prime):
    """Whether n_prime meets the inequalities recorded in ``res.checks``."""
    ch = res.checks
    if kind is SamplerKind.DDPM:
        v = n_prime * float(schedule.beta[n_prime])
        return ch["lower_threshold"] <= v <= ch["upper_threshold"]
    if kind is SamplerKind.SMLD:
        if not (ch["sigma_min_sq"] < ch["sigma_min_cap"]
                and ch["sigma_max_sq"] > ch["sigma_max_floor"]):
            return False
        r = (n_prime - 1.0) / (schedule.N - 1.0)
        return ch["ratio_lower"] <= r <= ch["ratio_upper"]
    sigma = schedule.ddim_sigma if schedule.is_vp else schedule.sigma
    return (ch["sigma0_sq"] <= ch["sigma0_cap"]
            and sigma[n_prime] ** 2 >= ch["sigma_floor_sq"])


def test_shortcut_is_the_first_step_meeting_its_checks():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def queries(draw):
        kind = draw(st.sampled_from(list(SamplerKind)))
        N = draw(st.integers(2, 300))
        # DDIM runs on both grids: the VP ddim_sigma view and a VE sigma grid.
        if kind is SamplerKind.SMLD or (kind is SamplerKind.DDIM and draw(st.booleans())):
            smin = draw(st.floats(1e-3, 1.0))
            schedule = make_ve_schedule(smin, smin * draw(st.floats(2.0, 1e5)), N)
        else:
            bmin = draw(st.floats(1e-5, 1e-2))
            schedule = make_vp_schedule(bmin, draw(st.floats(2e-2, 0.5)), N)
        eps0 = 10.0 ** draw(st.floats(-3.0, 4.0))
        mu = draw(st.floats(1e-3, 1.0))
        tau = draw(st.sampled_from([0.0, 1e-3, 0.25, 1.0]))
        return kind, schedule, eps0, mu, tau, draw(st.integers(1, 4096))

    @hyp.settings(max_examples=300, deadline=None, database=None)
    @hyp.given(queries())
    def check(query):
        kind, schedule, eps0, mu, tau, n = query
        res = minimal_shortcut(eps0, mu, schedule, kind, tau, n)
        # The loop reference: the first N' in 1..N whose checks hold.
        first = next((k for k in range(1, schedule.N + 1)
                      if _meets_checks(res, schedule, kind, k)), None)
        assert res.n_prime == first
        if res.feasible:
            assert _meets_checks(res, schedule, kind, res.n_prime)
            assert not (res.n_prime > 1
                        and _meets_checks(res, schedule, kind, res.n_prime - 1))
        else:
            assert res.n_prime is None and res.reason

    check()


# ---------------------------------- tau -------------------------------------


def test_shipped_operators_carry_exact_tau():
    assert IdentityOp((16,), np.zeros(16)).tau == 1.0
    gen = RngStream(6, (2,)).generator()
    mask = gen.uniform(size=(16, 16)) < 0.5
    mask.flat[0] = True
    op = InpaintOp(mask, np.zeros((16, 16)))
    m = int(mask.sum())
    assert op.tau == pytest.approx((256 - m) / 256, rel=1e-15)
    sr = SrOp(4, np.zeros((32, 32)))
    assert sr.tau == pytest.approx(15.0 / 16.0, rel=1e-15)


def test_experiment_config_refuses_an_operator_without_exact_tau():
    gt = np.zeros(64)

    class BlackBox:
        shape = (64,)

        def apply_linear(self, v):
            out = np.asarray(v).copy()
            out[::2] = 0.0  # projection dropping half the coordinates
            return out

        def offset(self, c, rng, batch_shape=()):
            return 0.0

    def config(op):
        return ExperimentConfig(schedule=VP, kind=SamplerKind.DDPM, t0=0.1,
                                trials=4, ground_truth=gt, init=gt, op=op,
                                oracle=ConditionalScoreOracle(gt), seed=0)

    with pytest.raises(ValidationError, match="tau"):
        config(BlackBox())
    for tau in (None, np.nan, np.inf, -0.5, 1.5, "0.5"):
        op = IdentityOp((64,), gt)
        op.tau = tau
        with pytest.raises(ValidationError, match="tau"):
            config(op)
    assert config(IdentityOp((64,), gt)).op.tau == 1.0


@pytest.mark.parametrize("kind", list(SamplerKind))
def test_contraction_report_refuses_a_forward_error_that_overflows(kind):
    # 2 b^2 n overflows at n = 1e308; the bounds would read inf and nan.
    schedule = VE if kind is SamplerKind.SMLD else VP
    with pytest.raises(ValidationError, match=r"^forward_error = inf overflows"):
        contraction_report(schedule, kind, 500, 10 ** 308, 1.0, 1.0)
    rep = contraction_report(schedule, kind, 500, 10 ** 300, 1.0, 1.0)
    values = [rep.forward_error, rep.C, rep.bound_simple, rep.bound_recursive,
              *rep.c_candidates.values()]
    assert np.isfinite(values).all()


def test_contraction_report_refuses_a_simple_bound_that_overflows():
    # The forward error 1.2e308 is finite; 2 C tau / (1 - lambda^2) is not.
    with pytest.raises(ValidationError, match=r"^bound_simple = inf overflows"):
        contraction_report(VP, SamplerKind.DDPM, 1000, 6 * 10 ** 307, 1.0, 1.0)


def test_contraction_report_assembles_consistently():
    rep = contraction_report(VP, SamplerKind.DDPM, 120, 64, 0.5, 10.0)
    assert rep.lam == rep.lambda_per_step.max()
    assert rep.bound_recursive <= rep.bound_simple + 1e-12
    assert rep.C == pytest.approx(64 * VP.beta[120], rel=1e-15)
    keys = dict(rep.rows())
    assert "lambda" in keys and "bound_recursive" in keys
    assert "C[n_one_minus_alpha_N]" in keys
