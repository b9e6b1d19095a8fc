import contextlib
import hashlib
import os
import signal
import time

import numpy as np
import pytest

from ccdiff import (CcdfConfig, ConditionalScoreOracle, GaussianScoreOracle,
                    IdentityOp, InpaintOp, SamplerKind, SrOp, ValidationError,
                    ZeroScoreOracle, ccdf_sample, contraction_rate,
                    forward_coeffs, forward_diffuse, gaussian1d_mask,
                    langevin_corrector, make_phantom, make_ve_schedule,
                    make_vp_schedule, mri_measure, mri_projection,
                    reverse_step_ddim, reverse_step_ddpm, reverse_step_smld)
from ccdiff import rng, samplers
from ccdiff.rng import RngStream
from ccdiff.samplers import REFILL_MIN_VALUES, reverse_path

VP = make_vp_schedule(1e-4, 0.02, 1000)
VE = make_ve_schedule(0.01, 378, 1000)


class CountingOracle(ConditionalScoreOracle):
    def __init__(self, mu):
        super().__init__(mu)
        self.calls = 0

    def score(self, x, i, schedule):
        self.calls += 1
        return super().score(x, i, schedule)


class CountingInpaintOp(InpaintOp):
    offset_calls = 0

    def offset(self, c, rng, batch_shape=()):
        self.offset_calls += 1
        return super().offset(c, rng, batch_shape)


# ------------------------------ forward ------------------------------------


def test_forward_diffuse_is_one_draw_and_matches_coefficients():
    x0 = RngStream(0).normal((32,))
    z = RngStream(1).normal((32,))
    out = forward_diffuse(x0, 1000, VP, z)
    c = forward_coeffs(VP, 1000)
    assert np.allclose(out, c.a * x0 + c.b * z, rtol=1e-15)
    assert c.a == pytest.approx(6.6e-3, rel=0.05)


def test_forward_diffuse_zero_noise_limit_returns_scaled_input():
    x0 = RngStream(2).normal((8,))
    out = forward_diffuse(x0, 5, VP, np.zeros(8))
    assert np.allclose(out, np.sqrt(VP.alpha_bar[5]) * x0, rtol=1e-15)


def test_forward_diffuse_monte_carlo_second_moment():
    # mean ||x_N' - a x0||^2 / n over 1e4 trials matches b^2 within 4 SE
    n, M, n_prime = 64, 10_000, 300
    x0 = RngStream(3).normal((n,))
    rng = RngStream(4)
    c = forward_coeffs(VP, n_prime)
    out = forward_diffuse(x0, n_prime, VP, rng.normal((M, n)))
    sq = np.sum((out - c.a * x0) ** 2, axis=1) / n
    se = sq.std(ddof=1) / np.sqrt(M)
    assert abs(sq.mean() - c.b ** 2) <= 4 * se


# ------------------------------- DDPM --------------------------------------


def test_reverse_ddpm_zero_score_is_pure_rescale():
    x = RngStream(5).normal((16,))
    out = reverse_step_ddpm(x, 40, VP, ZeroScoreOracle(), np.zeros(16))
    assert np.allclose(out, x / np.sqrt(VP.alpha[40]), rtol=1e-15)


def test_reverse_ddpm_at_kernel_mean_matches_symbolic_oracle():
    # sympy oracle: with s = -(x - a_i x_ref)/b_i^2 and x = a_i x_ref, the
    # noiseless update collapses to sqrt(alpha_bar_{i-1}) x_ref.
    sympy = pytest.importorskip("sympy")
    alpha_i, abar_i, abar_prev = sympy.symbols("alpha_i abar_i abar_prev",
                                               positive=True)
    x_ref = sympy.Symbol("x_ref")
    a_i = sympy.sqrt(abar_i)
    x = a_i * x_ref
    s = -(x - a_i * x_ref) / (1 - abar_i)
    update = (x + (1 - alpha_i) * s) / sympy.sqrt(alpha_i)
    collapsed = sympy.simplify(update.subs(abar_i, alpha_i * abar_prev))
    assert sympy.simplify(collapsed - sympy.sqrt(abar_prev) * x_ref) == 0

    ref = RngStream(6).normal((8,))
    oracle = ConditionalScoreOracle(ref)
    i = 123
    x_num = np.sqrt(VP.alpha_bar[i]) * ref
    out = reverse_step_ddpm(x_num, i, VP, oracle, np.zeros(8))
    assert np.allclose(out, np.sqrt(VP.alpha_bar[i - 1]) * ref, rtol=1e-12)


def test_reverse_ddpm_coupled_ratio_equals_contraction_factor():
    rng = RngStream(7)
    ref = rng.substream(0).normal((24,))
    oracle = ConditionalScoreOracle(ref)
    _, lam = contraction_rate(VP, SamplerKind.DDPM, VP.N)
    for i in (1, 2, 57, 600, 1000):
        x = rng.substream(i).normal((24,))
        xt = x + rng.substream(i + 5000).normal((24,)) * 0.1
        z = rng.substream(i + 9000).normal((24,))
        a = reverse_step_ddpm(x, i, VP, oracle, z)
        b = reverse_step_ddpm(xt, i, VP, oracle, z)
        ratio = np.linalg.norm(a - b) / np.linalg.norm(x - xt)
        assert ratio == pytest.approx(lam[i - 1], abs=1e-12, rel=1e-9)


# ------------------------------- SMLD --------------------------------------


def test_reverse_smld_zero_score_zero_noise_is_identity():
    x = RngStream(10).normal((16,))
    out = reverse_step_smld(x, 77, VE, ZeroScoreOracle(), np.zeros(16))
    assert np.array_equal(out, x)


def test_reverse_smld_coupled_ratio_equals_contraction_factor():
    rng = RngStream(11)
    ref = rng.substream(0).normal((24,))
    oracle = ConditionalScoreOracle(ref)
    _, lam = contraction_rate(VE, SamplerKind.SMLD, VE.N)
    for i in (1, 2, 123, 999):
        x = rng.substream(i).normal((24,))
        xt = x + rng.substream(i + 5000).normal((24,))
        z = rng.substream(i + 9000).normal((24,))
        a = reverse_step_smld(x, i, VE, oracle, z)
        b = reverse_step_smld(xt, i, VE, oracle, z)
        ratio = np.linalg.norm(a - b) / np.linalg.norm(x - xt)
        assert ratio == pytest.approx(lam[i - 1], abs=1e-12, rel=1e-9)


def test_smld_rejects_vp_schedule_and_vice_versa():
    x = np.zeros(4)
    with pytest.raises(ValidationError):
        reverse_step_smld(x, 3, VP, ZeroScoreOracle(), x)
    with pytest.raises(ValidationError):
        reverse_step_ddpm(x, 3, VE, ZeroScoreOracle(), x)
    with pytest.raises(ValidationError):
        reverse_step_ddim(x, 3, VE, ZeroScoreOracle())


# ------------------------------- DDIM --------------------------------------


def test_reverse_ddim_matches_reparameterized_update():
    # x_bar_{i-1} = x_bar_i + (sigma_{i-1} - sigma_i) z_hat, x_bar = x/sqrt(abar)
    rng = RngStream(12)
    ref = rng.substream(0).normal((32,))
    oracle = ConditionalScoreOracle(ref)
    worst = 0.0
    for trial in range(1000):
        i = 1 + int(rng.substream(trial).uniform(0, VP.N))
        x = rng.substream(10_000 + trial).normal((32,))
        out = reverse_step_ddim(x, i, VP, oracle)
        z_hat = -oracle.score(x, i, VP) * np.sqrt(1 - VP.alpha_bar[i])
        xbar = x / np.sqrt(VP.alpha_bar[i])
        alt = (xbar + (VP.ddim_sigma[i - 1] - VP.ddim_sigma[i]) * z_hat) \
            * np.sqrt(VP.alpha_bar[i - 1])
        denom = max(np.max(np.abs(out)), 1e-300)
        worst = max(worst, np.max(np.abs(out - alt)) / denom)
    assert worst <= 1e-12


def test_reverse_ddim_zero_score_rescales():
    x = RngStream(13).normal((8,))
    out = reverse_step_ddim(x, 44, VP, ZeroScoreOracle())
    assert np.allclose(out, x * np.sqrt(VP.alpha_bar[43] / VP.alpha_bar[44]),
                       rtol=1e-14)


def test_reverse_ddim_coupled_ratio_in_reparameterized_coordinates():
    rng = RngStream(14)
    ref = rng.substream(0).normal((24,))
    oracle = ConditionalScoreOracle(ref)
    _, lam = contraction_rate(VP, SamplerKind.DDIM, VP.N)
    for i in (2, 3, 100, 1000):
        x = rng.substream(i).normal((24,))
        xt = x + rng.substream(i + 5000).normal((24,))
        a = reverse_step_ddim(x, i, VP, oracle)
        b = reverse_step_ddim(xt, i, VP, oracle)
        num = np.linalg.norm(a - b) / np.sqrt(VP.alpha_bar[i - 1])
        den = np.linalg.norm(x - xt) / np.sqrt(VP.alpha_bar[i])
        assert num / den == pytest.approx(lam[i - 1], abs=1e-12, rel=1e-9)


# ----------------------------- corrector -----------------------------------


def test_corrector_step_size_vanishes_for_huge_score_norm():
    # ||s|| is ~||x - x_ref|| / b_1^2 with b_1^2 ~ 2e-6, so eps -> 0.  Under
    # the literal rule the additive-noise term sqrt(2 eps) z vanishes while
    # the score displacement stays pinned at 2 r ||z||; under the squared
    # rule the whole update vanishes ("x nearly unchanged" holds exactly).
    x = RngStream(15).normal((64,))
    oracle = ConditionalScoreOracle(x + 5.0)
    z = RngStream(16).normal((64,))
    s = oracle.score(x, 1, VE)
    eps = 2 * 0.16 * np.linalg.norm(z) / np.linalg.norm(s)
    assert eps < 1e-6
    out = langevin_corrector(x, 1, VE, oracle, 0.16, z)
    noise_part = out - (x + eps * s)
    assert np.linalg.norm(noise_part) <= np.sqrt(2 * eps) * np.linalg.norm(z) * (1 + 1e-9)
    assert np.linalg.norm(noise_part) < 1e-2
    score_part = out - noise_part - x
    assert np.linalg.norm(score_part) == pytest.approx(
        2 * 0.16 * np.linalg.norm(z), rel=1e-9)
    out_sq = langevin_corrector(x, 1, VE, oracle, 0.16, z,
                                squared_step=True)
    assert np.linalg.norm(out_sq - x) < 1e-2


def test_corrector_r_zero_returns_input_unchanged():
    x = RngStream(17).normal((16,))
    out = langevin_corrector(x, 100, VE, ConditionalScoreOracle(np.zeros(16)),
                             0.0, RngStream(18).normal((16,)))
    assert out is x or np.array_equal(out, x)


def test_corrector_zero_score_norm_skips_with_warning(caplog):
    x = RngStream(19).normal((8,))
    oracle = ConditionalScoreOracle(x / forward_coeffs(VE, 50).a)
    # score is exactly zero at the kernel mean scaled anchor
    out = langevin_corrector(forward_coeffs(VE, 50).a * oracle.mu, 50, VE,
                             oracle, 0.16, RngStream(20).normal((8,)))
    assert np.array_equal(out, forward_coeffs(VE, 50).a * oracle.mu)


def test_corrector_rejects_vp_schedule():
    with pytest.raises(ValidationError):
        langevin_corrector(np.zeros(4), 10, VP, ZeroScoreOracle(), 0.16,
                           RngStream(21).normal((4,)))


def test_corrector_golden_regression_lock():
    # Frozen from the first verified run: r = 0.16, fixed seed, conditional
    # oracle, n = 64 (default linear step-size rule).
    rng = RngStream(2024)
    x_ref = rng.substream(0).normal((64,))
    x = x_ref + 0.3 * rng.substream(1).normal((64,))
    out = langevin_corrector(x, 500, VE, ConditionalScoreOracle(x_ref), 0.16,
                             rng.substream(2).normal((64,)))
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == ("13e65a178f021f8003a42e3c100a2cb404ed17aa"
                      "482eee86a2ffd17631014048")
    assert float(out.sum()) == pytest.approx(-6.107475260417614, rel=1e-12)


def test_corrector_squared_step_contracts_toward_anchor():
    rng = RngStream(22)
    x_ref = rng.substream(0).normal((64,))
    x = x_ref + 0.5 * rng.substream(1).normal((64,))
    out = langevin_corrector(x, 10, VE, ConditionalScoreOracle(x_ref), 0.16,
                             rng.substream(2).normal((64,)), squared_step=True)
    assert np.linalg.norm(out - x_ref) < np.linalg.norm(x - x_ref)


def _corrector_with_state_sized_clamp(x, i, schedule, oracle, r, z, batch_axes,
                                      squared_step):
    # The clamp as it ran before the oracles had a slope: J broadcast to the
    # state, abs, a per-sample max-reduce and np.where.  Also returns the
    # rows on which the clamp binds.
    s = oracle.score(x, i, schedule)
    data_axes = tuple(range(batch_axes, x.ndim))
    s_norm = np.sqrt(np.add.reduce(s * s, axis=data_axes, keepdims=True))
    z_norm = np.sqrt(np.add.reduce(z * z, axis=data_axes, keepdims=True))
    if squared_step:
        eps = 2.0 * (r * z_norm / s_norm) ** 2
    else:
        eps = 2.0 * r * z_norm / s_norm
    c = forward_coeffs(schedule, i)
    j = np.broadcast_to(-1.0 / (c.a * c.a * oracle.var + c.b * c.b),
                        x.shape).astype(np.float64)
    j_max = np.maximum.reduce(np.abs(j), axis=data_axes, keepdims=True)
    limit = 1.0 / np.maximum(j_max, 1e-300)
    binds = (eps > limit).ravel()
    eps = np.where(j_max > 0.0, np.minimum(eps, limit), eps)
    s *= eps
    s += x
    s += np.sqrt(2.0 * eps) * z
    return s, binds


@pytest.mark.parametrize("squared_step", [False, True], ids=["literal", "squared"])
@pytest.mark.parametrize("var", ["scalar", "per-pixel"])
@pytest.mark.parametrize("shape, batch_axes", [((6, 8, 8), 1), ((2, 3, 8, 8), 2)],
                         ids=["batch1", "batch2"])
def test_corrector_clamp_from_the_slope_keeps_the_state_sized_bits(shape, batch_axes,
                                                                    var, squared_step):
    # Every other sample sits 1e-6 from the anchor, where eps would blow up
    # and the clamp binds; the rest sit 3 away, where it does not.
    rng = RngStream(40)
    mu = rng.substream(0).normal((8, 8))
    v = 0.25 if var == "scalar" else rng.substream(1).uniform(0.1, 2.0, (8, 8))
    oracle = GaussianScoreOracle(mu=mu, var=v)
    near = np.arange(int(np.prod(shape[:batch_axes]))) % 2 == 0
    offset = np.where(near, 1e-6, 3.0).reshape(shape[:batch_axes] + (1, 1))
    x = mu + offset * rng.substream(2).normal(shape)
    z = rng.substream(3).normal(shape)
    want, binds = _corrector_with_state_sized_clamp(x, 20, VE, oracle, 0.16, z,
                                                    batch_axes, squared_step)
    assert np.array_equal(binds, near)
    out = langevin_corrector(x, 20, VE, oracle, 0.16, z, batch_axes=batch_axes,
                             squared_step=squared_step)
    assert out.tobytes() == want.tobytes()


# ----------------------------- ccdf loop -----------------------------------


def test_ccdf_identity_ddim_converges_to_anchor_as_t0_grows():
    ref = RngStream(23).normal((16,))
    oracle = ConditionalScoreOracle(ref)
    op = IdentityOp(ref.shape, ref)
    errs = []
    for t0 in (0.05, 0.2, 1.0):
        cfg = CcdfConfig(t0=t0, N=1000, kind=SamplerKind.DDIM)
        out = ccdf_sample(ref + 0.5, op, cfg, VP, oracle, RngStream(24))
        errs.append(np.linalg.norm(out - ref))
    # exact conditional score: the anchor is recovered regardless of t0
    assert all(e < 1e-8 for e in errs)


def test_ccdf_executes_exactly_t0n_reverse_iterations():
    ref = RngStream(25).normal((16,))
    oracle = CountingOracle(ref)
    cfg = CcdfConfig(t0=0.02, N=1000, kind=SamplerKind.DDIM)
    assert cfg.n_prime == 20
    ccdf_sample(ref, IdentityOp(ref.shape, ref), cfg, VP, oracle, RngStream(26))
    assert oracle.calls == 20  # one score evaluation per reverse step


def test_ccdf_names_the_step_that_turned_non_finite():
    class InfAtStep5(ConditionalScoreOracle):
        def score(self, x, i, schedule):
            s = super().score(x, i, schedule)
            return s + np.inf if i == 5 else s

    ref = RngStream(25).normal((16,))
    cfg = CcdfConfig(t0=0.02, N=1000, kind=SamplerKind.DDPM)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValidationError, match="after step 5$"):
        ccdf_sample(ref, IdentityOp(ref.shape, ref), cfg, VP, InfAtStep5(ref),
                    RngStream(26))


def test_ccdf_mri_consistency_exact_on_sampled_frequencies():
    ph = make_phantom("ellipses", (32, 32), seed=1)
    mask = gaussian1d_mask((32, 32), 4.0, 0.1, seed=3)
    op = mri_projection(mask, mri_measure(ph, mask))
    oracle = ConditionalScoreOracle(ph)
    cfg = CcdfConfig(t0=0.02, N=1000, kind=SamplerKind.SMLD)
    out = ccdf_sample(op.vanilla_init(), op, cfg, VE, oracle, RngStream(27))
    assert op.residual(out) <= 1e-10


@pytest.mark.parametrize("r, per_step", [(0.0, 1), (0.16, 2)])
def test_ccdf_smld_runs_corrector_and_second_consistency_only_for_r_positive(
        r, per_step):
    # r = 0: one reverse step and one consistency map per step, exactly the
    # map the coupled-pair harness certifies; r > 0 adds a corrector step
    # (one more score call) and a second consistency map (one more offset).
    ref = make_phantom("blocks", (16, 16), seed=3)
    mask = np.zeros((16, 16), dtype=bool)
    mask[::2] = True
    op = CountingInpaintOp(mask, ref)
    oracle = CountingOracle(ref)
    cfg = CcdfConfig(t0=0.02, N=1000, kind=SamplerKind.SMLD, corrector_r=r)
    ccdf_sample(op.vanilla_init(), op, cfg, VE, oracle, RngStream(32))
    assert oracle.calls == per_step * cfg.n_prime
    assert op.offset_calls == per_step * cfg.n_prime


def test_ccdf_bitwise_determinism():
    ref = RngStream(28).normal((16,))
    oracle = ConditionalScoreOracle(ref)
    op = IdentityOp(ref.shape, ref)
    for kind, sch in ((SamplerKind.DDPM, VP), (SamplerKind.SMLD, VE),
                      (SamplerKind.DDIM, VP)):
        cfg = CcdfConfig(t0=0.05, N=1000, kind=kind)
        a = ccdf_sample(ref + 0.3, op, cfg, sch, oracle, RngStream(29))
        b = ccdf_sample(ref + 0.3, op, cfg, sch, oracle, RngStream(29))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind, r, op_name, digest, total", [
    (SamplerKind.DDPM, 0.0, "sr",
     "606324dabe56f4be1976209003ac74937ebb5550b1996ea0357cfca8c91611a2",
     140.75553426350228),
    (SamplerKind.SMLD, 0.16, "inpaint",
     "ad6a83b09608564a601c6222afb7f17add0e07720e4bc59b12bb439732af6c75",
     132.68364766828535),
], ids=["ddpm-sr", "smld-inpaint-corrected"])
def test_ccdf_golden_regression_lock(kind, r, op_name, digest, total):
    # Frozen before the reverse steps became pure functions of z: an
    # anchored DDPM case (SR offsets draw) and a corrected SMLD case.
    sch = VP if kind is SamplerKind.DDPM else VE
    ref = make_phantom("blocks", (16, 16), seed=5)
    if op_name == "sr":
        op = SrOp(4, ref)
    else:
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, ::2] = True
        op = InpaintOp(mask, ref)
    cfg = CcdfConfig(t0=0.05, N=1000, kind=kind, corrector_r=r)
    out = ccdf_sample(op.vanilla_init(), op, cfg, sch,
                      GaussianScoreOracle(mu=ref, var=0.25), RngStream(2025))
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest
    assert float(out.sum()) == pytest.approx(total, rel=1e-12)


def test_ccdf_shared_noise_per_step_ratio_never_exceeds_lambda():
    # Full coupled run with shared noise and shared anchors: each step's
    # error ratio stays within lambda_i (1 + 1e-9).
    n_prime = 50
    sch = make_vp_schedule(1e-4, 0.02, 100)
    ref = RngStream(30).normal((16,))
    oracle = ConditionalScoreOracle(ref)
    _, lam = contraction_rate(sch, SamplerKind.DDPM, n_prime)
    rng = RngStream(31)
    x = forward_diffuse(ref + 1.0, n_prime, sch, rng.substream(0).normal((16,)))
    g = forward_diffuse(ref, n_prime, sch, rng.substream(1).normal((16,)))
    for i in range(n_prime, 0, -1):
        before = np.linalg.norm(x - g)
        z = rng.substream(200 + i).normal((16,))
        x = reverse_step_ddpm(x, i, sch, oracle, z)
        g = reverse_step_ddpm(g, i, sch, oracle, z)
        after = np.linalg.norm(x - g)
        assert after <= before * lam[i - 1] * (1 + 1e-9) + 1e-30


def test_ccdf_validates_configuration():
    ref = np.zeros(8)
    op = IdentityOp(ref.shape, ref)
    oracle = ZeroScoreOracle()
    with pytest.raises(ValidationError):
        CcdfConfig(t0=0.0, N=100, kind=SamplerKind.DDPM)
    with pytest.raises(ValidationError):
        CcdfConfig(t0=1.5, N=100, kind=SamplerKind.DDPM)
    for r in (-0.1, np.nan, np.inf):
        with pytest.raises(ValidationError):
            CcdfConfig(t0=0.5, N=100, kind=SamplerKind.SMLD, corrector_r=r)
    cfg = CcdfConfig(t0=0.5, N=999, kind=SamplerKind.DDPM)
    with pytest.raises(ValidationError):
        ccdf_sample(ref, op, cfg, VP, oracle, RngStream(1))  # N mismatch
    cfg = CcdfConfig(t0=0.5, N=1000, kind=SamplerKind.SMLD)
    with pytest.raises(ValidationError):
        ccdf_sample(ref, op, cfg, VP, oracle, RngStream(1))  # kind/schedule
    bad_op = IdentityOp((4,), np.zeros(4))
    cfg = CcdfConfig(t0=0.5, N=1000, kind=SamplerKind.DDPM)
    with pytest.raises(ValidationError):
        ccdf_sample(ref, bad_op, cfg, VP, oracle, RngStream(1))  # shape
    nan_init = ref.copy()
    nan_init[3] = np.nan
    with pytest.raises(ValidationError):
        ccdf_sample(nan_init, op, cfg, VP, oracle, RngStream(1))  # non-finite


def test_ccdf_refuses_an_oracle_mean_that_does_not_fit_before_any_plan(monkeypatch):
    # A mean with an extra axis would broadcast the state up to its shape; a
    # shorter one would fail mid-path in numpy's broadcasting.
    ref = np.zeros(16)
    op = IdentityOp(ref.shape, ref)
    cfg = CcdfConfig(t0=0.02, N=1000, kind=SamplerKind.DDPM)
    plans = []
    monkeypatch.setattr(samplers, "plan_draws", lambda *args: plans.append(args))
    for mu in (np.zeros((3, 16)), np.zeros(8), np.zeros((16, 1))):
        with pytest.raises(ValidationError, match="does not fit the operator's shape"):
            ccdf_sample(ref, op, cfg, VP, ConditionalScoreOracle(mu), RngStream(1))
    assert plans == []
    monkeypatch.undo()
    out = ccdf_sample(ref, op, cfg, VP, ConditionalScoreOracle(np.zeros(1)), RngStream(1))
    assert out.shape == ref.shape


def test_rng_streams_are_reproducible_and_independent():
    a = RngStream(42, (1, 2)).normal((8,))
    b = RngStream(42, (1, 2)).normal((8,))
    c = RngStream(42, (1, 3)).normal((8,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    s = RngStream(42).substream(1, 2).normal((8,))
    assert np.array_equal(a, s)


# --------------------------- memory and aliasing ----------------------------

# One (1152, 16, 16) float64 state is 2.25 MiB, more than a 2 MiB L2, as in
# the benchmark's coupled-pair cells.  The allowance over whole states covers
# numpy's iterator buffers and the per-trial step sizes.
STATE = (1152, 16, 16)
ALLOWANCE = 1 / 16


@pytest.mark.parametrize("step", ["ddpm", "smld", "ddim", "corrector"])
def test_steps_allocate_two_states_and_leave_x_and_z_alone(peak_states, step):
    ref = make_phantom("ellipses", STATE[1:], seed=33)
    x = RngStream(34).normal(STATE)
    z = RngStream(35).normal(STATE)
    x_copy, z_copy = x.copy(), z.copy()
    oracle = ConditionalScoreOracle(ref)
    call = {
        "ddpm": lambda: reverse_step_ddpm(x, 40, VP, oracle, z),
        "smld": lambda: reverse_step_smld(x, 40, VE, oracle, z),
        "ddim": lambda: reverse_step_ddim(x, 40, VP.with_kind(SamplerKind.DDIM), oracle),
        "corrector": lambda: langevin_corrector(x, 40, VE, oracle, 0.16, z, batch_axes=1),
    }[step]
    out = call()
    assert out is not x and out is not z
    assert peak_states(call, x) <= 2 + ALLOWANCE
    assert np.array_equal(x, x_copy) and np.array_equal(z, z_copy)


def test_reverse_path_leaves_oracle_and_operator_data_alone():
    ph = make_phantom("ellipses", (16, 16), seed=36)
    mask = gaussian1d_mask((16, 16), 4.0, 0.1, seed=36)
    mri = mri_projection(mask, mri_measure(ph, mask))
    cases = [
        (mri, GaussianScoreOracle(mu=ph, var=0.25), SamplerKind.SMLD, VE, 0.16),
        (IdentityOp(ph.shape, ph), ConditionalScoreOracle(ph), SamplerKind.DDPM, VP, 0.0),
        (IdentityOp(ph.shape, ph), ConditionalScoreOracle(ph), SamplerKind.DDIM, VP, 0.0),
    ]
    for op, oracle, kind, sch, r in cases:
        init = op.vanilla_init()
        data = [init, op.offset(None, None), oracle.mu]
        before = [np.copy(a) for a in data]
        cfg = CcdfConfig(t0=0.05, N=1000, kind=kind, corrector_r=r)
        ccdf_sample(init, op, cfg, sch, oracle, RngStream(37))
        for a, b in zip(data, before):
            assert np.array_equal(a, b)


# ------------------------ small-block noise plans ---------------------------


def _plan_case(name):
    """(x0, op, cfg, schedule, oracle) of a path whose draws are planned."""
    if name == "smld-64x64-corrected":
        ph = make_phantom("ellipses", (64, 64), seed=40)
        mask = gaussian1d_mask(ph.shape, 4.0, 0.08, seed=40)
        op = mri_projection(mask, mri_measure(ph, mask))
        cfg = CcdfConfig(t0=0.02, N=1000, kind=SamplerKind.SMLD, corrector_r=0.16,
                         corrector_squared_step=True)
        return op.vanilla_init(), op, cfg, VE, GaussianScoreOracle(mu=ph, var=1e-4)
    ph = make_phantom("blocks", (32, 32), seed=41)
    cfg = CcdfConfig(t0=0.05, N=1000, kind=SamplerKind.DDPM)
    return ph, SrOp(4, ph), cfg, VP, GaussianScoreOracle(mu=ph, var=0.25)


def _streams():
    """Forward, reverse, anchor and corrector streams, in that order."""
    return [RngStream(42, (k,)) for k in range(4)]


def _run_plan_case(case, streams, on_step=None):
    x0, op, cfg, sch, oracle = case
    x = forward_diffuse(x0, cfg.n_prime, sch, streams[0].normal(x0.shape))
    [x] = reverse_path([x], cfg, sch, oracle, op, [streams[1]], [streams[3]],
                       streams[2], on_step)
    return x


def _unplanned(monkeypatch):
    monkeypatch.setattr(samplers, "plan_draws",
                        lambda draws, job_values: contextlib.nullcontext())


def _assert_same_next_draws(streams, plain, shape):
    for s, ref in zip(streams, plain):
        assert np.array_equal(s.normal(shape), ref.normal(shape))


@pytest.mark.parametrize("name", ["smld-64x64-corrected", "ddpm-sr"])
def test_a_planned_path_keeps_its_bytes_and_every_stream_s_next_draw(monkeypatch, name):
    case = _plan_case(name)
    streams, plain = _streams(), _streams()
    x = _run_plan_case(case, streams)
    with monkeypatch.context() as m:
        _unplanned(m)
        want = _run_plan_case(case, plain)
    assert x.tobytes() == want.tobytes()
    _assert_same_next_draws(streams, plain, x.shape)


@pytest.mark.parametrize("stop", [20, 13, 4])
def test_a_path_stopped_by_a_non_finite_state_leaves_every_stream_exact(
        monkeypatch, stop):
    # 64x64 with the corrector: jobs of 16 draws end after steps 12 and 4.
    case = _plan_case("smld-64x64-corrected")

    def poison(i, states):
        if i == stop:
            states[0][0, 0] = np.nan
        samplers._check_finite(i, states)

    streams, plain = _streams(), _streams()
    for s, unplanned in ((streams, False), (plain, True)):
        with monkeypatch.context() as m:
            if unplanned:
                _unplanned(m)
            with pytest.raises(ValidationError, match=f"after step {stop}$"):
                _run_plan_case(case, s, poison)
    # The rest of the path's draws, kept and compared at the end: no job
    # left running may write into a draw once the path has stopped.
    shape = case[0].shape
    kept = [(streams[k].normal(shape), plain[k].normal(shape))
            for _ in range(stop - 1) for k in (1, 3)]
    assert all(np.array_equal(got, want) for got, want in kept)
    _assert_same_next_draws(streams, plain, shape)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_fork_mid_path_lets_parent_and_child_finish_with_the_same_bits(monkeypatch):
    case = _plan_case("smld-64x64-corrected")
    plain = _streams()
    with monkeypatch.context() as m:
        _unplanned(m)
        want = _run_plan_case(case, plain)
    want_next = [s.normal((5,)) for s in plain]
    pids, ok = [], False

    def fork_at_10(i, states):
        if i == 10:
            pids.append(os.fork())

    try:
        streams = _streams()
        x = _run_plan_case(case, streams, fork_at_10)
        ok = x.tobytes() == want.tobytes() and all(
            np.array_equal(s.normal((5,)), w) for s, w in zip(streams, want_next))
    finally:
        if pids == [0]:
            os._exit(0 if ok else 2)   # a child that raised exits 1 from here
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pids[0], os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pids[0], signal.SIGKILL)
        os.waitpid(pids[0], 0)
        pytest.fail("the forked child hung mid-path")
    assert ok and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_plan_jobs_hold_at_least_refill_min_values(monkeypatch):
    plans = []

    def kept(draws, job_values):
        plans.append(rng.plan_draws(draws, job_values))
        return plans[-1]

    monkeypatch.setattr(samplers, "plan_draws", kept)
    for name in ("smld-64x64-corrected", "ddpm-sr"):
        _run_plan_case(_plan_case(name), _streams())
    jobs = []
    for p in plans:
        bounds = [p.start] + p.ends
        sizes = [sum(out.size for _, out in p.draws[lo:hi])
                 for lo, hi in zip(bounds, bounds[1:])]
        assert all(v >= REFILL_MIN_VALUES for v in sizes[:-1])
        jobs.append(sizes)
    # 20 steps of a reverse and a corrector draw of 64x64 after the first
    # draw: 8 steps to a job.  50 steps of a reverse and an anchor draw of
    # 32x32: 32 steps to a job.
    assert jobs == [[16 * 4096, 16 * 4096, 7 * 4096], [64 * 1024, 35 * 1024]]
    assert [s.stream for s, _ in plans[0].draws[:3]] == [(1,), (3,), (1,)]
    assert [s.stream for s, _ in plans[1].draws[:3]] == [(1,), (2,), (1,)]
