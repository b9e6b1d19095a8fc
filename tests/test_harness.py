import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest

from ccdiff import (ConditionalScoreOracle, ExperimentConfig, GaussianScoreOracle,
                    IdentityOp, SamplerKind, ValidationError, inpaint_projection,
                    make_phantom, make_ve_schedule, make_vp_schedule, psnr,
                    resolve_init, run_error_curve, run_mri_demo, run_t0_sweep)
from ccdiff.consistency import gaussian1d_mask
from ccdiff.harness import write_sweep_csv, write_trajectory_csv
from ccdiff.rng import RngStream

VP100 = make_vp_schedule(1e-4, 0.02, 100)
VE100 = make_ve_schedule(0.01, 378, 100)


def _identity_cfg(kind, schedule, t0, trials, seed, init_mode="eps0:4.0",
                  n=64, **kw):
    gt = RngStream(seed, (0x6774,)).uniform(0.0, 1.0, (n,))
    op = IdentityOp(gt.shape, gt)
    init = resolve_init(init_mode, gt, op, seed=seed)
    return ExperimentConfig(schedule=schedule, kind=kind, t0=t0, trials=trials,
                            ground_truth=gt, init=init, op=op,
                            oracle=ConditionalScoreOracle(gt), seed=seed, **kw)


# ----------------------------- error curves ---------------------------------


def test_ddim_zero_eps0_curve_stays_under_geometric_envelope():
    cfg = _identity_cfg(SamplerKind.DDIM, VP100, t0=0.5, trials=2000, seed=1,
                        init_mode="truth")
    stats = run_error_curve(cfg)
    assert stats.eps0 == 0.0
    lam = stats.bound_recursive  # recursive trace; also check explicit envelope
    n_prime = stats.n_prime
    sigma = VP100.ddim_sigma[n_prime]
    fwd = 2 * sigma ** 2 * stats.n
    lam_max = max(VP100.ddim_sigma[i - 1] / VP100.ddim_sigma[i]
                  for i in range(1, n_prime + 1))
    envelope = fwd * lam_max ** (2 * (n_prime - stats.steps))
    assert np.all(stats.mse <= envelope + 4 * stats.stderr + 1e-12)


def test_empirical_error_stays_under_recursive_bound_per_step():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.2, trials=10_000, seed=2,
                        init_mode="eps0:10.0")
    stats = run_error_curve(cfg)
    assert np.all(stats.mse <= stats.bound_recursive + 4 * stats.stderr + 1e-12)
    assert np.all(stats.bound_recursive <= stats.bound_simple + 1e-12)
    # rise then contract: the forward jump exceeds eps0, the final error is far
    # below the post-forward error
    assert stats.mse[0] > stats.eps0
    assert stats.final_mse < 0.1 * stats.mse[0]


def test_shared_noise_mode_realizes_lambda_exactly():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.3, trials=8, seed=3,
                        init_mode="eps0:9.0", shared_reverse_noise=True)
    stats = run_error_curve(cfg)
    from ccdiff import contraction_rate
    _, lam = contraction_rate(VP100, SamplerKind.DDPM, stats.n_prime)
    # with shared noise the empirical mse contracts by exactly lambda_i^2
    for k in range(1, stats.steps.size):
        i = stats.n_prime - k + 1
        expected = stats.mse[k - 1] * lam[i - 1] ** 2
        assert stats.mse[k] == pytest.approx(expected, rel=1e-9, abs=1e-30)


def test_trajectory_csv_rows_reproducible_bit_for_bit():
    cfg = _identity_cfg(SamplerKind.SMLD, VE100, t0=0.1, trials=64, seed=4)
    a, b = run_error_curve(cfg), run_error_curve(cfg)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trajectory_csv(a, buf_a)
    write_trajectory_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_curve_records_every_step_down_to_zero():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.07, trials=16, seed=5)
    stats = run_error_curve(cfg)
    assert stats.n_prime == 7
    assert list(stats.steps) == list(range(7, -1, -1))
    assert stats.mse.shape == stats.stderr.shape == (8,)


def test_experiment_config_validation():
    gt = np.zeros(8)
    op = IdentityOp(gt.shape, gt)
    with pytest.raises(ValidationError):
        ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.5, trials=1,
                         ground_truth=gt, init=gt, op=op,
                         oracle=ConditionalScoreOracle(gt), seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.5, trials=4,
                         ground_truth=gt, init=np.zeros(9), op=op,
                         oracle=ConditionalScoreOracle(gt), seed=0)


def test_error_curve_rejects_non_finite_init():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.2, trials=4, seed=6)
    init = cfg.init.copy()
    init[0] = np.nan
    with pytest.raises(ValidationError):
        run_error_curve(replace(cfg, init=init))


def test_error_curve_names_the_step_that_turned_non_finite():
    class InfAtStep4(ConditionalScoreOracle):
        def score(self, x, i, schedule):
            s = super().score(x, i, schedule)
            return s + np.inf if i == 4 else s

    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.07, trials=4, seed=6)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValidationError, match="after step 4$"):
        run_error_curve(replace(cfg, oracle=InfAtStep4(cfg.ground_truth)))


# -------------------------------- sweeps ------------------------------------


def test_t0_sweep_golden_csv_regression_lock():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.05, trials=256, seed=11)
    sweep = run_t0_sweep(cfg, (0.05, 0.1, 0.2, 0.5, 1.0))
    buf = io.StringIO()
    write_sweep_csv(sweep, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == ("95faedbdd1992b9dd65da9c6e7bf99fcf75438c4"
                      "41e42b895dd31b72a6fa68bf")
    assert sweep.beats_full_path is not None


def test_t0_sweep_rejects_empty_grid():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.05, trials=16, seed=12)
    with pytest.raises(ValidationError):
        run_t0_sweep(cfg, ())


def test_t0_sweep_with_gaussian_oracle_orders_inits_by_eps0():
    # Imperfect (Gaussian) prior: smaller initial error gives smaller final
    # error at a fixed small t0.
    gt = RngStream(13, (0x6774,)).uniform(0.0, 1.0, (64,))
    op = IdentityOp(gt.shape, gt)
    oracle = GaussianScoreOracle(mu=gt, var=0.25)
    finals = []
    for eps0 in (0.5, 8.0, 32.0):
        init = resolve_init(f"eps0:{eps0}", gt, op, seed=13)
        cfg = ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.1,
                               trials=4000, ground_truth=gt, init=init, op=op,
                               oracle=oracle, seed=13)
        finals.append(run_error_curve(cfg).final_mse)
    assert finals[0] < finals[1] < finals[2]


# ------------------------------- phantoms -----------------------------------


def test_blocks_phantom_is_block_constant_fixed_point():
    ph = make_phantom("blocks", (64, 64), seed=9)
    from ccdiff import sr_projection
    op = sr_projection(4, ph, VP100, SamplerKind.DDPM)
    assert np.array_equal(op.project(ph), ph)
    assert ph.min() >= 0.0 and ph.max() <= 1.0


def test_ellipses_phantom_golden_pixel_sum():
    ph = make_phantom("ellipses", (64, 64), seed=7)
    assert float(ph.sum()) == pytest.approx(1832.051483973924, rel=1e-12)
    assert ph.min() >= 0.0 and ph.max() <= 1.0
    assert np.array_equal(ph, make_phantom("ellipses", (64, 64), seed=7))


def test_phantom_validation():
    with pytest.raises(ValidationError):
        make_phantom("ellipses", (1, 64), seed=0)
    with pytest.raises(ValidationError):
        make_phantom("nonsense", (8, 8), seed=0)


def test_psnr_values():
    a = np.zeros((4, 4))
    assert psnr(a, a) == float("inf")
    b = a + 0.1
    assert psnr(b, a) == pytest.approx(20.0, rel=1e-12)


def test_resolve_init_modes():
    gt = RngStream(14, (0x6774,)).uniform(0.0, 1.0, (32,))
    op = IdentityOp(gt.shape, gt)
    r = resolve_init("random", gt, op, seed=14)
    assert r.shape == gt.shape and 0 <= r.min() and r.max() <= 1
    v = resolve_init("vanilla", gt, op, seed=14)
    assert np.array_equal(v, gt)
    t = resolve_init("truth", gt, op, seed=14)
    assert np.array_equal(t, gt)
    e = resolve_init("eps0:2.5", gt, op, seed=14)
    assert float(np.sum((e - gt) ** 2)) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValidationError):
        resolve_init("bogus", gt, op, seed=14)


# -------------------------------- MRI demo ----------------------------------


def test_mri_demo_full_mask_recovers_exactly():
    ph = make_phantom("ellipses", (32, 32), seed=15)
    mask = np.ones((32, 32), dtype=bool)
    res = run_mri_demo(ph, mask, t0=0.02, trials=1, N=1000, seed=15)
    assert res.mean_psnr > 200.0  # infinite up to FFT roundoff
    assert res.residuals[0] <= 1e-10


def test_mri_demo_twenty_steps_and_residual():
    ph = make_phantom("ellipses", (64, 64), seed=16)
    mask = gaussian1d_mask((64, 64), 4.0, 0.08, seed=16)
    res = run_mri_demo(ph, mask, t0=0.02, trials=2, N=1000, seed=16)
    assert res.n_prime == 20
    assert all(r <= 1e-10 for r in res.residuals)


def test_mri_demo_beats_zero_filled_on_x4_mask():
    ph = make_phantom("ellipses", (64, 64), seed=17)
    mask = gaussian1d_mask((64, 64), 4.0, 0.08, seed=17)
    res = run_mri_demo(ph, mask, t0=0.02, trials=2, N=1000, seed=17)
    assert res.mean_psnr >= res.zero_filled_psnr


def test_mri_demo_rejects_asymmetric_mask():
    ph = make_phantom("ellipses", (16, 16), seed=18)
    mask = np.zeros((16, 16), dtype=bool)
    mask[:, 3] = True  # no mirrored partner
    mask[0, 0] = True
    with pytest.raises(ValidationError):
        run_mri_demo(ph, mask, t0=0.02)


def test_mri_demo_shared_anchor_consistency_with_inpaint_regression():
    # consistency anchors drawn once per step are shared between the coupled
    # trajectories: with shared reverse noise the pair difference is exactly
    # scalar, unaffected by the anchor stream
    gt = make_phantom("ellipses", (16, 16), seed=19)
    gen = RngStream(19, (7,)).generator()
    mask = gen.uniform(size=(16, 16)) < 0.5
    mask.flat[0] = True
    op = inpaint_projection(mask, gt, VP100, SamplerKind.DDPM)
    init = resolve_init("eps0:4.0", gt, op, seed=19)
    cfg = ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.2,
                           trials=8, ground_truth=gt, init=init, op=op,
                           oracle=ConditionalScoreOracle(gt), seed=19,
                           shared_reverse_noise=True)
    stats = run_error_curve(cfg)
    from ccdiff import contraction_rate
    _, lam = contraction_rate(VP100, SamplerKind.DDPM, stats.n_prime)
    for k in range(1, stats.steps.size):
        i = stats.n_prime - k + 1
        # A = diag(0/1) on the unmeasured set composed with the scalar factor:
        # the ratio cannot exceed lambda_i
        assert stats.mse[k] <= stats.mse[k - 1] * lam[i - 1] ** 2 * (1 + 1e-9) + 1e-30
