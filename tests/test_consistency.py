import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ccdiff import (IdentityOp, InpaintOp, NumericFailure, SrOp, ValidationError,
                    certify_nonexpansive, forward_coeffs, gaussian1d_mask,
                    hutchinson_tau, is_conjugate_symmetric, make_phantom,
                    make_ve_schedule, make_vp_schedule, mri_measure,
                    mri_projection)
from ccdiff import consistency
from ccdiff.rng import RngStream

VP = make_vp_schedule(1e-4, 0.02, 100)
VE = make_ve_schedule(0.01, 378, 100)


def _probe_projection_identities(op, shape, seed=0, atol=1e-12):
    gen = RngStream(seed, (0xAB,)).generator()
    for _ in range(5):
        x = gen.standard_normal(shape)
        y = gen.standard_normal(shape)
        ax = op.apply_linear(x)
        # idempotence A^2 = A
        assert np.max(np.abs(op.apply_linear(ax) - ax)) <= atol
        # symmetry <Ax, y> = <x, Ay>
        lhs = float(np.vdot(ax, y))
        rhs = float(np.vdot(x, op.apply_linear(y)))
        assert abs(lhs - rhs) <= atol * max(1.0, abs(lhs))


# ----------------------------- super-resolution ----------------------------


def test_sr_factor_one_returns_diffused_measurement_exactly():
    meas = make_phantom("blocks", (16, 16), seed=1)
    op = SrOp(1, meas)
    x = RngStream(1).normal((16, 16))
    c = forward_coeffs(VP, 7)
    out = op.apply_linear(x) + op.offset(c, RngStream(2))
    expected = c.a * meas + c.b * RngStream(2).normal((16, 16))
    assert np.allclose(out, expected, rtol=1e-15)
    assert op.tau == 0.0


def test_sr_tau_closed_form_and_hutchinson():
    meas = make_phantom("blocks", (32, 32), seed=2)
    for D in (2, 4, 8):
        op = SrOp(D, meas)
        assert op.tau == pytest.approx(1.0 - 1.0 / D ** 2, rel=1e-15)
    op = SrOp(4, meas)
    est, se = hutchinson_tau(op.apply_linear, op.shape, RngStream(3, (0x74726163,)))
    assert est == pytest.approx(op.tau, rel=0.01)


def test_sr_projection_is_idempotent_and_symmetric():
    meas = make_phantom("blocks", (24, 24), seed=3)
    op = SrOp(4, meas)
    x = RngStream(4).normal((24, 24))
    px = op.project(x)
    assert np.max(np.abs(op.project(px) - px)) <= 1e-12
    _probe_projection_identities(op, (24, 24))


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_sr_apply_linear_needs_no_replicated_means(peak_states, factor):
    # (1152, 16, 16): one state is larger than a 2 MiB L2.  The output is
    # one state; the block means and numpy's reduction buffers stay under half.
    op = SrOp(factor, make_phantom("blocks", (16, 16), seed=6))
    x = RngStream(7).normal((1152, 16, 16))
    assert np.array_equal(op.apply_linear(x), x - op.project(x))
    assert peak_states(lambda: op.apply_linear(x), x) <= 1.5


def test_inpaint_offset_zeroes_its_own_draw(peak_states):
    # The offset is the masked anchor draw itself, not a masked copy of it;
    # the 1/16 covers numpy's 64 KiB iterator buffers.
    mask = RngStream(8).uniform(shape=(16, 16)) < 0.5
    op = InpaintOp(mask, make_phantom("blocks", (16, 16), seed=6))
    c = forward_coeffs(VP, 10)
    b = op.offset(c, RngStream(9), (1152,))
    d = op.diffused_measurement(c, RngStream(9), (1152,))
    assert b.tobytes() == np.where(mask, d, 0.0).tobytes()
    assert peak_states(lambda: op.offset(c, RngStream(9), (1152,)), b) <= 1 + 1 / 16


def test_sr_block_constant_measurement_is_projection_fixed_point():
    meas = make_phantom("blocks", (64, 64), seed=5)  # 8x8 constant blocks
    op = SrOp(4, meas)
    assert np.allclose(op.project(meas), meas, atol=1e-12)


def test_sr_rejects_indivisible_shapes():
    with pytest.raises(ValidationError):
        SrOp(3, np.zeros((16, 16)))
    with pytest.raises(ValidationError):
        SrOp(4, np.zeros((18, 16)))
    meas = np.zeros((16, 16))
    meas[3, 5] = np.inf
    with pytest.raises(ValidationError):
        SrOp(4, meas)


# -------------------------------- inpainting --------------------------------


def test_inpaint_full_mask_returns_diffused_measurement_everywhere():
    meas = make_phantom("ellipses", (16, 16), seed=6)
    mask = np.ones((16, 16), dtype=bool)
    op = InpaintOp(mask, meas)
    x = RngStream(5).normal((16, 16))
    c = forward_coeffs(VP, 3)
    out = op.apply_linear(x) + op.offset(c, RngStream(6))
    expected = c.a * meas + c.b * RngStream(6).normal((16, 16))
    assert np.allclose(out, expected, rtol=1e-15)
    assert op.tau == 0.0


def test_inpaint_tau_counts_unmeasured_fraction():
    gen = RngStream(7, (1,)).generator()
    mask = gen.uniform(size=(20, 20)) < 0.3
    mask.flat[0] = True
    meas = np.zeros((20, 20))
    op = InpaintOp(mask, meas)
    m = int(mask.sum())
    assert op.tau == pytest.approx((400 - m) / 400, rel=1e-15)
    _probe_projection_identities(op, (20, 20))


def test_inpaint_kept_box_tau_example():
    # Keeping a 96x96 box of a 256x256 image: tau = 1 - 96^2/256^2 = 0.8594
    mask = np.zeros((256, 256), dtype=bool)
    mask[80:176, 80:176] = True
    op = InpaintOp(mask, np.zeros((256, 256)))
    assert op.tau == pytest.approx(1.0 - 96 ** 2 / 256 ** 2, rel=1e-15)
    assert op.tau == pytest.approx(0.8594, abs=1e-4)


def test_inpaint_rejects_empty_mask():
    with pytest.raises(ValidationError):
        InpaintOp(np.zeros((8, 8), dtype=bool), np.zeros((8, 8)))
    meas = np.zeros((8, 8))
    meas[2, 2] = np.nan
    with pytest.raises(ValidationError):
        InpaintOp(np.ones((8, 8), dtype=bool), meas)


def test_inpaint_offset_is_masked_forward_diffusion():
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4] = True
    meas = make_phantom("ellipses", (8, 8), seed=8)
    op = InpaintOp(mask, meas)
    c = forward_coeffs(VE, 5)
    b = op.offset(c, RngStream(9))
    assert np.all(b[~mask] == 0.0)
    expected = (c.a * meas + c.b * RngStream(9).normal((8, 8)))[mask]
    assert np.allclose(b[mask], expected, rtol=1e-15)


# ----------------------------------- MRI ------------------------------------


def test_mri_full_mask_returns_zero_filled_regardless_of_input():
    img = make_phantom("ellipses", (16, 16), seed=10)
    mask = np.ones((16, 16), dtype=bool)
    y = mri_measure(img, mask)
    op = mri_projection(mask, y)
    x = RngStream(10).normal((16, 16))
    out = op.apply_linear(x) + op.offset(None, None)
    assert np.allclose(out, img, atol=1e-12)
    assert op.tau == 0.0


def test_mri_zero_filled_image_is_read_only():
    # offset and vanilla_init hand out views of the operator's own array.
    img = make_phantom("ellipses", (16, 16), seed=10)
    mask = gaussian1d_mask((16, 16), 2.0, 0.2, seed=19)
    op = mri_projection(mask, mri_measure(img, mask))
    before = op.vanilla_init().copy()
    for view in (op.offset(None, None), op.vanilla_init()):
        with pytest.raises(ValueError):
            view += 1.0
    assert np.array_equal(op.vanilla_init(), before)


def test_mri_consistency_residual_after_apply():
    img = make_phantom("ellipses", (32, 32), seed=11)
    mask = gaussian1d_mask((32, 32), 4.0, 0.1, seed=12)
    op = mri_projection(mask, mri_measure(img, mask))
    x = RngStream(11).normal((32, 32))
    assert op.residual(op.apply_linear(x) + op.offset(None, None)) <= 1e-10


def test_mri_tau_and_randomized_trace():
    img = make_phantom("ellipses", (32, 32), seed=13)
    mask = gaussian1d_mask((32, 32), 4.0, 0.1, seed=14)
    op = mri_projection(mask, mri_measure(img, mask))
    n, m = mask.size, int(mask.sum())
    assert op.tau == pytest.approx((n - m) / n, rel=1e-15)
    est, _ = hutchinson_tau(op.apply_linear, op.shape, RngStream(15, (0x74726163,)))
    assert est == pytest.approx(op.tau, rel=0.01)
    _probe_projection_identities(op, (32, 32), atol=1e-11)


def _symmetric_scatter_mask(shape, seed):
    m = RngStream(seed, (0x6D,)).uniform(0.0, 1.0, shape) < 0.2
    return m | np.roll(np.flip(m), 1, axis=(0, 1))


# (mask, batch shape of the state, axes the real FFT must run along)
MRI_MASK_CASES = {
    "columns-even-W": (gaussian1d_mask((32, 32), 4.0, 0.1, seed=17), (), (-1,)),
    "columns-odd-W": (gaussian1d_mask((20, 33), 4.0, 0.1, seed=18), (), (-1,)),
    "rows": (gaussian1d_mask((24, 31), 4.0, 0.1, seed=19).T, (), (-2,)),
    "scatter-2d": (_symmetric_scatter_mask((18, 21), 20), (), (-2, -1)),
    "all-true": (np.ones((16, 16), dtype=bool), (), (-1,)),
    "batched": (gaussian1d_mask((16, 16), 4.0, 0.1, seed=21), (5,), (-1,)),
}


@pytest.mark.parametrize("case", list(MRI_MASK_CASES))
def test_mri_real_output_for_symmetric_mask(case, monkeypatch):
    mask, batch, axes = MRI_MASK_CASES[case]
    assert is_conjugate_symmetric(mask)
    img = make_phantom("ellipses", mask.shape, seed=16)
    op = mri_projection(mask, mri_measure(img, mask))
    x = RngStream(12).normal(batch + mask.shape)
    out_c = op.apply_linear_complex(x) + np.fft.ifft2(op.y, norm="ortho")
    assert np.max(np.abs(out_c.imag)) <= 1e-10
    assert np.max(np.abs(op.apply_linear(x) - op.apply_linear_complex(x).real)) <= 1e-12
    out = op.apply_linear(x) + op.offset(None, None)
    assert np.max(np.abs(out - out_c.real)) <= 1e-12
    # One forward and one inverse real transform per apply, along ``axes`` only.
    calls = []

    def recording(name):
        fn = getattr(consistency, name)

        def wrapper(*args):
            calls.append((name, args[-1]))
            return fn(*args)
        return wrapper

    for name in ("_fft2", "_ifft2"):
        monkeypatch.setattr(consistency, name, recording(name))
    op.apply_linear(x)
    assert calls == [("_fft2", axes), ("_ifft2", axes)]


# (mask, batch shape of the state, axes the mask varies on)
MRI_BITS_CASES = {
    "columns-64x64": (gaussian1d_mask((64, 64), 4.0, 0.08, seed=23), (), (-1,)),
    "columns-18x21": (gaussian1d_mask((18, 21), 4.0, 0.1, seed=24), (), (-1,)),
    "columns-batched": (gaussian1d_mask((16, 16), 4.0, 0.1, seed=25), (3,), (-1,)),
    "rows": (gaussian1d_mask((24, 31), 4.0, 0.1, seed=26).T, (), (-2,)),
    "scatter-2d": (_symmetric_scatter_mask((18, 21), 27), (), (-2, -1)),
}


@pytest.mark.parametrize("case", list(MRI_BITS_CASES))
def test_mri_apply_linear_keeps_the_bits_of_rfftn(case):
    # A one-axis mask runs 1-D transforms; they must give the bits of
    # x - irfftn(kmask rfftn(x)) over the same axis.
    mask, batch, axes = MRI_BITS_CASES[case]
    op = mri_projection(mask, mri_measure(np.zeros(mask.shape), mask))
    x = RngStream(28).normal(batch + mask.shape)
    # The mask on its varying axes, halved along the last of them.
    index = [slice(None) if a in axes else slice(1) for a in (-2, -1)]
    index[axes[-1]] = slice(mask.shape[axes[-1]] // 2 + 1)
    k = np.fft.rfftn(x, axes=axes, norm="ortho")
    k *= mask[tuple(index)]
    sizes = tuple(mask.shape[a] for a in axes)
    expected = x - np.fft.irfftn(k, s=sizes, axes=axes, norm="ortho")
    assert op.apply_linear(x).tobytes() == expected.tobytes()


def test_mri_apply_linear_matches_the_complex_reference():
    # A two-axis mask (n-D transforms) and a column mask (1-D transforms)
    # against the full complex 2D definition, x - F^-1 D F x.
    for mask in (_symmetric_scatter_mask((18, 21), 22),
                 gaussian1d_mask((18, 21), 4.0, 0.1, seed=22)):
        op = mri_projection(mask, mri_measure(np.zeros(mask.shape), mask))
        x = RngStream(13).normal((3,) + mask.shape)
        expected = op.apply_linear_complex(x)
        assert np.max(np.abs(op.apply_linear(x) - expected)) <= 1e-12


def test_an_mri_reconstruction_loads_no_scipy():
    # numpy's FFT runs every MRI transform: importing the package, building
    # an operator and reconstructing through it load no scipy module.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = textwrap.dedent("""
        import sys
        from ccdiff import (CcdfConfig, GaussianScoreOracle, MriOp, RngStream,
                            SamplerKind, ccdf_sample, gaussian1d_mask,
                            make_phantom, make_ve_schedule, mri_measure)
        image = make_phantom("ellipses", (16, 16), seed=1)
        mask = gaussian1d_mask((16, 16), 4.0, 0.1, seed=2)
        op = MriOp(mask, mri_measure(image, mask))
        cfg = CcdfConfig(t0=0.2, N=50, kind=SamplerKind.SMLD)
        x = ccdf_sample(op.vanilla_init(), op, cfg, make_ve_schedule(0.01, 378, 50),
                        GaussianScoreOracle(mu=image, var=0.02), RngStream(3))
        assert x.shape == (16, 16)
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
    """)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_mri_rejects_shape_mismatch_and_empty_mask():
    with pytest.raises(ValidationError):
        mri_projection(np.ones((8, 8), dtype=bool), np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValidationError):
        mri_projection(np.zeros((8, 8), dtype=bool), np.zeros((8, 8), dtype=complex))
    asymmetric = np.zeros((8, 8), dtype=bool)
    asymmetric[:, 3] = True  # column 3 has no mirrored partner (column 5)
    with pytest.raises(ValidationError):
        mri_projection(asymmetric, np.zeros((8, 8), dtype=complex))
    y = np.zeros((8, 8), dtype=complex)
    y[0, 0] = np.inf
    with pytest.raises(ValidationError):
        mri_projection(np.ones((8, 8), dtype=bool), y)


def test_apply_is_affine_on_shared_offset():
    img = make_phantom("ellipses", (16, 16), seed=18)
    mask = gaussian1d_mask((16, 16), 2.0, 0.2, seed=19)
    op = mri_projection(mask, mri_measure(img, mask))
    gen = RngStream(13, (1,)).generator()
    x, x2 = gen.standard_normal((16, 16)), gen.standard_normal((16, 16))
    b = op.offset(None, None)

    def apply(v):
        return op.apply_linear(v) + b

    for a in (0.0, 0.25, 0.7, 1.0):
        mixed = apply(a * x + (1 - a) * x2) - b
        parts = a * (apply(x) - b) + (1 - a) * (apply(x2) - b)
        assert np.allclose(mixed, parts, atol=1e-12)


# ------------------------------ certification -------------------------------


def test_certify_identity_is_one():
    op = IdentityOp((16,), np.zeros(16))
    attrs = dict(vars(op))
    assert certify_nonexpansive(op, trials=16, rng=RngStream(14)) == \
        pytest.approx(1.0, abs=1e-12)
    assert vars(op) == attrs  # the certificate leaves the operator as it was


def test_certify_zero_operator():
    meas = make_phantom("blocks", (16, 16), seed=20)
    op = SrOp(1, meas)  # A = I - I = 0
    assert certify_nonexpansive(op, trials=16, rng=RngStream(15)) == 0.0


def test_certify_sr_projection_hits_one():
    meas = make_phantom("blocks", (32, 32), seed=21)
    op = SrOp(4, meas)
    sigma = certify_nonexpansive(op, trials=32, rng=RngStream(16))
    assert sigma == pytest.approx(1.0, abs=1e-6)


def test_certify_rejects_expansive_operator():
    class Expansive(IdentityOp):
        def apply_linear(self, x):
            return 1.5 * np.asarray(x)

    op = Expansive((8,), np.zeros(8))
    with pytest.raises(NumericFailure):
        certify_nonexpansive(op, trials=8, rng=RngStream(17))


def test_hutchinson_on_black_box_operator():
    # tau of a diagonal operator with known trace ratio
    diag = RngStream(18).uniform(0.0, 1.0, (64,))

    def apply_linear(v):
        return diag * v

    est, se = hutchinson_tau(apply_linear, (64,), RngStream(19, (0x74726163,)),
                             n_probes=512)
    exact = float(np.mean(diag ** 2))
    assert est == pytest.approx(exact, abs=5 * se)
    with pytest.raises(ValidationError):
        hutchinson_tau(apply_linear, (64,), RngStream(0, (0x74726163,)), n_probes=1)


# --------------------------------- masks ------------------------------------


def test_gaussian1d_mask_properties():
    for seed in range(5):
        mask = gaussian1d_mask((64, 64), accel=4.0, acs_fraction=0.08, seed=seed)
        assert is_conjugate_symmetric(mask)
        cols = mask[0]
        assert np.array_equal(mask, np.broadcast_to(cols, mask.shape))
        kept = int(cols.sum())
        assert abs(kept - 16) <= 2  # ~W/accel columns
        center = np.fft.fftshift(cols)
        n_acs = 5  # round(0.08 * 64) = 5
        assert center[32 - n_acs // 2: 32 + n_acs // 2 + 1].all()
    a = gaussian1d_mask((64, 64), 4.0, 0.08, seed=1)
    b = gaussian1d_mask((64, 64), 4.0, 0.08, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gaussian1d_mask((64, 64), 4.0, 0.08, seed=2))


def test_gaussian1d_mask_validation():
    with pytest.raises(ValidationError):
        gaussian1d_mask((64, 64), accel=0.5, acs_fraction=0.08, seed=0)
    for accel in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            gaussian1d_mask((64, 64), accel=accel, acs_fraction=0.08, seed=0)
    with pytest.raises(ValidationError):
        gaussian1d_mask((64, 64), accel=4.0, acs_fraction=0.0, seed=0)


def test_identity_vanilla_init_requires_measurement():
    with pytest.raises(ValidationError):
        IdentityOp((4,), np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="measurement shape"):
        IdentityOp((4,), np.zeros(8))


@pytest.mark.parametrize("make", [
    lambda: SrOp(2, np.zeros((4, 4))),
    lambda: InpaintOp(np.eye(4, dtype=bool), np.zeros((4, 4))),
], ids=["sr", "inpaint"])
def test_anchored_op_needs_an_rng_stream(make):
    with pytest.raises(ValidationError, match="needs an RNG stream"):
        make().offset(forward_coeffs(VP, 3), None)


# ----------------------------- properties ----------------------------------


def _strategies():
    """hypothesis, and a strategy for small random operators of every kind."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def bits(draw, shape):
        flat = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
        return np.array(flat, dtype=bool).reshape(shape)

    @st.composite
    def symmetric_masks(draw):
        # Conjugate-symmetric, varying along rows, columns or both.
        shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
        m = bits(draw, shape)
        m = np.broadcast_to(draw(st.sampled_from([m, m[:1], m[:, :1]])), shape)
        mask = m | np.roll(np.flip(m), 1, axis=(0, 1))
        return mask if mask.any() else np.ones(shape, dtype=bool)

    @st.composite
    def operators(draw):
        kind = draw(st.sampled_from(["identity", "sr", "inpaint", "mri"]))
        if kind == "mri":
            mask = draw(symmetric_masks())
            return mri_projection(mask, mri_measure(np.zeros(mask.shape), mask))
        if kind == "sr":
            D = draw(st.integers(1, 4))
            return SrOp(D, np.zeros((D * draw(st.integers(1, 3)), D * draw(st.integers(1, 3)))))
        shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
        if kind == "identity":
            return IdentityOp(shape, np.zeros(shape))
        mask = bits(draw, shape)
        mask[0, 0] = True
        return InpaintOp(mask, np.zeros(shape))

    settings = hyp.settings(max_examples=200, deadline=None, database=None)
    return hyp, st, settings, operators, symmetric_masks


def test_random_operators_are_orthogonal_projections():
    # A(Ax) = Ax and <Ax, y> = <x, Ay>, on single and batched states.
    hyp, st, settings, operators, _ = _strategies()

    @settings
    @hyp.given(operators(), st.sampled_from([(), (3,)]), st.integers(0, 10**6))
    def check(op, batch, seed):
        _probe_projection_identities(op, batch + op.shape, seed=seed, atol=1e-12)

    check()


def test_random_operator_tau_is_the_trace_over_basis_vectors():
    hyp, _, settings, operators, _ = _strategies()

    @settings
    @hyp.given(operators())
    def check(op):
        n = int(np.prod(op.shape))
        A = np.asarray(op.apply_linear(np.eye(n).reshape((n,) + op.shape))).reshape(n, n)
        assert abs(op.tau - np.trace(A) / n) <= 1e-12
        assert abs(op.tau - np.sum(A * A) / n) <= 1e-12

    check()


def test_random_mri_real_fft_matches_the_complex_reference():
    hyp, st, settings, _, symmetric_masks = _strategies()

    @settings
    @hyp.given(symmetric_masks(), st.sampled_from([(), (2,)]), st.integers(0, 10**6))
    def check(mask, batch, seed):
        assert is_conjugate_symmetric(mask)
        op = mri_projection(mask, mri_measure(np.zeros(mask.shape), mask))
        x = RngStream(seed, (0x7266,)).normal(batch + mask.shape)
        ref = op.apply_linear_complex(x)
        assert np.max(np.abs(ref.imag)) <= 1e-12
        assert np.max(np.abs(op.apply_linear(x) - ref.real)) <= 1e-12

    check()
