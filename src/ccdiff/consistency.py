"""Non-expansive affine data-consistency operators.

Each operator implements x = A x' + b_i where A = I - P for an orthogonal
projection P onto the measured subspace, so A itself is an orthogonal
projection: A^2 = A, A^T = A, and sigma_max(A) <= 1 with equality unless the
measurement is complete.  The offset b_i re-injects the measurement, either
as a forward-diffused copy (super-resolution, inpainting) or as the constant
zero-filled reconstruction (MRI k-space).

Operators know no schedule: ``offset`` takes the forward coefficients
(a_i, b_i) from the reverse loop and its noise from the caller's RNG stream,
so operators stay immutable and ``apply_linear`` and ``offset`` reentrant.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure, ValidationError
from .rng import RngStream

# numpy's FFT runs every MRI transform: the module and the empty dict below
# stay only because bench/run.py reports the backend's name and the dict's
# "workers" entry.  numpy's FFT takes no ``workers`` argument and runs
# single-threaded.
_fft_backend = np.fft
_FFT_WORKERS = {}


def _fft2(x, axes):
    """Unitary DFT of a real array over ``axes``, half spectrum along the last.
    One axis runs the 1-D ``rfft``: ``rfftn``'s bits without its n-D dispatch."""
    if len(axes) == 1:
        return np.fft.rfft(x, axis=axes[0], norm="ortho")
    return np.fft.rfftn(x, axes=axes, norm="ortho")


def _ifft2(k, sizes, axes):
    """Inverse of ``_fft2``: the real array with ``sizes`` along ``axes``."""
    if len(axes) == 1:
        return np.fft.irfft(k, n=sizes[0], axis=axes[0], norm="ortho")
    return np.fft.irfftn(k, s=sizes, axes=axes, norm="ortho")


def _require_finite(values, what):
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} has non-finite entries")


def _image_measurement(measurement, shape) -> np.ndarray:
    """An image-space measurement as float64, refused unless finite and of ``shape``."""
    measurement = np.asarray(measurement, dtype=np.float64)
    if measurement.shape != shape:
        raise ValidationError(
            f"measurement shape {measurement.shape} != operator shape {shape}")
    _require_finite(measurement, "measurement")
    return measurement


class ConsistencyOp:
    """Affine map x -> A x' + b_i with a non-expansive linear part.

    Subclasses provide ``apply_linear`` (the action of A) and ``offset``
    (the vector b_i, possibly drawn from the supplied RNG).  ``tau`` is the
    exact trace ratio Tr(A^T A)/n, which every operator gives in closed form.
    ``reverse_path`` treats the axes of a state in front of ``shape`` as batch axes.
    ``draws_anchor`` says that ``offset`` draws one anchor of the state's
    shape from ``rng`` per call.
    """

    draws_anchor = False

    def __init__(self, shape, tau, description):
        self.shape = tuple(int(s) for s in shape)
        self.tau = float(tau)
        self.description = str(description)

    def apply_linear(self, x: np.ndarray) -> np.ndarray:
        """A x as a new array, or as ``x`` itself when A = I: the reverse
        path adds the offset to the result in place."""
        raise NotImplementedError

    def offset(self, c, rng: RngStream, batch_shape: tuple = ()):
        """The offset b_i.  SR and inpainting diffuse their anchor with the
        step's ``ForwardCoeffs`` ``c`` = (a_i, b_i) and draw its noise from
        ``rng``, refusing None; the identity and MRI offsets are constant."""
        raise NotImplementedError

    def vanilla_init(self) -> np.ndarray:
        """The corrupted measurement embedded in image space (used as x0)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.description} shape={self.shape}>"


class IdentityOp(ConsistencyOp):
    """A = I, b = 0 (tau = 1): the measurement is only the vanilla initialization."""

    def __init__(self, shape, measurement):
        super().__init__(shape, tau=1.0, description="identity")
        self.measurement = _image_measurement(measurement, self.shape)

    def apply_linear(self, x):
        return np.asarray(x, dtype=np.float64)

    def offset(self, c, rng, batch_shape=()):
        return 0.0

    def vanilla_init(self):
        return self.measurement


class _DiffusedAnchorOp(ConsistencyOp):
    """Shared machinery for operators whose b_i is a forward-diffused measurement."""

    draws_anchor = True

    def __init__(self, shape, tau, description, measurement):
        super().__init__(shape, tau, description)
        self.measurement = _image_measurement(measurement, self.shape)

    def diffused_measurement(self, c, rng, batch_shape=()):
        """x_hat_i = c.a x_hat_0 + c.b z with z drawn once from rng."""
        if rng is None:
            raise ValidationError(
                f"{type(self).__name__} needs an RNG stream to draw its anchor noise")
        z = rng.normal(tuple(batch_shape) + self.shape)
        z *= c.b
        z += c.a * self.measurement
        return z


class SrOp(_DiffusedAnchorOp):
    """Super-resolution consistency: A = I - P with P = block-mean then replicate.

    P averages each D x D block and broadcasts the mean back, which is an
    exact orthogonal projection (idempotent and symmetric), so tau has the
    closed form 1 - 1/D^2.  The offset is the whole forward-diffused
    measurement x_hat_i = a_i y + b_i z, not its projection P x_hat_i: a
    block-constant y is a fixed point of P, but the anchor noise b_i z is not,
    so the offset also carries its unmeasured part (I - P) b_i z.
    """

    def __init__(self, factor, measurement):
        measurement = np.asarray(measurement, dtype=np.float64)
        if measurement.ndim != 2:
            raise ValidationError("super-resolution expects a 2D image")
        D = int(factor)
        if D < 1:
            raise ValidationError(f"downsampling factor must be >= 1, got {factor}")
        H, W = measurement.shape
        if H % D or W % D:
            raise ValidationError(
                f"image sides {(H, W)} must be divisible by the factor {D}"
            )
        super().__init__(measurement.shape, 1.0 - 1.0 / (D * D),
                         f"sr factor={D}", measurement)
        self.factor = D

    def _blocks(self, x):
        """``x`` viewed as D x D blocks, and the mean of each block."""
        D = self.factor
        H, W = self.shape
        xv = x.reshape(x.shape[:-2] + (H // D, D, W // D, D))
        return xv, xv.mean(axis=(-3, -1), keepdims=True)

    def project(self, x):
        """Apply P: per-block mean, replicated back to full resolution."""
        x = np.asarray(x, dtype=np.float64)
        xv, m = self._blocks(x)
        return np.broadcast_to(m, xv.shape).reshape(x.shape)

    def apply_linear(self, x):
        # x - P x with the block means broadcast, never replicated in memory.
        x = np.asarray(x, dtype=np.float64)
        xv, m = self._blocks(x)
        return np.subtract(xv, m).reshape(x.shape)

    def offset(self, c, rng, batch_shape=()):
        return self.diffused_measurement(c, rng, batch_shape)

    def vanilla_init(self):
        return self.measurement


class InpaintOp(_DiffusedAnchorOp):
    """Inpainting consistency: P is diagonal 0/1 on the measured pixels.

    b_i = P x_hat_i replaces the measured pixels by a forward-diffused copy
    of the measurement; unmeasured pixels pass through untouched.
    """

    def __init__(self, mask, measurement):
        mask = np.asarray(mask, dtype=bool)
        measurement = np.asarray(measurement, dtype=np.float64)
        if mask.shape != measurement.shape:
            raise ValidationError(
                f"mask shape {mask.shape} != measurement shape {measurement.shape}"
            )
        m = int(mask.sum())
        if m == 0:
            raise ValidationError(
                "empty mask: nothing is measured (that would be unconditional sampling)"
            )
        n = mask.size
        super().__init__(mask.shape, (n - m) / n, f"inpaint kept={m}/{n}",
                         measurement)
        self.mask = mask
        self._unmeasured = ~mask

    def apply_linear(self, x):
        return np.where(self.mask, 0.0, np.asarray(x, dtype=np.float64))

    def offset(self, c, rng, batch_shape=()):
        d = self.diffused_measurement(c, rng, batch_shape)
        np.copyto(d, 0.0, where=self._unmeasured)
        return d

    def vanilla_init(self):
        return np.where(self.mask, self.measurement, 0.0)


class MriOp(ConsistencyOp):
    """Compressed-sensing MRI consistency: A = I - F^-1 D F, b = F^-1 D y.

    F is the unitary 2D DFT, D keeps the sampled k-space locations, and y is
    the measured k-space (zero off the mask support, finite on it).  The
    mask must be conjugate-symmetric: only then, for y from a real image, is
    the imaginary residual at roundoff level and A restricted to real images
    an orthogonal projection with tau = (n - m)/n.

    numpy's FFT runs every transform.  ``apply_linear`` works on the real
    sampler state with a real FFT, and only along the axes on which the mask
    varies: along an axis where D is constant, F^-1 F = I.  A mask that
    varies along one axis (every ``gaussian1d_mask`` varies along columns;
    its transpose along rows) runs the 1-D ``rfft`` and ``irfft`` along that
    axis, which give the bits of ``rfftn`` and ``irfftn`` over it without
    their n-D dispatch.  A mask that varies along both axes (only from a
    mask file or the Python API) runs ``rfftn`` and ``irfftn`` over both,
    which numpy chains as 1-D passes in Python: an apply costs about a
    quarter more than with scipy's n-D transforms (64x64: 80 against 64 us;
    1152x16x16: 7.3 against 5.7 ms, 2-core host).
    ``apply_linear_complex`` and ``residual`` keep the full complex 2D
    definition as the independent reference.
    """

    def __init__(self, mask, y):
        mask = np.asarray(mask, dtype=bool)
        y = np.asarray(y, dtype=np.complex128)
        if mask.ndim != 2:
            raise ValidationError("MRI sampling mask must be 2D")
        if y.shape != mask.shape:
            raise ValidationError(f"k-space shape {y.shape} != mask shape {mask.shape}")
        m = int(mask.sum())
        if m == 0:
            raise ValidationError("empty k-space mask")
        if not is_conjugate_symmetric(mask):
            raise ValidationError("MRI mask must be conjugate-symmetric for real output")
        n = mask.size
        super().__init__(mask.shape, (n - m) / n, f"mri kept={m}/{n}")
        self.mask = mask
        self.y = np.where(mask, y, 0.0)
        _require_finite(self.y, "k-space on the mask support")
        # Kept contiguous and real: the reverse path adds it twice per step.
        # Every caller of offset and vanilla_init gets this array itself.
        self._zero_filled = np.fft.ifft2(self.y, norm="ortho").real.copy()
        self._zero_filled.flags.writeable = False
        # The mask on the axes it varies on (the last one if it is constant),
        # halved along the last of them to match the real half spectrum.
        axes = [a for a in (0, 1) if (mask != mask.take([0], axis=a)).any()] or [1]
        index = [slice(None) if a in axes else slice(1) for a in (0, 1)]
        index[axes[-1]] = slice(mask.shape[axes[-1]] // 2 + 1)
        self._kmask = mask[tuple(index)]
        self._axes = tuple(a - 2 for a in axes)
        self._sizes = tuple(mask.shape[a] for a in axes)

    def apply_linear_complex(self, x):
        x = np.asarray(x)
        k = np.fft.fft2(x, norm="ortho")
        return x - np.fft.ifft2(np.where(self.mask, k, 0.0), norm="ortho")

    def apply_linear(self, x):
        x = np.asarray(x, dtype=np.float64)
        # x - F^-1 D F x, in place on the transforms' own outputs: fresh
        # buffers cost page faults that doubled the time of a batched apply
        # (1152x16x16 on a 2-core host: 6.5 ms against 2.4 ms).
        k = _fft2(x, self._axes)
        k *= self._kmask
        r = _ifft2(k, self._sizes, self._axes)
        return np.subtract(x, r, out=r)

    def offset(self, c, rng, batch_shape=()):
        return self._zero_filled

    def residual(self, x) -> float:
        """Relative consistency residual ||D F x - y|| / ||y|| on the mask support."""
        k = np.fft.fft2(np.asarray(x), norm="ortho")
        num = np.linalg.norm(np.where(self.mask, k - self.y, 0.0))
        den = np.linalg.norm(self.y)
        return float(num / den) if den > 0 else float(num)

    def vanilla_init(self):
        return self._zero_filled


def mri_measure(image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sample the unitary-DFT k-space of a real image: y = D F(image)."""
    image = np.asarray(image, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if image.shape != mask.shape:
        raise ValidationError(f"image shape {image.shape} != mask shape {mask.shape}")
    return np.where(mask, np.fft.fft2(image, norm="ortho"), 0.0)


# The benchmark's factories, which still pass the loop's schedule and kind;
# the benchmark change of ROADMAP item 2 step 1 deletes the first two.
def sr_projection(factor, measurement, schedule, kind):
    return SrOp(factor, measurement)


def inpaint_projection(mask, measurement, schedule, kind):
    return InpaintOp(mask, measurement)


mri_projection = MriOp


def gaussian1d_mask(shape, accel: float, acs_fraction: float,
                    seed: int) -> np.ndarray:
    """Gaussian-1D k-space sampling mask over phase-encode columns.

    A centered band of round(acs_fraction * W) columns is always kept (the
    auto-calibrating region); the remaining budget of ~W/accel total columns
    is drawn without replacement, in mirrored (+k, -k) pairs so the mask is
    symmetric under frequency negation, with probability decaying as a
    Gaussian in the column frequency.  Returned in unshifted FFT ordering.
    """
    H, W = (int(s) for s in shape)
    if H < 1 or W < 2:
        raise ValidationError(f"mask shape must be at least (1, 2), got {(H, W)}")
    if not 1.0 <= accel < np.inf:
        raise ValidationError(f"acceleration factor must be finite and >= 1, got {accel}")
    if not 0.0 < acs_fraction <= 1.0:
        raise ValidationError("acs fraction must lie in (0, 1]")
    target = max(1, int(round(W / accel)))
    # The ACS band is forced to an odd column count so it stays symmetric
    # under frequency negation (required for real-output reconstruction).
    n_acs = min(W, max(1, int(round(acs_fraction * W))))
    if n_acs % 2 == 0:
        n_acs = min(W - 1 if W % 2 == 0 else W, n_acs + 1)
    half_acs = (n_acs - 1) // 2
    # Centered (shifted) column frequencies: k = -(W//2) .. W - W//2 - 1.
    k = np.arange(W) - W // 2
    keep = np.abs(k) <= half_acs
    n_random = max(0, target - int(keep.sum()))
    # Candidate mirrored pairs (+k, -k) outside the ACS band; the Nyquist
    # column of an even grid is self-conjugate and is left unsampled.
    pair_k = np.arange(half_acs + 1, (W - 1) // 2 + 1)
    if pair_k.size and n_random > 0:
        gen = RngStream(int(seed), (0x6D61736B,)).generator()
        sigma_cols = W / 6.0
        weights = np.exp(-(pair_k.astype(np.float64) ** 2) / (2.0 * sigma_cols ** 2))
        weights = weights / weights.sum()
        n_pairs = min(pair_k.size, int(round(n_random / 2.0)))
        if n_pairs > 0:
            chosen = gen.choice(pair_k, size=n_pairs, replace=False, p=weights)
            center = W // 2
            keep[center + chosen] = True
            keep[center - chosen] = True
    cols = np.fft.ifftshift(keep)
    return np.broadcast_to(cols[None, :], (H, W)).copy()


def is_conjugate_symmetric(mask: np.ndarray) -> bool:
    """True when mask[i, j] == mask[-i mod H, -j mod W] for all entries."""
    mask = np.asarray(mask, dtype=bool)
    flipped = np.roll(np.flip(mask, axis=tuple(range(mask.ndim))), 1,
                      axis=tuple(range(mask.ndim)))
    return bool(np.array_equal(mask, flipped))


def hutchinson_tau(apply_linear, shape, rng: RngStream, n_probes: int = 256):
    """Randomized estimate of Tr(A^T A)/n via Rademacher probes drawn from ``rng``.

    Uses the identity v^T A^T A v = ||A v||^2, so only forward applications
    of A are needed.  Returns (estimate, standard error).
    """
    if n_probes < 2:
        raise ValidationError("need at least 2 probes for a standard error")
    n = int(np.prod(shape))
    gen = rng.generator()
    samples = np.empty(n_probes)
    for j in range(n_probes):
        v = gen.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        av = np.asarray(apply_linear(v))
        samples[j] = np.vdot(av, av).real / n
    est = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(n_probes))
    return est, se


NONEXPANSIVE_SLACK = 1e-6


def _finite_norm(op: ConsistencyOp, a) -> float:
    # A NaN norm fails every comparison of the certificate, so it is refused here.
    n = np.linalg.norm(a)
    if not np.isfinite(n):
        raise NumericFailure(
            f"operator {op.description} gave a non-finite norm {n} in its linear part"
        )
    return n


def certify_nonexpansive(op: ConsistencyOp, trials: int = 64,
                         rng: RngStream | None = None) -> float:
    """Certify sigma_max(A) <= 1 + 1e-6 by power iteration plus pair checks.

    Power iteration (a few random restarts of up to 50 iterations, stopping
    at a fixed point) estimates the spectral norm of the linear part;
    ``trials`` random difference vectors d = x - x' additionally verify
    ||A x - A x'|| = ||A d|| <= ||d|| directly.  Returns the estimate and
    raises NumericFailure when the certificate fails or the linear part
    gives a non-finite norm.
    """
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    if rng is None:
        rng = RngStream(0, (0x63657274,))
    gen = rng.generator()
    shape = op.shape
    best = 0.0
    for _ in range(3):  # restarts guard against unlucky starting vectors
        v = gen.standard_normal(shape)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v = v / nv
        est = 0.0
        for _ in range(50):
            av = np.asarray(op.apply_linear(v), dtype=np.float64)
            nav = _finite_norm(op, av)
            if nav < 1e-300:
                est = 0.0
                break
            est = nav
            # Not in place: an operator may hand back its input.  Once the
            # unit iterate stops moving, later iterations only move est by
            # roundoff (every shipped A, a projection, stops after two).
            w = av / nav
            if np.linalg.norm(w - v) <= 1e-12:
                break
            v = w
        best = max(best, est)
    for _ in range(int(trials)):
        # x - x' ~ N(0, 2I) and the ratio is scale-free, so one draw stands in.
        d = gen.standard_normal(shape)
        lhs = _finite_norm(op, op.apply_linear(d))
        rhs = np.linalg.norm(d)
        if lhs > rhs * (1.0 + NONEXPANSIVE_SLACK):
            raise NumericFailure(
                f"operator {op.description} is expansive on a random pair: "
                f"{lhs:.12g} > {rhs:.12g}"
            )
        if rhs > 0:
            best = max(best, lhs / rhs)
    if best > 1.0 + NONEXPANSIVE_SLACK:
        raise NumericFailure(
            f"operator {op.description} failed the non-expansiveness certificate: "
            f"sigma_max estimate {best:.12g} > 1 + {NONEXPANSIVE_SLACK}"
        )
    return float(best)
