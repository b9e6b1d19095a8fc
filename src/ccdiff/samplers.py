"""Forward diffusion, reverse-diffusion steps, and the shortcut reverse path.

The shortcut sampler forward-diffuses an initial estimate to step
N' = round(t0 * N), then ``reverse_path`` alternates the reverse step of the
kind's rule (``RULES``) with the affine data-consistency map x <- A x' + b_i,
on one trajectory (``ccdf_sample``) or on the harness's coupled pairs.

Forward diffusion, the stochastic reverse steps and the corrector are pure
functions of the standard-normal draw ``z`` they are given (DDIM has none).
They never write ``x`` or ``z``: each finishes its update in place in the
array the score returned or in one array of its own, so a call allocates at
most its result and one temporary.
Only the loops (``ccdf_sample``, ``reverse_path``, ``run_error_curve``) and
the SR/inpaint offsets draw; a coupled pair shares the draws of the streams
its caller gives the same ids.  The rng worker thread fills the noise ahead
of its draws while the loop computes, and the draws' values do not change.
A trajectory's block of at least ``REFILL_MIN_VALUES`` values is refilled
one at a time by ``RngStream.refill``: ``reverse_path`` hands each spent
reverse, corrector and anchor draw back to its stream to hold the next
block, and fills each trajectory's first reverse and corrector blocks in
fresh buffers before step N'; ``run_error_curve`` does the same for the
reference trajectory's forward draw.  Smaller blocks are planned:
``reverse_path`` gives ``rng.plan_draws`` every draw of the path in the
order it makes them, and the worker fills them in jobs of at least
``REFILL_MIN_VALUES`` values (8 steps of a 64x64 SMLD path with the
corrector), two jobs at most in flight.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import (RngStream, STREAM_CONSISTENCY, STREAM_CORRECTOR,
                  STREAM_FORWARD, STREAM_REVERSE, plan_draws)
from .schedules import (SamplerKind, Schedule, check_family, check_step_index,
                        forward_coeffs, step_index_of_time)
from .score import ScoreOracle, check_mean_fits

logger = logging.getLogger(__name__)

DEFAULT_CORRECTOR_R = 0.16

# The fewest values the worker thread fills in one hand-off; below it the
# hand-off costs more than the overlap saves.  A draw this large is refilled
# on its own.  With every draw refilled, recon-mri (4096 values per draw) lost
# a third of its throughput (0/10 pairs); coupled-pair cells ran faster
# refilled at 2^16 values per draw (27 of 32 pairs) but not at 2^15 (15 of
# 32), as BENCH_6.json records.  Smaller draws are planned for the whole path
# and filled in jobs of at least this many values: a 64x64 reconstruction
# took 3.94 ms with jobs of 2^16 values against 4.19 and 4.16 ms with 2^14 and
# 2^15 and 4.36 ms with 2^17 (fastest of 6 interleaved rounds of 10 x 30 on a
# 2-core host), and recon-mri's gain is in BENCH_23.json.
REFILL_MIN_VALUES = 1 << 16


@dataclass(frozen=True)
class CcdfConfig:
    """Shortcut-sampling configuration.

    t0 is the fraction of the full reverse path to run: the loop starts at
    N' = round(t0 * N), clamped to [1, N].  ``corrector_r`` is the Langevin
    step-size ratio and applies to VE sampling only; r = 0 runs neither the
    corrector nor the second consistency map that follows it.
    """

    t0: float
    N: int
    kind: SamplerKind
    corrector_r: float = DEFAULT_CORRECTOR_R
    corrector_squared_step: bool = False

    def __post_init__(self):
        if not 0.0 < self.t0 <= 1.0:
            raise ValidationError(f"t0 must lie in (0, 1], got {self.t0}")
        if self.N < 2:
            raise ValidationError(f"N must be >= 2, got {self.N}")
        if not 0.0 <= self.corrector_r < np.inf:
            raise ValidationError("corrector_r must be finite and nonnegative")

    @property
    def n_prime(self) -> int:
        return step_index_of_time(self.t0, self.N)

    @property
    def corrected(self) -> bool:
        """Whether each step runs the corrector and a second consistency map."""
        return RULES[self.kind].corrected and self.corrector_r > 0.0


def forward_diffuse(x0: np.ndarray, n_prime: int, schedule: Schedule,
                    z: np.ndarray) -> np.ndarray:
    """Single-step forward diffusion x_{N'} = a_{N'} x0 + b_{N'} z.

    ``z`` has the shape of the result: x0's, with any leading batch axes.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    c = forward_coeffs(schedule, n_prime)
    out = c.b * z
    out += c.a * x0
    return out


def reverse_step_ddpm(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle, z: np.ndarray) -> np.ndarray:
    """One ancestral reverse step of the variance-preserving sampler.

    x_{i-1} = (x_i + (1 - alpha_i) s(x_i, i)) / sqrt(alpha_i) + sqrt(beta_i) z.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.DDPM, "a DDPM step")
    x = np.asarray(x, dtype=np.float64)
    s = oracle.score(x, i, schedule)
    alpha_i = schedule.alpha[i]
    s *= 1.0 - alpha_i
    s += x
    s /= np.sqrt(alpha_i)
    s += np.sqrt(float(schedule.beta[i])) * z
    return s


def reverse_step_smld(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle, z: np.ndarray) -> np.ndarray:
    """One reverse step of the variance-exploding sampler.

    x_{i-1} = x_i + (sigma_i^2 - sigma_{i-1}^2) s(x_i, i)
              + sqrt(sigma_i^2 - sigma_{i-1}^2) z.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.SMLD, "an SMLD step")
    x = np.asarray(x, dtype=np.float64)
    dv = float(schedule.sigma[i] ** 2 - schedule.sigma[i - 1] ** 2)
    s = oracle.score(x, i, schedule)
    s *= dv
    s += x
    s += np.sqrt(dv) * z
    return s


def reverse_step_ddim(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle) -> np.ndarray:
    """One deterministic reverse step (no additive noise term).

    With z_hat = -s(x_i, i) sqrt(1 - alpha_bar_i):

    x_{i-1} = sqrt(alpha_bar_{i-1}) (x_i - sqrt(1-alpha_bar_i) z_hat)
              / sqrt(alpha_bar_i) + sqrt(1 - alpha_bar_{i-1}) z_hat.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.DDIM, "a DDIM step")
    x = np.asarray(x, dtype=np.float64)
    ab_i = schedule.alpha_bar[i]
    ab_prev = schedule.alpha_bar[i - 1]
    z_hat = oracle.score(x, i, schedule)
    np.negative(z_hat, out=z_hat)
    z_hat *= np.sqrt(1.0 - ab_i)
    out = np.sqrt(1.0 - ab_i) * z_hat
    np.subtract(x, out, out=out)
    out /= np.sqrt(ab_i)           # x0_hat
    out *= np.sqrt(ab_prev)
    z_hat *= np.sqrt(1.0 - ab_prev)
    out += z_hat
    return out


def langevin_corrector(x: np.ndarray, i: int, schedule: Schedule,
                       oracle: ScoreOracle, r: float, z: np.ndarray,
                       batch_axes: int = 0,
                       squared_step: bool = False) -> np.ndarray:
    """One Langevin refinement step x + eps s + sqrt(2 eps) z (VE schedules only).

    The step size eps = 2 r ||z|| / ||s(x, i)|| is set from the same draw z
    that supplies the additive noise.  A zero score norm makes the
    step undefined; it is skipped with a warning.  ``batch_axes`` leading
    axes are treated as independent samples when computing the norms.

    With ``squared_step`` the signal-to-noise form eps = 2 (r ||z||/||s||)^2
    is used instead.  The default rule moves the state by exactly 2 r ||z||
    along the score direction irrespective of how close it already is, which
    floors the achievable error near r * sqrt(n); the squared form anneals
    the displacement with the noise level and matches the behaviour of
    predictor-corrector reconstruction in practice.

    Both rules send eps to infinity as the score norm vanishes (the state
    sits at the target), so eps is clamped at the Langevin stability limit
    1/max|J_i| of the oracle's slope, keeping 1 - eps |J_i| nonnegative.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.SMLD, "the Langevin corrector")
    if r < 0.0:
        raise ValidationError("corrector step-size ratio r must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if r == 0.0:
        return x
    s = oracle.score(x, i, schedule)
    data_axes = tuple(range(batch_axes, x.ndim))
    # np.add.reduce is what np.sum wraps: the same bits without its dispatch.
    s_norm = np.sqrt(np.add.reduce(s * s, axis=data_axes, keepdims=True))
    z_norm = np.sqrt(np.add.reduce(z * z, axis=data_axes, keepdims=True))
    zero = s_norm == 0.0
    if zero.any():
        logger.warning("corrector skipped at step %d: zero score norm", i)
        if zero.all():
            return x
        s_norm = np.where(zero, np.inf, s_norm)  # eps -> 0 on those rows
    if squared_step:
        eps = 2.0 * (r * z_norm / s_norm) ** 2
    else:
        eps = 2.0 * r * z_norm / s_norm
    j_max = np.abs(oracle.slope(i, schedule)).max()
    if j_max > 0.0:
        eps = np.minimum(eps, 1.0 / max(j_max, 1e-300))
    s *= eps
    s += x
    s += np.sqrt(2.0 * eps) * z
    return s


class KindRule:
    """One sampler kind's part in the reverse path and in its analysis.

    ``step`` is the reverse update (``z`` is None unless the kind is
    ``noisy``); ``corrected`` kinds run the Langevin corrector when
    corrector_r > 0.  At step i (an index array for ``lam`` and ``g2``),
    ``lam`` is lambda_i, ``g2`` is g_i^2, ``coords`` is (a_i, b_i) in the
    contraction coordinates, and ``scale`` takes a plain state at level i
    into those coordinates.

    ``shortcut`` states the kind's sufficient conditions for
    err_{0,r} <= mu eps0 as ``(checks, ok, reason)``: the thresholds tested,
    a boolean array over N' = 0..N (None when a precondition fails), and the
    condition that fails when no N' in 1..N is ok.  ``c_candidates`` gives
    the printed forms of C other than the primary n max_{i<=N'} g_i^2.
    """

    noisy = True
    corrected = False

    def scale(self, schedule: Schedule, i: int) -> float:
        return 1.0

    def c_candidates(self, schedule: Schedule, n_prime: int, n: int) -> dict:
        return {}


class _DdpmRule(KindRule):
    """lambda_i = sqrt(alpha_i) (1 - alpha_bar_{i-1}) / (1 - alpha_bar_i),
    g_i^2 = beta_i, (a_i, b_i) from ``forward_coeffs``.

    Shortcut: N' beta_{N'} >= 2 log(4n / (mu eps0)) and
    N' beta_{N'} <= mu eps0 / (4 n tau).  The source algebra also prints
    n (1 - alpha_N) and n (1 - alpha_bar_N) for C.
    """

    def step(self, x, i, schedule, oracle, z):
        return reverse_step_ddpm(x, i, schedule, oracle, z)

    def _vp(self, schedule: Schedule) -> Schedule:
        check_family(schedule, SamplerKind.DDPM, "DDPM analysis")
        return schedule

    def lam(self, schedule, i):
        s = self._vp(schedule)
        return np.sqrt(s.alpha[i]) * (1.0 - s.alpha_bar[i - 1]) / (1.0 - s.alpha_bar[i])

    def g2(self, schedule, i):
        return self._vp(schedule).beta[i]

    def coords(self, schedule, i):
        c = forward_coeffs(self._vp(schedule), i)
        return c.a, c.b

    def shortcut(self, schedule, eps0, mu, tau, n):
        s = self._vp(schedule)
        lower = 2.0 * math.log(4.0 * n / (mu * eps0))
        upper = mu * eps0 / (4.0 * n * tau) if tau > 0 else math.inf
        v = np.arange(s.N + 1) * s.beta
        v_max = float(v[s.N])
        if v_max < lower:
            reason = (f"lower condition unsatisfiable: N' beta_N' <= {v_max:.6g} "
                      f"< 2 log(4n/(mu eps0)) = {lower:.6g} for every N'")
        else:
            reason = (f"empty window: the smallest N' with N' beta_N' >= {lower:.6g} "
                      f"already violates N' beta_N' <= mu eps0/(4 n tau) = {upper:.6g}")
        checks = {"lower_threshold": lower, "upper_threshold": upper}
        return checks, (v >= lower) & (v <= upper), reason

    def c_candidates(self, schedule, n_prime, n):
        s = self._vp(schedule)
        return {"n_one_minus_alpha_N": float(n * (1.0 - s.alpha[s.N])),
                "n_one_minus_alpha_bar_N": float(n * (1.0 - s.alpha_bar[s.N]))}


class _SmldRule(KindRule):
    """lambda_i = (sigma_{i-1}^2 - sigma_0^2) / (sigma_i^2 - sigma_0^2),
    g_i^2 = sigma_i^2 - sigma_{i-1}^2, (a_i, b_i) from ``forward_coeffs``.

    Shortcut: sigma_min^2 < mu^(3/2) eps0 / (8n), sigma_max^2 > mu eps0 / (4n),
    and (N'-1)/(N-1) inside
    [log(2/sqrt(mu)), log(mu eps0 / (4 n sigma_min^2))] / log(sigma_max^2/sigma_min^2).
    C is also printed in the geometric-schedule form
    n sigma_{N'}^2 (1 - (sigma_1/sigma_N)^{2/(N-1)}).
    """

    corrected = True

    def step(self, x, i, schedule, oracle, z):
        return reverse_step_smld(x, i, schedule, oracle, z)

    def sigma(self, schedule: Schedule) -> np.ndarray:
        check_family(schedule, SamplerKind.SMLD, "SMLD analysis")
        return schedule.sigma

    def lam(self, schedule, i):
        s = self.sigma(schedule)
        s0sq = s[0] ** 2
        return (s[i - 1] ** 2 - s0sq) / (s[i] ** 2 - s0sq)

    def g2(self, schedule, i):
        s = self.sigma(schedule)
        return s[i] ** 2 - s[i - 1] ** 2

    def coords(self, schedule, i):
        self.sigma(schedule)                 # the family check
        c = forward_coeffs(schedule, i)
        return c.a, c.b

    def shortcut(self, schedule, eps0, mu, tau, n):
        s, N = self.sigma(schedule), schedule.N
        smin2, smax2 = float(s[1] ** 2), float(s[N] ** 2)
        pre_min = mu ** 1.5 * eps0 / (8.0 * n)
        pre_max = mu * eps0 / (4.0 * n)
        checks = {"sigma_min_sq": smin2, "sigma_min_cap": pre_min,
                  "sigma_max_sq": smax2, "sigma_max_floor": pre_max}
        if not smin2 < pre_min:
            return checks, None, (f"sigma_min^2 = {smin2:.6g} is not < "
                                  f"mu^(3/2) eps0/(8n) = {pre_min:.6g}")
        if not smax2 > pre_max:
            return checks, None, (f"sigma_max^2 = {smax2:.6g} is not > "
                                  f"mu eps0/(4n) = {pre_max:.6g}")
        log_ratio = math.log(smax2 / smin2)
        lo = math.log(2.0 / math.sqrt(mu)) / log_ratio
        hi = math.log(mu * eps0 / (4.0 * n * smin2)) / log_ratio
        checks.update({"ratio_lower": lo, "ratio_upper": hi})
        r = (np.arange(N + 1) - 1.0) / (N - 1.0)
        return checks, (lo <= r) & (r <= hi), (
            f"no integer N' puts (N'-1)/(N-1) inside [{lo:.6g}, {hi:.6g}]")

    def c_candidates(self, schedule, n_prime, n):
        s, N = self.sigma(schedule), schedule.N
        ratio = (s[1] / s[N]) ** (2.0 / (N - 1.0))
        return {"geometric_form": float(n * s[n_prime] ** 2 * (1.0 - ratio))}


class _DdimRule(KindRule):
    """lambda_i = sigma_{i-1} / sigma_i, g_i^2 = 0, (a_i, b_i) = (1, sigma_i) with
    sigma = ddim_sigma, or the sigma grid of a VE schedule (see analysis).

    Shortcut: sigma_0^2 <= mu eps0 / (4n), then sigma_{N'}^2 >= eps0 / (2n).
    """

    noisy = False

    def step(self, x, i, schedule, oracle, z):
        return reverse_step_ddim(x, i, schedule, oracle)

    def sigma(self, schedule: Schedule) -> np.ndarray:
        return schedule.ddim_sigma if schedule.is_vp else schedule.sigma

    def lam(self, schedule, i):
        s = self.sigma(schedule)
        return s[i - 1] / s[i]

    def g2(self, schedule, i):
        return np.zeros(np.shape(i))

    def coords(self, schedule, i):
        return 1.0, float(self.sigma(schedule)[i])

    def shortcut(self, schedule, eps0, mu, tau, n):
        s = self.sigma(schedule)
        s0sq = float(s[0] ** 2)
        cap = mu * eps0 / (4.0 * n)
        floor = eps0 / (2.0 * n)
        checks = {"sigma0_sq": s0sq, "sigma0_cap": cap, "sigma_floor_sq": floor}
        if not s0sq <= cap:
            return checks, None, (f"sigma_0^2 = {s0sq:.6g} exceeds "
                                  f"mu eps0/(4n) = {cap:.6g}")
        return checks, s ** 2 >= floor, (
            f"sigma_N^2 = {float(s[schedule.N] ** 2):.6g} never reaches "
            f"eps0/(2n) = {floor:.6g}")

    def scale(self, schedule, i):
        return 1.0 / float(np.sqrt(schedule.alpha_bar[i]))


RULES = {SamplerKind.DDPM: _DdpmRule(), SamplerKind.SMLD: _SmldRule(),
         SamplerKind.DDIM: _DdimRule()}


def _check_op(op, shape) -> None:
    for attr in ("apply_linear", "offset", "shape"):
        if not hasattr(op, attr):
            raise ValidationError(
                f"consistency operator lacks required attribute {attr!r}"
            )
    if tuple(shape)[-len(op.shape):] != tuple(op.shape):
        raise ValidationError(
            f"input shape {tuple(shape)} does not end with operator shape {tuple(op.shape)}"
        )


def _refill(stream: RngStream, z, i: int) -> None:
    """After step i consumed ``z``: hand it back to its stream to refill with
    the next block (see ``RngStream.refill``), unless there is no draw, i = 1
    (nothing is drawn after it) or the block is too small to pay."""
    if z is not None and i > 1 and z.size >= REFILL_MIN_VALUES:
        stream.refill(z)


def prefetch(stream: RngStream, shape) -> None:
    """Have ``stream`` fill its next block of ``shape`` in a fresh buffer
    ahead of the draw, if the block is large enough to pay."""
    if math.prod(shape) >= REFILL_MIN_VALUES:
        stream.refill(np.empty(shape))


def _fill_ahead(states: list, cfg: CcdfConfig, op, noise, corrector_noise,
                anchor_rng: RngStream):
    """Start filling the path's noise ahead of its draws, as the module
    docstring says; returns a context that settles any plan on exit."""
    rule = RULES[cfg.kind]
    reverse = [(noise[k], x.shape) for k, x in enumerate(states)] if rule.noisy else []
    corrector = ([(corrector_noise[k], x.shape) for k, x in enumerate(states)]
                 if cfg.corrected else [])
    if states[0].size >= REFILL_MIN_VALUES:
        for stream, shape in reverse + corrector:
            prefetch(stream, shape)
        return contextlib.nullcontext()
    anchor = [(anchor_rng, states[0].shape)] if getattr(op, "draws_anchor", False) else []
    step = reverse + anchor + (corrector + anchor if cfg.corrected else [])
    if not step:
        return contextlib.nullcontext()
    return plan_draws(step * cfg.n_prime, REFILL_MIN_VALUES)


def _consistency(states: list, op, i: int, c, rng: RngStream, batch_axes: int) -> None:
    """x <- A x + b_i on every trajectory, with one offset b_i shared by all."""
    b = op.offset(c, rng, batch_shape=states[0].shape[:batch_axes])
    for k in range(len(states)):
        # In place is safe: apply_linear returns a new array or the state itself,
        # which the loop owns.
        x = op.apply_linear(states[k])
        x += b
        states[k] = x
    # Only an anchor draw is the loop's to hand back; a constant offset is the
    # operator's own array.
    _refill(rng, b if getattr(op, "draws_anchor", False) else None, i)


def reverse_path(states: list, cfg: CcdfConfig, schedule: Schedule,
                 oracle: ScoreOracle, op, noise, corrector_noise,
                 anchor_rng: RngStream, on_step) -> list:
    """Run reverse steps i = N'..1 on coupled trajectories, updating ``states`` in place.

    Each step applies the kind's reverse update to every trajectory, then the
    consistency map with one offset shared by all, drawn from ``anchor_rng``
    with the step's forward coefficients (a_i, b_i) on ``schedule``.  Only
    SMLD with corrector_r > 0 follows with a Langevin corrector step and a
    second consistency map.  ``noise[k]`` and ``corrector_noise[k]`` are the
    streams of trajectory k, filled ahead as the module docstring says.
    Trajectories share draws only if the caller hands them streams with the
    same seed and ids.  The axes in front of the operator's ``shape`` hold
    independent samples.
    ``on_step(i, states)`` runs after step i.
    """
    if cfg.N != schedule.N:
        raise ValidationError(f"config N={cfg.N} does not match schedule N={schedule.N}")
    _check_op(op, states[0].shape)
    check_mean_fits(oracle, op.shape)
    batch_axes = states[0].ndim - len(op.shape)
    if not all(np.isfinite(x).all() for x in states):
        raise ValidationError(f"non-finite state at the start of step {cfg.n_prime}")
    rule = RULES[cfg.kind]
    with _fill_ahead(states, cfg, op, noise, corrector_noise, anchor_rng):
        for i in range(cfg.n_prime, 0, -1):
            c = forward_coeffs(schedule, i)
            # Indexing, not a loop variable, so no old state outlives its update.
            for k in range(len(states)):
                z = noise[k].normal(states[k].shape) if rule.noisy else None
                states[k] = rule.step(states[k], i, schedule, oracle, z)
                _refill(noise[k], z, i)
            _consistency(states, op, i, c, anchor_rng, batch_axes)
            if cfg.corrected:
                for k in range(len(states)):
                    z = corrector_noise[k].normal(states[k].shape)
                    states[k] = langevin_corrector(
                        states[k], i, schedule, oracle, cfg.corrector_r, z,
                        batch_axes=batch_axes, squared_step=cfg.corrector_squared_step)
                    _refill(corrector_noise[k], z, i)
                _consistency(states, op, i, c, anchor_rng, batch_axes)
            if on_step is not None:
                on_step(i, states)
    return states


def _check_finite(i: int, states: list) -> None:
    if not np.isfinite(states[0]).all():
        raise ValidationError(f"non-finite state after step {i}")


def ccdf_sample(x0_init: np.ndarray, op, cfg: CcdfConfig, schedule: Schedule,
                oracle: ScoreOracle, rng: RngStream) -> np.ndarray:
    """Run the shortcut sampler: forward-diffuse to N', then reverse to 0.

    This is the one-trajectory case of ``reverse_path``.  Forward, reverse,
    consistency and corrector draws come from separate substreams of
    ``rng``, so coupled runs can reproduce or share any of them.  A state
    that turns non-finite raises ``ValidationError`` naming the step.
    """
    x = forward_diffuse(x0_init, cfg.n_prime, schedule,
                        rng.substream(STREAM_FORWARD).normal(np.shape(x0_init)))
    [x] = reverse_path([x], cfg, schedule, oracle, op, [rng.substream(STREAM_REVERSE)],
                       [rng.substream(STREAM_CORRECTOR)],
                       rng.substream(STREAM_CONSISTENCY), _check_finite)
    return x
