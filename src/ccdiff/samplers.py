"""Forward diffusion, reverse-diffusion steps, and the shortcut reverse path.

The shortcut sampler forward-diffuses an initial estimate to step
N' = round(t0 * N), then ``reverse_path`` runs each step as phases of one
block, on one trajectory (``ccdf_sample``) or on the harness's coupled pairs:
the kind's reverse step (``RULES``), then on a corrected VE path a Langevin
corrector step, each followed by the data-consistency map x <- A x' + b_i.

Forward diffusion, the stochastic reverse steps and the corrector are pure
functions of the standard-normal draw ``z`` they are given (DDIM has none).
They never write ``x`` or ``z``: each finishes its update in place in the
array the score returned or in one array of its own, so a call allocates at
most its result and one temporary.  Only the loops and the SR/inpaint
offsets draw; a coupled pair shares the draws of the streams its caller
gives the same ids.  The rng worker thread fills the noise ahead while the
loop computes, in the order the phases draw it, and the draws' values do
not change.  A draw of at least ``rng.REFILL_MIN_VALUES`` values is filled
on its own (``rng.prefetch``): ``reverse_path`` fills every stream's first
draw before step N', then a stream's next once a step has used one if it
draws again, and ``run_error_curve`` the reference trajectory's forward
draw.  Smaller draws are planned: ``rng.plan_draws`` fills every draw of
the path in jobs of at least that many values (8 steps of a 64x64 SMLD
path with the corrector).
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ValidationError
from .rng import RngStream
from .schedules import (SamplerKind, Schedule, _freeze, check_family,
                        check_step_index, forward_coeffs, step_index_of_time)
from .score import ScoreOracle, check_mean_fits

logger = logging.getLogger(__name__)

DEFAULT_CORRECTOR_R = 0.16

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


def _step_input(x, i: int, schedule: Schedule, kind: SamplerKind, what: str):
    """(x as float64, i) after a reverse update's index and family checks."""
    i = check_step_index(schedule, i)
    check_family(schedule, kind, what)
    return np.asarray(x, dtype=np.float64), i


def reverse_step_ddpm(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle, z: np.ndarray) -> np.ndarray:
    """One ancestral reverse step of the variance-preserving sampler.

    x_{i-1} = (x_i + (1 - alpha_i) s(x_i, i)) / sqrt(alpha_i) + sqrt(beta_i) z.
    """
    x, i = _step_input(x, i, schedule, SamplerKind.DDPM, "a DDPM step")
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
    x, i = _step_input(x, i, schedule, SamplerKind.SMLD, "an SMLD step")
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
    x, i = _step_input(x, i, schedule, SamplerKind.DDIM, "a DDIM step")
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
    x, i = _step_input(x, i, schedule, SamplerKind.SMLD, "the Langevin corrector")
    if r < 0.0:
        raise ValidationError("corrector step-size ratio r must be nonnegative")
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


@dataclass(frozen=True, eq=False)
class KindTable:
    """One kind's per-step quantities on one schedule, read-only.  Entry
    i - 1 of ``lam``, ``lam_max`` and ``g2`` belongs to step i: lambda_i,
    max_{j<=i} lambda_j and g_i^2.  ``grid`` is indexed by N' = 0..N."""

    lam: np.ndarray
    lam_max: np.ndarray
    g2: np.ndarray
    grid: np.ndarray


class KindRule:
    """One sampler kind's part in the reverse path and in its analysis.

    ``step`` is the reverse update (``z`` is None unless the kind is
    ``noisy``); ``corrected`` kinds run the Langevin corrector when
    corrector_r > 0.  ``check`` returns the schedule after the family check
    of the kind's analysis (DDIM runs on either family).  At step i (an
    index array for ``lam`` and ``g2``), ``lam`` is lambda_i, ``g2`` is
    g_i^2, ``coords`` is (a_i, b_i) in the contraction coordinates, and
    ``scale`` takes a plain state at level i into those coordinates.

    ``shortcut`` states the kind's sufficient conditions for
    err_{0,r} <= mu eps0 as ``(checks, ok, reason)``: the thresholds tested,
    a boolean array over N' = 0..N (None when a precondition fails), and the
    condition that fails when no N' in 1..N is ok.  It compares the
    thresholds with ``grid``, the kind's quantity over N' = 0..N.
    ``c_candidates`` gives the printed forms of C other than the primary
    n max_{i<=N'} g_i^2.

    ``table`` holds ``lam``, ``g2`` and ``grid`` over a whole schedule,
    built on first use and freed with the schedule.
    """

    noisy = True
    corrected = False

    def __init__(self):
        self._tables = weakref.WeakKeyDictionary()

    def check(self, schedule: Schedule) -> Schedule:
        return schedule

    def table(self, schedule: Schedule) -> KindTable:
        """The kind's read-only tables on ``schedule``.  The formulas are
        elementwise, so a prefix of a table has the bits of the formula
        evaluated over that prefix of steps."""
        t = self._tables.get(schedule)
        if t is None:
            i = np.arange(1, schedule.N + 1)
            lam = self.lam(schedule, i)
            t = self._tables[schedule] = KindTable(
                lam=_freeze(lam), lam_max=_freeze(np.maximum.accumulate(lam)),
                g2=_freeze(self.g2(schedule, i)), grid=_freeze(self.grid(schedule)))
        return t

    def coords(self, schedule, i):
        c = forward_coeffs(self.check(schedule), i)
        return c.a, c.b

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

    def check(self, schedule):
        check_family(schedule, SamplerKind.DDPM, "DDPM analysis")
        return schedule

    def lam(self, schedule, i):
        s = self.check(schedule)
        return np.sqrt(s.alpha[i]) * (1.0 - s.alpha_bar[i - 1]) / (1.0 - s.alpha_bar[i])

    def g2(self, schedule, i):
        return self.check(schedule).beta[i]

    def grid(self, schedule):
        return np.arange(schedule.N + 1) * schedule.beta

    def shortcut(self, schedule, eps0, mu, tau, n):
        v = self.table(schedule).grid
        lower = 2.0 * math.log(4.0 * n / (mu * eps0))
        upper = mu * eps0 / (4.0 * n * tau) if tau > 0 else math.inf
        v_max = float(v[-1])
        if v_max < lower:
            reason = (f"lower condition unsatisfiable: N' beta_N' <= {v_max:.6g} "
                      f"< 2 log(4n/(mu eps0)) = {lower:.6g} for every N'")
        else:
            reason = (f"empty window: the smallest N' with N' beta_N' >= {lower:.6g} "
                      f"already violates N' beta_N' <= mu eps0/(4 n tau) = {upper:.6g}")
        checks = {"lower_threshold": lower, "upper_threshold": upper}
        return checks, (v >= lower) & (v <= upper), reason

    def c_candidates(self, schedule, n_prime, n):
        s = self.check(schedule)
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

    def check(self, schedule):
        check_family(schedule, SamplerKind.SMLD, "SMLD analysis")
        return schedule

    def lam(self, schedule, i):
        s = self.check(schedule).sigma
        s0sq = s[0] ** 2
        # The scalar s_0^2 (pow) and the array's s_{i-1}^2 (a product) can
        # differ in the last bit, which put lambda_1 = 0 at -2e-15 on 1 in
        # 2000 random schedules; the bound refuses a negative lambda.
        return np.maximum((s[i - 1] ** 2 - s0sq) / (s[i] ** 2 - s0sq), 0.0)

    def g2(self, schedule, i):
        s = self.check(schedule).sigma
        return s[i] ** 2 - s[i - 1] ** 2

    def grid(self, schedule):
        N = schedule.N
        return (np.arange(N + 1) - 1.0) / (N - 1.0)

    def shortcut(self, schedule, eps0, mu, tau, n):
        r = self.table(schedule).grid
        s, N = schedule.sigma, schedule.N
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
        return checks, (lo <= r) & (r <= hi), (
            f"no integer N' puts (N'-1)/(N-1) inside [{lo:.6g}, {hi:.6g}]")

    def c_candidates(self, schedule, n_prime, n):
        s, N = self.check(schedule).sigma, schedule.N
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

    def grid(self, schedule):
        return self.sigma(schedule) ** 2

    def shortcut(self, schedule, eps0, mu, tau, n):
        s, s2 = self.sigma(schedule), self.table(schedule).grid
        s0sq = float(s[0] ** 2)
        cap = mu * eps0 / (4.0 * n)
        floor = eps0 / (2.0 * n)
        checks = {"sigma0_sq": s0sq, "sigma0_cap": cap, "sigma_floor_sq": floor}
        if not s0sq <= cap:
            return checks, None, (f"sigma_0^2 = {s0sq:.6g} exceeds "
                                  f"mu eps0/(4n) = {cap:.6g}")
        return checks, s2 >= floor, (
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


def _fill_ahead(states: list, phases: list, op, anchor_rng: RngStream, n_prime: int):
    """Start filling the path's draws ahead, as the module docstring says.
    A step draws, phase by phase, one block from each of the phase's streams
    and then the anchor.  Returns a context that settles a plan on exit, and
    each prefetched stream's count of draws on the path."""
    anchor = [(anchor_rng, states[0].shape)] if getattr(op, "draws_anchor", False) else []
    step = []
    for _, streams in phases:
        step += [(s, x.shape) for s, x in zip(streams or (), states)] + anchor
    if states[0].size < rng.REFILL_MIN_VALUES:
        return rng.plan_draws(step * n_prime), Counter()
    for stream, shape in dict(step).items():    # each stream's first draw
        rng.prefetch(stream, shape)
    return contextlib.nullcontext(), Counter(s for s, _ in step * n_prime)


def _prefetch_next(left: Counter, stream: RngStream, shape) -> None:
    """After a step has used a draw of ``stream``: prefetch the stream's
    next one if ``left`` counts another on the path."""
    left[stream] -= 1
    if left[stream] > 0:
        rng.prefetch(stream, shape)


def reverse_path(states: list, cfg: CcdfConfig, schedule: Schedule,
                 oracle: ScoreOracle, op, noise, corrector_noise,
                 anchor_rng: RngStream, on_step) -> list:
    """Run reverse steps i = N'..1 on coupled trajectories, updating ``states`` in place.

    Each step runs one or two phases.  A phase applies an update to every
    trajectory, then the consistency map with one offset shared by all,
    drawn from ``anchor_rng`` with the step's forward coefficients (a_i, b_i)
    on ``schedule``.  The first phase's update is the kind's reverse step
    with ``noise[k]`` as trajectory k's stream (DDIM draws none); only SMLD
    with corrector_r > 0 adds a phase whose update is a Langevin corrector
    step with ``corrector_noise[k]``.  The streams are filled ahead as the
    module docstring says.  Trajectories share draws only if the caller
    hands them streams with the same seed and ids.  The axes in front of
    the operator's ``shape`` hold independent samples.
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
    phases = [(rule.step, noise if rule.noisy else None)]
    if cfg.corrected:   # made per call, so a replaced langevin_corrector is the one run
        corrector = functools.partial(langevin_corrector, r=cfg.corrector_r, batch_axes=batch_axes,
                                      squared_step=cfg.corrector_squared_step)
        phases.append((corrector, corrector_noise))
    plan, left = _fill_ahead(states, phases, op, anchor_rng, cfg.n_prime)
    with plan:
        for i in range(cfg.n_prime, 0, -1):
            c = forward_coeffs(schedule, i)
            for update, streams in phases:
                # Indexing, not a loop variable, so no old state outlives its
                # update; a draw is freed before its stream's next is prefetched.
                for k in range(len(states)):
                    states[k] = update(states[k], i, schedule, oracle,
                                       z=streams[k].normal(states[k].shape) if streams else None)
                    if streams:
                        _prefetch_next(left, streams[k], states[k].shape)
                # In place is safe: apply_linear returns a new array or the loop's
                # own state.  An SR or inpaint offset is the anchor draw, freed before the next.
                b = op.offset(c, anchor_rng, batch_shape=states[0].shape[:batch_axes])
                for k in range(len(states)):
                    states[k] = op.apply_linear(states[k])
                    states[k] += b
                del b
                _prefetch_next(left, anchor_rng, states[0].shape)
            if on_step is not None:
                on_step(i, states)
    return states


def _check_finite(i: int, states: list) -> None:
    if not np.isfinite(states[0]).all():
        raise ValidationError(f"non-finite state after step {i}")


# The substream ids of ``ccdf_sample``'s draws, one stream per role.
STREAM_FORWARD = 0
STREAM_REVERSE = 1
STREAM_CONSISTENCY = 2
STREAM_CORRECTOR = 3


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
