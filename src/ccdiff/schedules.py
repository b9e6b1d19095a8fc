"""Discrete noise schedules for VP (DDPM/DDIM) and VE (SMLD) samplers.

A schedule is pure data: every derived coefficient is precomputed in double
precision at construction time and the arrays are frozen, so all downstream
bound computations are deterministic and schedules can be shared read-only
across workers.

Index convention: arrays have length N + 1 and are addressed by the step
index i in 0..N.  Index 0 is the boundary slot: beta[0] = 0, alpha_bar[0] = 1
(empty product), ddim_sigma[0] = 0, and for VE schedules sigma[0] is the
geometric series evaluated at i = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


class SamplerKind(enum.Enum):
    DDPM = "ddpm"
    SMLD = "smld"
    DDIM = "ddim"


@dataclass(frozen=True, eq=False)
class Schedule:
    """Precomputed noise-schedule arrays; the caller passes the sampler kind.

    For VP schedules (run by DDPM or DDIM) all arrays are populated and
    ``sigma[i]`` holds the default reverse-noise standard deviation
    sqrt(beta_i).  For VE schedules (run by SMLD) only ``sigma`` is populated;
    ``beta``, ``alpha``, ``alpha_bar`` and ``ddim_sigma`` are None.
    """

    N: int
    beta: np.ndarray | None
    alpha: np.ndarray | None
    alpha_bar: np.ndarray | None
    sigma: np.ndarray
    ddim_sigma: np.ndarray | None

    @property
    def is_vp(self) -> bool:
        return self.alpha_bar is not None

    def with_kind(self, kind: SamplerKind) -> "Schedule":
        """This schedule, after checking that ``kind`` can run on it."""
        check_family(self, kind, f"sampler kind {kind.value}")
        return self


@dataclass(frozen=True)
class ForwardCoeffs:
    """Single-step forward diffusion coefficients: x_i = a_i x_0 + b_i z."""

    a: float
    b: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def make_vp_schedule(beta_min: float, beta_max: float, N: int) -> Schedule:
    """Linear-in-step beta grid: beta_i interpolates beta_min..beta_max over i = 1..N."""
    if N < 2:
        raise ValidationError(f"N must be >= 2, got {N}")
    if not (0.0 < beta_min < beta_max < 1.0):
        raise ValidationError(
            f"need 0 < beta_min < beta_max < 1, got ({beta_min}, {beta_max})"
        )
    i = np.arange(N + 1, dtype=np.float64)
    beta = beta_min + (i - 1.0) * (beta_max - beta_min) / (N - 1.0)
    beta[0] = 0.0
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    # alpha_bar[0] = 1 by the empty-product convention (alpha[0] = 1).
    sigma = np.sqrt(beta)
    ddim_sigma = np.sqrt(1.0 - alpha_bar) / np.sqrt(alpha_bar)
    return Schedule(N=int(N), beta=_freeze(beta), alpha=_freeze(alpha),
                    alpha_bar=_freeze(alpha_bar), sigma=_freeze(sigma),
                    ddim_sigma=_freeze(ddim_sigma))


def make_ve_schedule(sigma_min: float, sigma_max: float, N: int) -> Schedule:
    """Geometric sigma grid sigma_i = sigma_min (sigma_max/sigma_min)^((i-1)/(N-1)).

    The formula is evaluated for i = 0..N; sigma[0] is the extrapolation at
    i = 0, which keeps b_1^2 = sigma_1^2 - sigma_0^2 strictly positive.
    """
    if N < 2:
        raise ValidationError(f"N must be >= 2, got {N}")
    if not (0.0 < sigma_min < sigma_max < np.inf):
        raise ValidationError(
            f"need 0 < sigma_min < sigma_max < inf, got ({sigma_min}, {sigma_max})"
        )
    # Python float products and quotients over- and underflow without a warning.
    for name, s in (("sigma_min", sigma_min), ("sigma_max", sigma_max)):
        if not 0.0 < float(s) * float(s) < np.inf:
            raise ValidationError(
                f"{name}^2 must be a positive finite float, got {name} = {s}")
    if not float(sigma_max) / float(sigma_min) < np.inf:
        raise ValidationError(
            f"sigma_max / sigma_min overflows, got ({sigma_min}, {sigma_max})")
    i = np.arange(N + 1, dtype=np.float64)
    sigma = sigma_min * (sigma_max / sigma_min) ** ((i - 1.0) / (N - 1.0))
    return Schedule(N=int(N), beta=None, alpha=None, alpha_bar=None,
                    sigma=_freeze(sigma), ddim_sigma=None)


def check_step_index(schedule: Schedule, i: int) -> int:
    """Validate a step index against the schedule range [1, N]."""
    i = int(i)
    if not 1 <= i <= schedule.N:
        raise ValidationError(f"step index {i} out of range [1, {schedule.N}]")
    return i


def check_family(schedule: Schedule, kind: SamplerKind, what: str) -> None:
    """Raise unless the schedule family fits the kind: VE for SMLD, VP otherwise."""
    if (kind is SamplerKind.SMLD) == schedule.is_vp:
        family = "VE" if kind is SamplerKind.SMLD else "VP"
        raise ValidationError(f"{what} requires a {family} schedule")


def forward_coeffs(schedule: Schedule, i: int) -> ForwardCoeffs:
    """Coefficients (a_i, b_i) of the single-step forward diffusion at step i.

    DDPM/DDIM: a = sqrt(alpha_bar_i), b = sqrt(1 - alpha_bar_i).
    SMLD:      a = 1,                 b = sqrt(sigma_i^2 - sigma_0^2).
    """
    i = check_step_index(schedule, i)
    if schedule.is_vp:
        ab = schedule.alpha_bar[i]
        return ForwardCoeffs(a=float(np.sqrt(ab)), b=float(np.sqrt(1.0 - ab)))
    s2 = schedule.sigma[i] ** 2 - schedule.sigma[0] ** 2
    return ForwardCoeffs(a=1.0, b=float(np.sqrt(s2)))


def step_index_of_time(t: float, N: int) -> int:
    """Map continuous time t in (0, 1] to a step index: round(t*N), clamped to [1, N]."""
    if not 0.0 < t <= 1.0:
        raise ValidationError(f"t must lie in (0, 1], got {t}")
    return min(int(N), max(1, int(np.floor(t * N + 0.5))))


def schedule_rows(schedule: Schedule):
    """Yield one dict per step index i = 0..N, keys in column order; the
    columns a VE schedule lacks are empty."""
    for i in range(schedule.N + 1):
        row = {"i": i}
        for name in ("beta", "alpha", "alpha_bar", "sigma", "ddim_sigma"):
            arr = getattr(schedule, name)
            row[name] = repr(float(arr[i])) if arr is not None else ""
        yield row
