"""Closed-form contraction quantities and error-bound machinery.

The reverse map of each sampler, evaluated with the exact conditional score,
is affine with a scalar Jacobian; its per-step contraction factor lambda_i
has a closed form per sampler kind.  Coupled trajectories driven by
independent noise then satisfy the recursion

    err_{j-1} <= lambda_j^2 err_j + 2 C_j tau,

whose unrolled form is the tight ("recursive") bound; relaxing lambda_j and
C_j to their maxima gives the simple geometric bound
2 C tau / (1 - lambda^2) + lambda^(2 N') err_{N'}.

DDIM quantities live in reparameterized coordinates x / sqrt(alpha_bar),
where the sampler becomes a noise-free variance-exploding recursion with
noise scale sigma_i = sqrt(1 - alpha_bar_i) / sqrt(alpha_bar_i); the
coordinates coincide with the plain ones at step 0, so end-to-end error
statements transfer unchanged.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .samplers import RULES
from .schedules import SamplerKind, Schedule, check_step_index


def contraction_rate(schedule: Schedule, kind: SamplerKind,
                     n_prime: int) -> tuple[float, np.ndarray]:
    """Per-step contraction factors lambda_i for i = 1..N' and their maximum.

    The closed form of each kind is in its rule, ``samplers.RULES``; the
    factors are a read-only view of the rule's table for ``schedule``.
    """
    n_prime = check_step_index(schedule, n_prime)
    t = RULES[kind].table(schedule)
    return float(t.lam_max[n_prime - 1]), t.lam[:n_prime]


def noise_constant_per_step(schedule: Schedule, kind: SamplerKind,
                            n_prime: int, n: int) -> np.ndarray:
    """Per-step noise constants C_j = n g_j^2 for j = 1..N' (g_j^2 from the
    kind's rule; DDPM: 1 - alpha_j = beta_j, DDIM: 0)."""
    n_prime = check_step_index(schedule, n_prime)
    _check_dimension(n)
    return n * RULES[kind].table(schedule).g2[:n_prime]


def noise_constant(schedule: Schedule, kind: SamplerKind, n_prime: int,
                   n: int) -> float:
    """C = n max_{i in [1, N']} g_i^2 (0 for the deterministic sampler)."""
    return float(noise_constant_per_step(schedule, kind, n_prime, n).max(initial=0.0))


def noise_constant_candidates(schedule: Schedule, kind: SamplerKind,
                              n_prime: int, n: int) -> dict[str, float]:
    """Alternative printed forms of C, surfaced for comparison.

    The source algebra prints several non-equivalent expressions for C; the
    primary value used in bounds is the g-derived n max_{i<=N'} g_i^2, and
    the kind's rule supplies the others.
    """
    return {"primary": noise_constant(schedule, kind, n_prime, n),
            **RULES[kind].c_candidates(schedule, n_prime, n)}


def forward_error(eps0: float, schedule: Schedule, kind: SamplerKind,
                  n_prime: int, n: int) -> float:
    """Expected squared distance after forward-diffusing both trajectories.

    With independent noise draws, err_{N'} = a_{N'}^2 eps0 + 2 b_{N'}^2 n for
    the contraction-coordinate coefficients (a, b) of the kind's rule.
    """
    if not 0.0 <= eps0 < np.inf:
        raise ValidationError("eps0 is a squared distance and must be finite and >= 0")
    _check_dimension(n)
    a, b = RULES[kind].coords(schedule, check_step_index(schedule, n_prime))
    return float(a * a * eps0 + 2.0 * b * b * n)


def bound_traces(lambda_per_step: np.ndarray, c_per_step: np.ndarray,
                 tau: float, fwd_err: float, *, final: bool = False
                 ) -> tuple[np.ndarray, np.ndarray] | tuple[float, float]:
    """Per-step bound traces B_j for j = 0..N' (entry j bounds err at step j).

    recursive: B_{N'} = err_{N'}; B_{j-1} = lambda_j^2 B_j + 2 C_j tau.
    simple:    B_j = 2 C tau / (1 - lambda^2) + lambda^(2 (N'-j)) err_{N'}
               with lambda, C the maxima over the window (a relaxation of
               the recursion, hence recursive <= simple entrywise).

    With ``final`` set, only the step-0 bounds (simple B_0, recursive B_0)
    are computed, as floats with the bits of entry 0 of the traces.
    """
    lam = np.asarray(lambda_per_step, dtype=np.float64)
    cs = np.asarray(c_per_step, dtype=np.float64)
    if lam.shape != cs.shape or lam.ndim != 1:
        raise ValidationError("lambda and C traces must be 1D arrays of equal length")
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [0, 1], got {tau}")
    # The simple bound takes the largest lambda, the recursion its square:
    # a negative lambda_j would put the recursion above the simple bound.
    # min propagates nan, so one check refuses a nan entry too.
    for name, trace in (("lambda", lam), ("C", cs)):
        if not trace.min(initial=0.0) >= 0.0:
            j = int(np.argmax(~(trace >= 0.0)))
            value = float(trace[j])
            what = "negative" if value < 0.0 else "not a number"
            raise ValidationError(f"{name}_{j + 1} = {value!r} is {what}")
    n_prime = lam.size
    lam_max = float(lam.max(initial=0.0))
    if not lam_max < 1.0:
        raise ValidationError(f"contraction requires lambda < 1, got {lam_max}")
    fwd_err = float(fwd_err)
    if not 0.0 <= fwd_err < math.inf:
        raise ValidationError(f"fwd_err must be finite and >= 0, got {fwd_err!r}")
    # np.float_power is libm pow, as the float ** of the loop it replaced
    # was; lam * lam and np.power(lam, 2) would move a few bits.
    sq = np.float_power(lam[::-1], 2.0)
    noise = 2.0 * cs[::-1] * tau
    c_max = float(cs.max(initial=0.0))
    head = 2.0 * c_max * tau / (1.0 - lam_max ** 2)
    rec = np.empty(n_prime + 1)
    if fwd_err > 0.0 and not noise.any():
        # Every 2 C_j tau is 0, and fl(lam^2 b) + 0.0 = fl(lam^2 b) for
        # finite b > 0: the running product, left to right, is the recursion.
        np.multiply.accumulate(np.concatenate(([fwd_err], sq)), out=rec[::-1])
    elif final:
        # Python floats run this loop 3x as fast as numpy scalars; a
        # memoryview hands them out without building two lists first.
        b = fwd_err
        for v, c in zip(memoryview(sq), memoryview(noise)):
            b = v * b + c
        rec[0] = b
    else:
        b = fwd_err
        steps = ((b := v * b + c) for v, c in zip(sq.tolist(), noise.tolist()))
        rec[::-1] = np.fromiter(itertools.chain((fwd_err,), steps), np.float64,
                                n_prime + 1)
    if final:
        # Python's and numpy's scalar ** can differ from the trace's array
        # power in the last bit; a one-element array takes the trace's path.
        decay = float(np.power(lam_max, np.array([2.0 * n_prime]))[0])
        return float(head + decay * fwd_err), float(rec[0])
    steps_left = n_prime - np.arange(n_prime + 1)
    simple = head + lam_max ** (2.0 * steps_left) * fwd_err
    return simple, rec


def _check_dimension(n) -> None:
    """Refuse a data dimension n that is not an integer in [1, largest float]."""
    if not 1 <= n <= sys.float_info.max:
        raise ValidationError(
            f"data dimension n must be >= 1 and at most the largest float, got {n}")
    # int first: the ABC check alone costs several times the rest.
    if not isinstance(n, (int, numbers.Integral)) or isinstance(n, bool):
        raise ValidationError(f"data dimension n must be an integer, got {n!r}")


@dataclass(frozen=True)
class ContractionReport:
    """Everything needed to state and check the end-to-end error bound."""

    kind: SamplerKind
    n_prime: int
    n: int
    lam: float
    lambda_per_step: np.ndarray
    C: float
    c_candidates: dict
    tau: float
    eps0: float
    forward_error: float
    bound_simple: float
    bound_recursive: float

    def rows(self):
        yield ("kind", self.kind.value)
        yield ("n_prime", self.n_prime)
        yield ("n", self.n)
        yield ("lambda", repr(self.lam))
        yield ("C", repr(self.C))
        for name, val in sorted(self.c_candidates.items()):
            if name != "primary":
                yield (f"C[{name}]", repr(val))
        yield ("tau", repr(self.tau))
        yield ("eps0", repr(self.eps0))
        yield ("forward_error", repr(self.forward_error))
        yield ("bound_simple", repr(self.bound_simple))
        yield ("bound_recursive", repr(self.bound_recursive))


def contraction_report(schedule: Schedule, kind: SamplerKind, n_prime: int,
                       n: int, tau: float, eps0: float) -> ContractionReport:
    """Assemble lambda, C, tau, the forward error and both bounds.

    A report with a quantity that overflows a float is refused, naming the
    first of: the forward error, a C_j, a printed C candidate, the simple
    and the recursive bound (an overflowed bound times lambda_1 = 0 is nan).
    """
    _check_dimension(n)
    lam, lam_steps = contraction_rate(schedule, kind, n_prime)
    with np.errstate(over="ignore", invalid="ignore"):
        c_steps = noise_constant_per_step(schedule, kind, n_prime, n)
        fwd = forward_error(eps0, schedule, kind, n_prime, n)
        C = noise_constant(schedule, kind, n_prime, n)
        candidates = noise_constant_candidates(schedule, kind, n_prime, n)
        bound_simple = bound_recursive = math.nan
        if math.isfinite(fwd):      # bound_traces refuses one that is not
            bound_simple, bound_recursive = bound_traces(lam_steps, c_steps, tau,
                                                         fwd, final=True)
    # candidates["primary"] is C, the largest C_j: finite only if every C_j is.
    if not all(map(math.isfinite, (fwd, *candidates.values(), bound_simple,
                                   bound_recursive))):
        printed = {"forward_error": fwd,
                   **{f"C_{j}": c for j, c in enumerate(c_steps.tolist(), 1)},
                   **{f"C[{k}]": v for k, v in candidates.items() if k != "primary"},
                   "bound_simple": bound_simple, "bound_recursive": bound_recursive}
        name, value = next((k, v) for k, v in printed.items() if not math.isfinite(v))
        raise ValidationError(f"{name} = {value!r} overflows a float at "
                              f"n = {float(n):.6g} and eps0 = {eps0!r}")
    return ContractionReport(
        kind=kind, n_prime=n_prime, n=n, lam=lam, lambda_per_step=lam_steps,
        C=C, c_candidates=candidates,
        tau=float(tau), eps0=float(eps0), forward_error=fwd,
        bound_simple=bound_simple, bound_recursive=bound_recursive,
    )


@dataclass(frozen=True)
class ShortcutResult:
    """Outcome of the minimal-shortcut search.

    ``n_prime`` is the smallest step index satisfying the kind-specific
    sufficient conditions, or None with ``reason`` naming the violated
    condition.  ``checks`` records the numeric thresholds that were tested.
    """

    feasible: bool
    n_prime: int | None
    reason: str | None
    checks: dict = field(default_factory=dict)


def minimal_shortcut(eps0: float, mu: float, schedule: Schedule,
                     kind: SamplerKind, tau: float, n: int) -> ShortcutResult:
    """Smallest N' whose sufficient conditions guarantee err_{0,r} <= mu eps0.

    The conditions of each kind are in its rule, ``samplers.RULES``.  The
    search takes the first N' in 1..N that meets them, so the returned index
    satisfies the stated inequalities by construction; infeasibility is
    reported, never guessed.
    """
    if not 0.0 < eps0 < np.inf:
        raise ValidationError(f"eps0 must be finite and positive, got {eps0}")
    if not 0.0 < mu <= 1.0:
        raise ValidationError("mu must lie in (0, 1]")
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [0, 1], got {tau}")
    _check_dimension(n)
    checks, ok, reason = RULES[kind].shortcut(schedule, eps0, mu, tau, n)
    if ok is not None:
        hits = np.flatnonzero(ok[1:])
        if hits.size:
            return ShortcutResult(True, int(hits[0]) + 1, None, checks)
    return ShortcutResult(False, None, reason, checks)
