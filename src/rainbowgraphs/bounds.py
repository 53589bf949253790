"""Closed-form thresholds and failure-probability bounds, in log space.

Everything here is a pure function of its parameters.  Logs are natural.
Binomial coefficients go through log-gamma so the calculators stay finite
for n up to ~1e9 and colour budgets up to ~1e10.

theta sums d*n - 1 terms L(s) by log-sum-exp, but usually only its top term
L(kappa-1) counts: when a bound shows every other term lies far enough
below it that exp underflows to an exact 0.0, the sum is that term, to the
bit, and theta evaluates it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

_CHUNK = 1 << 20
# exp(x) rounds to 0.0 in binary64 for x < -1075 log 2 = -745.133, and a
# chunk's log-sum-exp exceeds its largest term by at most log(_CHUNK)
_NEGLIGIBLE = 746.0 + math.log(_CHUNK)


@dataclass(frozen=True)
class ThresholdReport:
    """Minimum edge probabilities from the two embedding thresholds;
    eq2_p_min is the structural term alone, the uncoloured (Alon-Furedi)
    threshold, and eq1_term_structural_alt is set only when asked for."""

    eq1_term_structural: float
    eq1_term_colour: float
    eq1_p_min: float
    eq1_term_structural_alt: float | None
    eq2_p_min: float
    hypothesis_ok: bool


@dataclass(frozen=True)
class RiordanReport:
    """Values of the density-based embedding condition and its side
    conditions."""

    riordan_value: float
    side_condition_edges: float
    side_condition_sparsity: float


@dataclass(frozen=True)
class BoundReport:
    """Failure-probability bound: minimum-out-degree tail term plus the
    colour-set union bound, accumulated in log space.

    theta_raw may exceed 1 at desk-scale parameters; theta is the clamped
    probability, log_theta the unclamped log.
    """

    chernoff_term: float
    s_range: tuple[int, int]
    log_theta: float
    theta_raw: float
    theta: float


def theorem1_threshold(
    n: int, delta: int, eps: float, alt_parse: bool = False
) -> ThresholdReport:
    """Minimum p for a rainbow copy of a bounded-degree spanning graph:
    the max of a structural term (10 log m / m)^(1/delta) with
    m = floor(n / (delta^2 + 1)) and a colour term 10 eps^-2 delta log n / n.

    The hypothesis (delta^2+1)^2 < n is reported, not enforced.  With
    alt_parse the structural term is also evaluated at m = floor(n/delta^2)+1.
    """
    if delta < 1 or not eps > 0 or n < 1:  # NaN fails too
        raise ValueError(f"bad parameters n={n}, delta={delta}, eps={eps}")
    m = n // (delta**2 + 1)
    if m < 2:
        raise ValueError(f"n={n} too small for delta={delta}: m={m}")
    structural = (10.0 * math.log(m) / m) ** (1.0 / delta)
    colour = 10.0 * delta * math.log(n) / (eps**2 * n)
    alt = None
    if alt_parse:
        m2 = n // delta**2 + 1
        alt = (10.0 * math.log(m2) / m2) ** (1.0 / delta)
    return ThresholdReport(
        eq1_term_structural=structural,
        eq1_term_colour=colour,
        eq1_p_min=max(structural, colour),
        eq1_term_structural_alt=alt,
        eq2_p_min=structural,
        hypothesis_ok=(delta**2 + 1) ** 2 < n,
    )


def chernoff_bound(n: int, p1: float, eps: float) -> float:
    """Union bound on some vertex having out-degree <= (1-eps) n p1:
    n * exp(-eps^2 n p1 / 2)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"need eps in (0, 1], got {eps}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"need p1 in [0, 1], got {p1}")
    return n * math.exp(-(eps**2) * n * p1 / 2.0)


def _log_l_array(
    n: int, d: int, kappa: int, eps: float, p1: float, s: np.ndarray
) -> np.ndarray:
    r = kappa - s  # number of colours outside S, >= 1 on the valid range
    need = np.ceil(r / d)
    log_binoms = (
        gammaln(kappa + 1) - gammaln(s + 1) - gammaln(r + 1)
        + gammaln(n + 1) - gammaln(need + 1) - gammaln(n - need + 1)
    )
    exponent = r * (1.0 - eps) * n * p1 / d
    return math.log(2.0) + log_binoms + exponent * (np.log(r) - math.log(kappa))


def log_L(n: int, d: int, kappa: int, eps: float, p1: float, s: int) -> float:
    """log of 2 C(kappa,s) C(n, ceil((kappa-s)/d)) ((kappa-s)/kappa)^e with
    e = (kappa-s)(1-eps) n p1 / d.

    Valid for kappa - d*n + 1 <= s <= kappa - 1; on that range the second
    binomial's lower index never exceeds n.
    """
    if not kappa - d * n + 1 <= s <= kappa - 1:
        raise ValueError(
            f"s={s} outside [{kappa - d * n + 1}, {kappa - 1}]"
        )
    return float(_log_l_array(n, d, kappa, eps, p1, np.array([float(s)]))[0])


def _log_binom(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _others_negligible(n: int, d: int, kappa: int, eps: float, p1: float) -> bool:
    """Whether every L(s) with s < kappa-1 provably lies more than
    _NEGLIGIBLE nats, plus a rounding margin, below L(kappa-1).

    In r = kappa - s, L is log 2 + log C(kappa, r) + log C(n, ceil(r/d))
    + f(r) with f(r) = c r log(r/kappa), c = (1-eps) n p1 / d >= 0.  On each
    dyadic range of r in [2, d*n-1] both binomials are unimodal, so each is
    at most its value at its peak (kappa/2, n/2) clamped to the range, and
    f is convex, so it is at most its larger endpoint.

    The margin covers rounding.  A term at r is a sum of six log-gammas,
    each at most gammaln(kappa+1) or gammaln(n+1), and of f(r), whose
    factors c r and log r - log(kappa) are at most c r and log(kappa) in
    size.  float64 evaluates each part, here and in _log_l_array, to within
    a few ulps of that size, so 8 nats plus 1e-9 times the sum of the sizes
    at the range's top end covers both the range's terms and L(kappa-1).
    """
    c = (1.0 - eps) * n * p1 / d
    log_kappa = math.log(kappa)
    size = math.lgamma(kappa + 1) + math.lgamma(n + 1)

    def f(r: int) -> float:
        return c * r * (math.log(r) - log_kappa)

    top = math.log(2.0) + log_kappa + math.log(n) + f(1)
    r1, r_max = 2, d * n - 1
    while r1 <= r_max:
        r2 = min(2 * r1 - 1, r_max)
        k1, k2 = -(-r1 // d), -(-r2 // d)
        bound = (
            math.log(2.0)
            + _log_binom(kappa, min(max(kappa // 2, r1), r2))
            + _log_binom(n, min(max(n // 2, k1), k2))
            + max(f(r1), f(r2))
        )
        margin = 8.0 + 1e-9 * (size + c * r2 * log_kappa)
        if bound > top - _NEGLIGIBLE - margin:
            return False
        r1 *= 2
    return True


def theta(n: int, d: int, kappa: int, eps: float, p1: float) -> BoundReport:
    """Total failure bound: the out-degree tail term plus the sum of L(s)
    over s = kappa-d*n+1 .. kappa-1: one logsumexp piece per chunk of
    terms, and a last logsumexp over the pieces.

    Where _others_negligible holds, the L-sum's piece is L(kappa-1) alone.
    That is the full sum's bits because logsumexp shifts by its largest
    entry: in the chunk holding L(kappa-1) every other exp(a - a_max) is
    0.0, and every other chunk's piece adds an exact 0.0 to the last one.
    """
    if kappa < d * n:
        raise ValueError(f"need kappa >= d*n, got kappa={kappa}, d*n={d * n}")
    chern = chernoff_bound(n, p1, eps)
    lo, hi = kappa - d * n + 1, kappa - 1
    pieces = [math.log(chern)] if chern > 0 else []
    if lo <= hi and _others_negligible(n, d, kappa, eps, p1):
        pieces.append(log_L(n, d, kappa, eps, p1, hi))
    else:
        for start in range(lo, hi + 1, _CHUNK):
            s = np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.float64)
            pieces.append(float(logsumexp(_log_l_array(n, d, kappa, eps, p1, s))))
    log_theta = float(logsumexp(pieces)) if pieces else -math.inf
    raw = math.exp(log_theta) if log_theta < 700 else math.inf
    return BoundReport(
        chernoff_term=chern,
        s_range=(lo, hi),
        log_theta=log_theta,
        theta_raw=raw,
        theta=min(1.0, raw),
    )


def riordan_condition(
    n: int, p: float, gamma: float, delta: int, e_H_total: int
) -> RiordanReport:
    """Values of the density-based embedding conditions: n p^gamma / delta^4
    and the side conditions e(H) p and (1-p) sqrt(n)."""
    if not gamma > 0:  # NaN fails too
        raise ValueError(f"need gamma > 0, got {gamma}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need p in [0, 1], got {p}")
    return RiordanReport(
        riordan_value=n * p**gamma / delta**4,
        side_condition_edges=e_H_total * p,
        side_condition_sparsity=(1.0 - p) * math.sqrt(n),
    )
