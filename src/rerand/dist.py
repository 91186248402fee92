"""Chi-square CDF, quantile, and the variance-shrinkage coefficient.

Self-contained (math module only). The CDF goes through the regularized
lower incomplete gamma function with the standard series / continued
fraction split, which keeps absolute error comfortably below 1e-12 over
the dof and x ranges the rest of the package needs (dof up to a few
hundred, x up to a few thousand). Both need about 9 sqrt(a) terms near
x = a, so the term cap covers shape a up to about 1e8; a loop that
reaches it raises instead of returning an unconverged value.

`chi2_quantile` and `shrinkage_coeff` are pure and are called again and
again on the same few (dof, p) and (dof, threshold) pairs (every
replication of a study recalibrates the same cells), so both memoize
their last `_MEMO_SIZE` distinct arguments.
"""

from __future__ import annotations

import functools
import math

_EPS = 1e-16
_MAX_ITER = 100_000
_MEMO_SIZE = 256


def _lower_reg_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^-x / Gamma(a) * sum_n x^n / (a(a+1)...(a+n))
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise RuntimeError(f"incomplete gamma series did not converge (a={a}, x={x})")
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    return total * math.exp(log_prefix)


def _upper_reg_gamma_cf(a: float, x: float) -> float:
    # Q(a,x) by modified Lentz continued fraction; accurate for x >= a+1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise RuntimeError(f"incomplete gamma continued fraction did not converge (a={a}, x={x})")
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    return math.exp(log_prefix) * h


def _lower_reg_gamma(a: float, x: float) -> float:
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_reg_gamma_series(a, x)
    return 1.0 - _upper_reg_gamma_cf(a, x)


def _check_dof(dof) -> int:
    k = int(dof)
    if k != dof or k < 1:
        raise ValueError("dof must be a positive integer")
    return k


def chi2_cdf(dof, x: float) -> float:
    """P(chi^2_dof <= x).

    Args:
        dof: positive integer degrees of freedom.
        x: evaluation point, must be >= 0 (infinity gives 1).
    """
    k = _check_dof(dof)
    if not x >= 0:  # also rejects NaN
        raise ValueError("chi-square CDF argument must be nonnegative")
    if x == math.inf:
        return 1.0
    return min(1.0, _lower_reg_gamma(0.5 * k, 0.5 * x))


def _chi2_pdf(k: int, x: float) -> float:
    half = 0.5 * k
    logp = (half - 1.0) * math.log(x) - 0.5 * x - math.lgamma(half) - half * math.log(2.0)
    return math.exp(logp)


# Acklam's rational approximation to the standard normal quantile.
# Only used to seed the chi-square quantile search, so ~1e-9 accuracy
# is far more than needed.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def _norm_quantile(p: float) -> float:
    plow, phigh = 0.02425, 1.0 - 0.02425
    if p < plow:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > phigh:
        return -_norm_quantile(1.0 - p)
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def chi2_quantile(dof, p: float) -> float:
    """Inverse chi-square CDF: the x with chi2_cdf(dof, x) = p.

    Wilson-Hilferty cube-root start, then Newton steps safeguarded by a
    maintained bracket (bisection fallback), so convergence is robust for
    small p and small dof alike. The stop rule |F(x) - p| <= 1e-13 p
    orders the returned quantiles only for p values more than about 1e-11
    apart (relative); closer p can come back out of order by ~1e-14
    relative.
    """
    k = _check_dof(dof)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")

    z = _norm_quantile(p)
    t = 1.0 - 2.0 / (9.0 * k) + z * math.sqrt(2.0 / (9.0 * k))
    x = k * t * t * t if t > 0 else 0.5 * k * math.exp(z)
    x = max(x, 1e-300)

    # Grow a bracket [lo, hi] around the root.
    lo, hi = 0.0, x
    while chi2_cdf(k, hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e10:
            raise RuntimeError("quantile bracket failed to close")
    if chi2_cdf(k, x) > p:
        hi = x

    for _ in range(200):
        f = chi2_cdf(k, x) - p
        if f > 0:
            hi = x
        else:
            lo = x
        # Tolerance relative to p so deep-tail quantiles converge too.
        if abs(f) <= 1e-13 * p:
            break
        g = _chi2_pdf(k, x)
        nxt = x - f / g if g > 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        x = nxt
        if hi - lo < 1e-15 * max(1.0, hi):
            break
    return float(x)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def shrinkage_coeff(dof, a: float) -> float:
    """Variance shrinkage coefficient P(chi^2_{dof+2} <= a) / P(chi^2_dof <= a).

    Strictly inside (0, 1) for every finite a > 0: accepted allocations
    shrink the sampling variance of each balanced direction by this factor.
    """
    k = _check_dof(dof)
    if a <= 0:
        raise ValueError("threshold must be positive")
    denom = chi2_cdf(k, a)
    if denom == 0.0:
        # Far left tail: use the series ratio limit (a/2)/(k/2 + 1) e^0.
        return float(a / (k + 2.0))
    return float(chi2_cdf(k + 2, a) / denom)
