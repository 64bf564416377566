"""Mittag-Leffler functions on the real line.

One engine evaluates the one-parameter function E_a(z), the two-parameter
function E_{a,b}(z) and the three-parameter (Prabhakar) function
E^r_{a,b}(z) at a float or at a whole array of arguments, by one of three
paths per argument:

* Disc, for |z| <= SERIES_RADIUS (up to 1 where the contour needs more
  than two corrections, see _contour): Horner's rule on the power
  series' coefficients c_k = (rho)_k / (k! Gamma(alpha k + beta)) up to
  the first k past which the terms on the disc's rim are bounded below
  DEFAULT_TOL, cached per (alpha, beta, rho, radius).  A pair takes the
  disc only where Horner's rounding bound gamma_2K sum_k |c_k| r^k
  (Higham, Accuracy and Stability of Numerical Algorithms, 2002, section
  5.1) is within DEFAULT_TOL; see _disc_coefficients.
* Series, for the rest of z >= 0, for the disc of a pair the bound
  refuses, and for z < 0 that the contour does not take: the power
  series with compensated accumulation, summed term by term over the
  elements still running (see _series).  On the negative axis the
  terms alternate; a sum whose largest term exceeds CANCELLATION_LIMIT
  would lose more than about 1e-12 to rounding and raises
  :class:`~abcfde.errors.NonConvergence` instead.
* Contour, for the rest of z < 0 when 0 < alpha <= 1 and rho <=
  MAX_CONTOUR_RHO: Garrappa's trapezoidal rule for the inverse Laplace
  transform on the optimal parabolic contour (R. Garrappa, SIAM J.
  Numer. Anal. 53(3), 2015), 28 nodes built once per (alpha, beta, rho).
  About 1e-13 relative for alpha < 1; for alpha = 1, whose values decay
  like e^z, about 1e-16 absolute.  Each node's (s_k^alpha - z)^(-rho) is,
  for an integer rho, a power of one reciprocal formed by products, and
  numpy's complex power otherwise.  The rule's error grows with rho, so
  rho = 3 with beta > 1 comes from two rho = 2 rules by the Prabhakar
  recurrence 2 alpha E^3_{a,b} = E^2_{a,b-1} + (1 - b + 2 alpha) E^2_{a,b}
  (within 4.4e-13 relative of extended precision at alpha in 0.3-0.99,
  beta in {1.5, 2} and z in [-20, -1e-3]), and any other rho above
  MAX_CONTOUR_RHO raises :class:`~abcfde.errors.NonConvergence` there.

On the rest of the negative axis (alpha > 1, where s^alpha = z has
roots the contour does not take) the series is used while its
cancellation check allows, so a value there is accurate or raises
quickly.  Large positive arguments raise once a term or the sum
overflows.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import NonConvergence

#: Absolute tolerance for series truncation.
DEFAULT_TOL = 1e-13

#: Hard cap on the number of series terms.
MAX_TERMS = 10_000

#: The disc serves |z| up to this, or up to 1 where the contour needs
#: more than two corrections (see _contour).  The contour is less accurate near 0
#: (7e-13 relative at z = -1e-3, alpha = 0.9, beta = 2); near |z| = 0.5
#: both are within about 4e-14.
SERIES_RADIUS = 0.5

#: Largest |term| a series on the negative axis may meet: beyond it
#: cancellation costs more than about 1e-12.
CANCELLATION_LIMIT = 1e4

#: Most corrections _contour may add; it needs about (beta - 1)/alpha - rho.
MAX_CORRECTIONS = 200

#: Largest rho the contour's rule takes.  Against extended precision at
#: alpha in 0.3-0.99, beta in {1, 1.5, 2} and z in [-20, -1e-3] it is
#: within 7e-14 relative at rho = 2, but 6.4e-12 at rho = 3 (alpha = 0.99,
#: beta = 2, z = -2) and 1.3e-7 at rho = 10.  rho = 3 with beta > 1 takes
#: two rho = 2 rules instead.
MAX_CONTOUR_RHO = 2.0

# Garrappa's contour parameters for a transform analytic off the negative
# axis with a branch point at 0 no stronger than 1/s, at accuracy 1e-15:
# mu is the largest that keeps the e^mu-scaled rounding within it.
_LOG_TARGET = math.log(1e-15)
_LOG_EPS = math.log(np.finfo(float).eps)
_MU = _LOG_TARGET - _LOG_EPS
_W = math.sqrt(_LOG_EPS / (_LOG_EPS - _LOG_TARGET))
_N = math.ceil(-_W * _LOG_TARGET / (2 * math.pi))
_H = _W / _N

#: Unit roundoff of a double, for Horner's rounding bound.
_UNIT_ROUNDOFF = 2.0**-53


def ml_prabhakar(alpha: float, beta: float, rho: float, z):
    """Three-parameter Mittag-Leffler function E^rho_{alpha,beta}(z).

    z is a float or an array; the result is a float, or an array of z's
    shape.  Each value depends on its own z only, so an array gives the
    values the per-element calls give; a NaN z gives NaN, except at
    rho = 0, where every z gives 1/Gamma(beta).  DEFAULT_TOL and
    MAX_TERMS bound the series path.  alpha, beta and rho must be finite
    real numbers (anything else raises ValueError naming it), and
    Gamma(beta) must not overflow (beta up to about 171.6).
    """
    zs = np.asarray(z, dtype=float)
    for name, value in (("alpha", alpha), ("beta", beta), ("rho", rho)):
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    for name, value in (("alpha", alpha), ("beta", beta), ("rho", rho)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    try:
        lead = 1.0 / math.gamma(beta)
    except OverflowError:
        raise ValueError(f"Gamma(beta) overflows at beta = {beta}") from None
    flat = zs.ravel()
    out = np.full(flat.shape, lead)
    # rho = 0 kills every k >= 1 term through (rho)_k
    if rho == 0.0:
        return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)
    nan = np.isnan(flat)
    out[nan] = np.nan
    # rho = 3 with beta > 1 comes from two rho = 2 rules (see below)
    lift = rho == 3.0 and beta > 1.0
    rule_rho = 2.0 if lift else rho
    # the disc serves |z| <= 1 where the contour needs over two corrections
    radius = 1.0 if alpha * (rule_rho + 2) - beta < -1.0 else SERIES_RADIUS
    contour = (flat < -radius) & (alpha <= 1.0)
    # the contour's tables are built before the disc and the series run,
    # and its sums after them, so a call raises what fails first there
    tables = []
    if contour.any():
        tables = [_contour(alpha, b, rule_rho) for b in ((beta - 1.0, beta) if lift else (beta,))]
    mask = ~contour & (flat != 0.0) & ~nan
    if mask.any():
        coefficients = _disc_coefficients(alpha, beta, rho, radius)
        if coefficients is not None:
            disc = mask & (np.abs(flat) <= radius)
            if disc.any():
                out[disc] = _horner(coefficients, flat[disc])
                mask &= ~disc
        if mask.any():
            out[mask] = _series(alpha, beta, rho, flat[mask])
    if tables:
        values = _contour_sums(flat[contour], rule_rho, tables)
        if lift:
            # 2 alpha E^3_{a,b} = E^2_{a,b-1} + (1 - b + 2 alpha) E^2_{a,b}
            # (Giusti et al., Fract. Calc. Appl. Anal. 23(1), 2020)
            low, high = values
            out[contour] = (low + (1.0 - beta + 2.0 * alpha) * high) / (2.0 * alpha)
        else:
            out[contour] = values[0]
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


@functools.lru_cache(maxsize=64)
def _disc_coefficients(alpha, beta, rho, radius):
    """The series' coefficients c_k = (rho)_k / (k! Gamma(alpha k + beta))
    for k = K down to 0, for Horner's rule on |z| <= radius <= 1; or None
    where that rule's rounding may exceed DEFAULT_TOL.

    On the disc the terms past K sum to less than DEFAULT_TOL.  With
    t_k = |c_k| radius^k, t_{k+1} / t_k = radius (rho + k) / (k + 1)
    Gamma(alpha k + beta) / Gamma(alpha k + alpha + beta).  The Gamma
    ratio never grows with k, as log Gamma is convex, and (rho + k) /
    (k + 1) moves monotonically towards 1, so every ratio from k = K on is
    at most Q = t_K / t_{K-1} max(1, K / (rho + K - 1)).  Where Q < 1 the
    terms from K on sum to at most t_K / (1 - Q); K is the first k >= 1
    where that is below DEFAULT_TOL.

    Horner's rule errs by at most gamma_2K sum_k |c_k| |z|^k, with
    gamma_n = n u / (1 - n u) and u the unit roundoff (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, section 5.1).  Both
    factors grow with K, so the coefficients stop, as None, at the first
    k whose partial bound exceeds DEFAULT_TOL, and at MAX_TERMS.  That
    also keeps out every sum whose terms would cancel past
    CANCELLATION_LIMIT.
    """
    coefficients = [1.0 / math.gamma(beta)]
    weight = term = abs(coefficients[0])  # sum_k t_k, and t_k
    pochhammer = 1.0  # (rho)_k / k!
    for k in range(1, MAX_TERMS):
        pochhammer *= (rho + k - 1.0) / k
        x = alpha * k + beta
        if x <= 170.0:
            c = pochhammer / math.gamma(x)
        else:
            c = math.exp(math.log(pochhammer) - math.lgamma(x))
        coefficients.append(c)
        term, previous = abs(c) * radius**k, term
        weight += term
        n_u = 2 * k * _UNIT_ROUNDOFF
        if not n_u / (1.0 - n_u) * weight <= DEFAULT_TOL:
            return None
        # the bound Q on every later ratio (see above); rho = 0 ends at k = 1
        q = term / previous * max(1.0, k / (rho + k - 1.0)) if term else 0.0
        if q < 1.0 and term / (1.0 - q) < DEFAULT_TOL:
            return tuple(reversed(coefficients))
    return None


def _horner(coefficients, z):
    """sum_k c_k z^k at each element of z by Horner's rule, highest
    coefficient first.  Each step is one correctly rounded product and
    sum per element, so each value depends on its own z only."""
    out = np.full(z.shape, coefficients[0])
    for c in coefficients[1:]:
        out *= z
        out += c
    return out


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _series(alpha, beta, rho, z):
    """sum_k (rho)_k z^k / (k! Gamma(alpha k + beta)) at each element of z.

    One step per k over the elements still running: the running product
    u = (rho)_k z^k / k! takes the factor z (rho + k - 1) / k, the term
    is u / Gamma(alpha k + beta), and Kahan compensated accumulation adds
    it.  Each sum stops at its first k with
    ``|term_k| * max(1, |z|/(k+1)) < DEFAULT_TOL`` and leaves the running
    set; one on the negative axis whose largest term up to there exceeds
    CANCELLATION_LIMIT raises NonConvergence instead.

    The scalar u_bound >= |u| on the largest |z|.  Once it exceeds 1e290,
    each |u| above 1e290 moves its log into log_u, and the term is formed
    from logs wherever log_u is set or alpha k + beta exceeds 170, since
    it can stay representable where u or Gamma would not.  A sum that
    then overflows raises at that k.
    """
    out = np.empty(z.size)
    lead = 1.0 / math.gamma(beta)
    live = np.arange(z.size)
    total, peak = np.full(z.size, lead), np.full(z.size, abs(lead))
    comp, u, log_u = np.zeros(z.size), np.ones(z.size), np.zeros(z.size)
    z_max = float(np.max(np.abs(z), initial=0.0))
    u_bound = 1.0
    for k in range(1, MAX_TERMS):
        if live.size == 0:
            break
        u = u * (z * (rho + k - 1.0) / k)
        u_bound *= z_max * abs(rho + k - 1.0) / k
        if u_bound > 1e290:
            big = np.abs(u) > 1e290
            log_u[big] += np.log(np.abs(u[big]))
            u[big] = np.sign(u[big])
        x = alpha * k + beta
        if x <= 170.0 and u_bound <= 1e290:
            term = u / math.gamma(x)
        else:
            term = np.sign(u) * np.exp(np.log(np.abs(u)) + log_u - math.lgamma(x))
            if x <= 170.0:
                term = np.where(log_u == 0.0, u / math.gamma(x), term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if u_bound > 1e290 and np.isinf(total).any():
            raise NonConvergence(
                f"series overflow at k={k} for "
                f"(alpha={alpha}, beta={beta}, rho={rho}, z={z[np.argmax(np.isinf(total))]})"
            )
        size = np.abs(term)
        peak = np.maximum(peak, size)
        if z_max > k + 1:
            size = size * np.maximum(1.0, np.abs(z) / (k + 1))
        done = size < DEFAULT_TOL
        if done.any():
            cancelled = done & (z < 0.0) & (peak > CANCELLATION_LIMIT)
            if cancelled.any():
                bad = np.argmax(cancelled)
                raise NonConvergence(
                    f"series terms up to {peak[bad]:.3g} cancel for "
                    f"(alpha={alpha}, beta={beta}, rho={rho}, z={z[bad]})"
                )
            out[live[done]] = total[done]
            keep = ~done
            live, z, total, comp, u, log_u, peak = (
                a[keep] for a in (live, z, total, comp, u, log_u, peak)
            )
    if live.size:
        raise NonConvergence(
            f"series did not meet tol={DEFAULT_TOL} within {MAX_TERMS} terms for "
            f"(alpha={alpha}, beta={beta}, rho={rho}, z={z[0]})"
        )
    return out


@functools.lru_cache(maxsize=16)
def _contour(alpha, beta, rho):
    """Nodes s_k^alpha, weights w_k and corrections c_j with

        E^rho_{alpha,beta}(z) ~= Re sum_k w_k (s_k^alpha - z)^(-rho)
                                 + sum_j c_j (-z)^(-rho) z^(-j)

    at z < -radius and 0 < alpha <= 1.

    E^rho_{alpha,beta}(z) is the inverse Laplace transform at t = 1 of
    G(s) = s^(alpha rho - beta) (s^alpha - z)^(-rho).  For z < 0 and
    alpha < 1, s^alpha = z has no root on the principal sheet; for
    alpha = 1 its root lies on the negative axis, inside the contour.  So
    G is analytic off the negative axis, and Garrappa's optimal parabola
    s(u) = mu (1 + i u)^2 and step h depend only on the branch point at
    s = 0.  The trapezoidal rule over u = k h, |k| <= n, is symmetric for
    real z, so only k >= 0 is kept and the real part taken.

    The parabola is the one for a branch point no stronger than 1/s.
    Near 0, G = sum_j (rho)_j / j! (-z)^(-rho) z^(-j) s^gamma_j with
    gamma_j = alpha (rho + j) - beta; for each term with gamma_j < -1 the
    rule's own error on it, (rho)_j / j! (1/Gamma(-gamma_j) - rule of
    s^gamma_j), is c_j, added back.  Inside the unit disc the subtracted
    terms outgrow G on the contour, and the error grows like |z|^(-J) for
    J corrections: with J <= 2 it stays below 3e-13 at |z| = 0.5 in every
    case measured, but reaches 2e-12 at J = 5 and 2e-9 at J = 19.  So the
    radius is SERIES_RADIUS for J <= 2 and 1 above.
    """
    if rho > MAX_CONTOUR_RHO:
        raise NonConvergence(
            f"contour is accurate only up to rho={MAX_CONTOUR_RHO} for "
            f"(alpha={alpha}, beta={beta}, rho={rho})"
        )
    k = np.arange(_N + 1)
    s = _MU * (1j * _H * k + 1) ** 2
    ds = 2j * _MU * (1j * _H * k + 1)
    halve = np.where(k == 0, 0.5, 1.0)  # the k = 0 node is its own mirror image
    weights = _H / math.pi * halve * np.exp(s) * s ** (alpha * rho - beta) * ds / 1j
    s_alpha = s**alpha
    corrections = []
    j, coef = 0, 1.0  # coef = (rho)_j / j!
    while alpha * (rho + j) - beta < -1.0:
        if j == MAX_CORRECTIONS:
            raise NonConvergence(
                f"contour needs more than {MAX_CORRECTIONS} corrections for "
                f"(alpha={alpha}, beta={beta}, rho={rho})"
            )
        rule = float(np.sum(weights * s_alpha**j).real)
        exact = 1.0 / math.gamma(beta - alpha * (rho + j))
        corrections.append(coef * (exact - rule))
        j += 1
        coef *= (rho + j - 1) / j
    return s_alpha, weights, corrections


def _contour_sums(z, rho, tables):
    """The contour rule at each z < 0 for each :func:`_contour` table of
    one alpha and rho in tables, as a list of arrays.

    The tables hold the same nodes s_k^alpha, so the two rho = 2 rules of
    the rho = 3 lift share one loop: each node's (s_k^alpha - z)^(-rho) is
    formed once and added, times each table's weight, in node order.  An
    integer rho takes it by out-of-place products of the reciprocal: about
    3x faster per node than numpy's complex power, and, unlike an in-place
    ``*=``, the same value per element at any array length.
    """
    zc = z.astype(complex)
    integer = rho == int(rho)
    sums = [np.zeros(zc.shape, dtype=complex) for _ in tables]
    for k, s_a in enumerate(tables[0][0]):
        diff = s_a - zc
        if integer:
            term = r = np.reciprocal(diff)
            for _ in range(int(rho) - 1):
                term = term * r
        else:
            term = diff**-rho
        for acc, (_, weights, _) in zip(sums, tables):
            acc += weights[k] * term
    values = [acc.real for acc in sums]
    for value, (_, _, corrections) in zip(values, tables):
        if corrections:
            lead = (-z) ** -rho
            for j, c in enumerate(corrections):
                value += c * lead * z**-j
    return values


def ml_two(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z)."""
    return ml_prabhakar(alpha, beta, 1.0, z)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z)."""
    return ml_prabhakar(alpha, 1.0, 1.0, z)
