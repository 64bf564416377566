"""Mittag-Leffler functions on the real line.

One engine evaluates the one-parameter function E_a(z), the two-parameter
function E_{a,b}(z) and the three-parameter (Prabhakar) function
E^r_{a,b}(z) at a float or at a whole array of arguments, by one of two
paths per argument:

* Series, for z >= 0 and for |z| <= SERIES_RADIUS (up to 1 where the
  contour needs more than two corrections, see _contour): the power
  series summed term by term with compensated accumulation, vectorized
  over z.
  On the negative axis the terms alternate; a sum whose largest term
  exceeds CANCELLATION_LIMIT would lose more than about 1e-12 to
  rounding and raises :class:`~abcfde.errors.NonConvergence` instead.
* Contour, for the rest of z < 0 when 0 < alpha <= 1: Garrappa's
  trapezoidal rule for the inverse Laplace transform on the optimal
  parabolic contour (R. Garrappa, SIAM J. Numer. Anal. 53(3), 2015),
  28 nodes built once per (alpha, beta, rho).  About 1e-13 relative for
  alpha < 1; for alpha = 1, whose values decay like e^z, about 1e-16
  absolute.

On the rest of the negative axis (alpha > 1, where s^alpha = z has
roots the contour does not take) the series is used while its
cancellation check allows, so a value there is accurate or raises
quickly.  Large positive arguments raise once a term or the sum
overflows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonConvergence

#: Absolute tolerance for series truncation.
DEFAULT_TOL = 1e-13

#: Hard cap on the number of series terms.
MAX_TERMS = 10_000

#: The series serves |z| up to this, or up to 1 where the contour needs
#: more than two corrections (see _contour).  The contour is less accurate near 0
#: (7e-13 relative at z = -1e-3, alpha = 0.9, beta = 2); near |z| = 0.5
#: both are within about 4e-14.
SERIES_RADIUS = 0.5

#: Largest |term| a series on the negative axis may meet: beyond it
#: cancellation costs more than about 1e-12.
CANCELLATION_LIMIT = 1e4

#: Most corrections _contour may add; it needs about (beta - 1)/alpha - rho.
MAX_CORRECTIONS = 200

# Garrappa's contour parameters for a transform analytic off the negative
# axis with a branch point at 0 no stronger than 1/s, at accuracy 1e-15:
# mu is the largest that keeps the e^mu-scaled rounding within it.
_LOG_TARGET = math.log(1e-15)
_LOG_EPS = math.log(np.finfo(float).eps)
_MU = _LOG_TARGET - _LOG_EPS
_W = math.sqrt(_LOG_EPS / (_LOG_EPS - _LOG_TARGET))
_N = math.ceil(-_W * _LOG_TARGET / (2 * math.pi))
_H = _W / _N


def ml_prabhakar(alpha: float, beta: float, rho: float, z):
    """Three-parameter Mittag-Leffler function E^rho_{alpha,beta}(z).

    z is a float or an array; the result is a float, or an array of z's
    shape.  Each value depends on its own z only, so an array gives the
    values the per-element calls give; a NaN z gives NaN.  DEFAULT_TOL
    and MAX_TERMS bound the series path.  The parameters must be finite,
    and Gamma(beta) must not overflow (beta up to about 171.6).
    """
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
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    out = np.full(flat.shape, lead)
    # rho = 0 kills every k >= 1 term through (rho)_k
    if rho != 0.0:
        nan = np.isnan(flat)
        out[nan] = np.nan
        # the series serves |z| <= 1 where the contour needs over two corrections
        radius = 1.0 if alpha * (rho + 2) - beta < -1.0 else SERIES_RADIUS
        contour = (flat < -radius) & (alpha <= 1.0)
        series = ~contour & (flat != 0.0) & ~nan
        if contour.any():
            out[contour] = _contour_sum(alpha, beta, rho, flat[contour])
        out[series] = _series_sum(alpha, beta, rho, flat[series])
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _series_sum(alpha, beta, rho, z):
    """sum_k (rho)_k z^k / (k! Gamma(alpha k + beta)) at each element of z.

    The numerator u = (rho)_k z^k / k! is built by recurrence for full
    accuracy; where it nears overflow its log is carried in log_u, since
    the term (numerator over Gamma) can stay representable.  Kahan
    compensated; each sum stops once ``|term_k| * max(1, |z|/(k+1)) <
    DEFAULT_TOL`` and then leaves the working arrays.  The scalars z_max
    and u_bound skip array checks that cannot fire.
    """
    out = np.empty(z.size)
    lead = 1.0 / math.gamma(beta)
    live = np.arange(z.size)
    total = np.full(z.size, lead)
    comp = np.zeros(z.size)
    u = np.ones(z.size)
    log_u = np.zeros(z.size)
    peak = np.full(z.size, abs(lead))
    z_max = float(np.max(np.abs(z), initial=0.0))
    u_bound = 1.0  # >= max |u| while no log_u is set
    for k in range(1, MAX_TERMS):
        if live.size == 0:
            return out
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
        # Kahan compensated accumulation
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # terms below 1e290 / Gamma(x) cannot overflow the sum
        if u_bound > 1e290 and np.isinf(total).any():
            bad = z[np.argmax(np.isinf(total))]
            raise NonConvergence(
                f"series overflow at k={k} for "
                f"(alpha={alpha}, beta={beta}, rho={rho}, z={bad})"
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
    if live.size == 0:
        return out
    raise NonConvergence(
        f"series did not meet tol={DEFAULT_TOL} within {MAX_TERMS} terms for "
        f"(alpha={alpha}, beta={beta}, rho={rho}, z={z[0]})"
    )


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


def _contour_sum(alpha, beta, rho, z):
    """The contour rule at each z < 0; a loop over the nodes keeps the
    temporaries at the size of z."""
    s_alpha, weights, corrections = _contour(alpha, beta, rho)
    acc = np.zeros(z.shape, dtype=complex)
    for s_a, weight in zip(s_alpha, weights):
        acc += weight * (s_a - z) ** -rho
    out = acc.real
    lead = (-z) ** -rho
    for j, c in enumerate(corrections):
        out += c * lead * z**-j
    return out


def ml_two(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z)."""
    return ml_prabhakar(alpha, beta, 1.0, z)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z)."""
    return ml_prabhakar(alpha, 1.0, 1.0, z)
