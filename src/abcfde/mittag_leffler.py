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
* Contour, for the rest of z < 0 when 0 < alpha <= 1 and rho <=
  MAX_CONTOUR_RHO: Garrappa's trapezoidal rule for the inverse Laplace
  transform on the optimal parabolic contour (R. Garrappa, SIAM J.
  Numer. Anal. 53(3), 2015), 28 nodes built once per (alpha, beta, rho).
  About 1e-13 relative for alpha < 1; for alpha = 1, whose values decay
  like e^z, about 1e-16 absolute.  Each node's (s_k^alpha - z)^(-rho) is,
  for an integer rho, a power of one reciprocal formed by products, and
  numpy's complex power otherwise.  The rule's error grows with rho, so
  a larger rho raises :class:`~abcfde.errors.NonConvergence` there.
  s_k^alpha - z depends on alpha and z only, so a call for several
  (beta, rho) pairs at one z forms it, and its reciprocal, once per node
  for all of them.

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

#: Largest rho the contour takes.  Against extended precision at alpha in
#: 0.3-0.99, beta in {1, 1.5, 2} and z in [-20, -1e-3] it is within 7e-14
#: relative at rho = 2, but 6.4e-12 at rho = 3 (alpha = 0.99, beta = 2,
#: z = -2) and 1.3e-7 at rho = 10.
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


def ml_prabhakar(alpha: float, beta, rho, z):
    """Three-parameter Mittag-Leffler function E^rho_{alpha,beta}(z).

    z is a float or an array; the result is a float, or an array of z's
    shape.  Each value depends on its own z only, so an array gives the
    values the per-element calls give; a NaN z gives NaN.  DEFAULT_TOL
    and MAX_TERMS bound the series path.  The parameters must be finite,
    and Gamma(beta) must not overflow (beta up to about 171.6).

    beta and rho may also be tuples or lists of one length: the result is
    then a list with the value at z of each pair (beta[i], rho[i]), each
    bitwise what the call for that pair alone gives.  The pairs share the
    contour's per-node terms s_k^alpha - z and their reciprocals, which
    depend on alpha and z only.  The pairs are checked in order, each
    one's contour table before its series, so the call raises what the
    first failing per-pair call would raise.
    """
    sequences = isinstance(beta, (tuple, list)), isinstance(rho, (tuple, list))
    if not any(sequences):
        return _ml_pairs(alpha, [(beta, rho)], z)[0]
    if not all(sequences) or len(beta) != len(rho):
        raise ValueError("beta and rho must be numbers, or sequences of one length")
    return _ml_pairs(alpha, list(zip(beta, rho)), z)


def _ml_pairs(alpha, pairs, z):
    """E^rho_{alpha,beta}(z) for each (beta, rho) in pairs, as a list: each
    pair's series on its own, then one contour pass for all of them."""
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    nan = np.isnan(flat)
    outs, contours = [], []
    for beta, rho in pairs:
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
        out = np.full(flat.shape, lead)
        outs.append(out)
        # rho = 0 kills every k >= 1 term through (rho)_k
        if rho == 0.0:
            continue
        out[nan] = np.nan
        # the series serves |z| <= 1 where the contour needs over two corrections
        radius = 1.0 if alpha * (rho + 2) - beta < -1.0 else SERIES_RADIUS
        contour = (flat < -radius) & (alpha <= 1.0)
        series = ~contour & (flat != 0.0) & ~nan
        if contour.any():
            contours.append((out, contour, rho, _contour(alpha, beta, rho)))
        out[series] = _series_sum(alpha, beta, rho, flat[series])
    if contours:
        _contour_sums(flat, contours)
    if zs.ndim == 0:
        return [float(out[0]) for out in outs]
    return [out.reshape(zs.shape) for out in outs]


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


def _contour_sums(z, jobs):
    """The contour rule for each job (out, mask, rho, table): out[mask] =
    the rule at z[mask] < 0.

    s_k^alpha depends on alpha only, so every job's table holds the same
    nodes.  One loop over them forms s_k^alpha - z and, for an integer
    rho, its reciprocal and that reciprocal's powers once per node over
    the union of the masks, and adds each job's weight times its term
    into the job's own accumulator, in node order as for one job alone;
    the temporaries stay at the size of z.  An integer rho takes the
    rho-th power by out-of-place products: about 3x faster per node than
    numpy's complex power, and, unlike an in-place ``*=``, the same value
    per element at any array length.  A non-integer rho takes numpy's
    complex power.
    """
    masks = [mask for _, mask, _, _ in jobs]
    union = masks[0] if len(masks) == 1 else np.logical_or.reduce(masks)
    zc = z[union].astype(complex)
    # per job: accumulator, weights, and the integer power or else -rho
    sums = [
        (np.zeros(zc.shape, dtype=complex), weights, int(rho) if rho == int(rho) else -rho)
        for _, _, rho, (_, weights, _) in jobs
    ]
    top = max((p for _, _, p in sums if isinstance(p, int)), default=0)
    powers = [None] * (top + 1)
    for k, s_a in enumerate(jobs[0][3][0]):
        diff = s_a - zc
        if top:
            r = powers[1] = np.reciprocal(diff)
            for p in range(2, top + 1):
                powers[p] = powers[p - 1] * r
        for acc, weights, p in sums:
            acc += weights[k] * (powers[p] if isinstance(p, int) else diff**p)
    for (acc, _, _), (out, mask, rho, (_, _, corrections)) in zip(sums, jobs):
        values = acc.real if mask is union else acc.real[mask[union]]
        if corrections:
            zj = z[mask]
            lead = (-zj) ** -rho
            for j, c in enumerate(corrections):
                values += c * lead * zj**-j
        out[mask] = values


def ml_two(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z)."""
    return ml_prabhakar(alpha, beta, 1.0, z)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z)."""
    return ml_prabhakar(alpha, 1.0, 1.0, z)
