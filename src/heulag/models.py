"""Model definitions for the three one-loop effective-Lagrangian functions.

Spin-0 and spin-1/2 magnetic-background functions f_s(beta) and the self-dual
function f_SD(beta): exact weak-field coefficients, Hurwitz-zeta closed forms,
partial sums of the divergent expansion, a direct-quadrature oracle on the
proper-time integral, strong-field leading behavior, and the assembly of the
closed forms from Hadamard finite parts.
"""
from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial, log2

from mpmath import mp, mpf, ceil, exp, ln, log10, quad, sqrt

from . import finitepart
from .errors import DomainError, OracleFailureError
from .specfun import (PrecisionContext, _bernoulli_even, _hurwitz_zeta, _to_beta, _to_mpf,
                      _zeta_sderivs)

__all__ = [
    "ModelId",
    "SeriesCoefficients",
    "coeff",
    "coefficients",
    "closed_form",
    "partial_sum",
    "direct_integral_oracle",
    "strong_field_leading",
    "finite_part_assembly",
]


class ModelId(enum.Enum):
    """Which effective Lagrangian: scalar, spinor, or self-dual background."""

    SPIN0 = "spin0"
    SPIN_HALF = "spin12"
    SELF_DUAL = "sd"

    @property
    def series_prefactor_power(self) -> int:
        """Power of beta multiplying the reduced series: 2 for spins, 1 for SD."""
        return 1 if self is ModelId.SELF_DUAL else 2

    @property
    def tail_power_offset(self) -> int:
        """Leading beta power p of the inverse-power extrapolant expansion."""
        return 0 if self is ModelId.SELF_DUAL else 1


# ---------------------------------------------------------------------------
# Exact weak-field coefficients.
# ---------------------------------------------------------------------------

def _ck(model: ModelId, k: int) -> Fraction:
    """c_k of the hyperbolic-kernel Taylor series, exact."""
    b2k = _bernoulli_even(k)
    if model is ModelId.SPIN0:
        return Fraction(2 - 2 ** (2 * k)) * b2k / factorial(2 * k)
    return -Fraction(2 ** (2 * k)) * b2k / factorial(2 * k)


def coeff(model: ModelId, k: int) -> Fraction:
    """Exact weak-field coefficient: a_k (spins, k >= 2) or the SD u_k (k >= 0).

    Spins: a_k = (-1)^k (2k-3)! c_k with c_k from the Bernoulli formulas; the
    function value is sum_k a_k (-beta)^k. SD: u_k = -(-1)^k B_{2k+4} /
    ((2k+2)(2k+4)), entering as beta * sum_k u_k (-beta)^k.
    """
    if model is ModelId.SELF_DUAL:
        if k < 0:
            raise DomainError(f"SD coefficient index must be >= 0, got {k}")
        return -Fraction((-1) ** k) * _bernoulli_even(k + 2) / ((2 * k + 2) * (2 * k + 4))
    if k < 2:
        raise DomainError(f"spin coefficient index must be >= 2, got {k}")
    return Fraction((-1) ** k) * factorial(2 * k - 3) * _ck(model, k)


@dataclass(frozen=True)
class SeriesCoefficients:
    """The first d+1 exact coefficients of the reduced alternating series.

    Reduced series: f = beta^p * sum_{j>=0} a[j] (-beta)^j with p = 2 (spins,
    a[j] = a_{j+2}) or p = 1 (SD, a[j] = u_j). All entries are positive; the
    sign alternation is carried by (-beta)^j.
    """

    model: ModelId
    a: tuple[Fraction, ...]

    @property
    def count(self) -> int:
        return len(self.a)


def coefficients(model: ModelId, count: int) -> SeriesCoefficients:
    """First `count` reduced-series coefficients of the model."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if model is ModelId.SELF_DUAL:
        a = tuple(coeff(model, j) for j in range(count))
    else:
        a = tuple(coeff(model, j + 2) for j in range(count))
    return SeriesCoefficients(model=model, a=a)


# ---------------------------------------------------------------------------
# Closed forms in terms of Hurwitz zeta and its s-derivative.
# ---------------------------------------------------------------------------

def _closed_form(model: ModelId, beta: mpf) -> mpf:
    rb = sqrt(beta)
    lb = ln(beta)
    if model is ModelId.SPIN0:
        nu = (1 + rb) / (2 * rb)
        return (beta * lb / 12 - lb / 4 + beta * (ln(mpf(4)) / 12 - mpf(1) / 6)
                - ln(mpf(4)) / 4 - mpf(1) / 4
                - 4 * beta * _hurwitz_zeta(-1, nu))
    if model is ModelId.SPIN_HALF:
        q = 1 / (2 * rb)
        return (4 * beta * _hurwitz_zeta(-1, q)
                + mpf(1) / 4 - beta / 3
                - beta * (ln(mpf(16)) + 2 * lb)
                * (mpf(-1) / 12 + 1 / (4 * rb) - 1 / (8 * beta)))
    q = 1 / rb
    z1, z0 = _zeta_sderivs(q, (-1, 0))
    return (z1 - q * z0
            - lb * (1 / (4 * beta) - mpf(1) / 24)
            - 3 / (4 * beta))


def closed_form(model: ModelId, beta, ctx: PrecisionContext) -> mpf:
    """Exact f_s(beta) or f_SD(beta) for beta > 0.

    Below beta = 1 the closed forms cancel about 2 log10(1/beta) digits: terms
    of size ln(beta) (spins) or ln(beta)/beta (SD) leave a value of size
    beta^2 or beta. The working precision is raised by that much.
    """
    with ctx.work():
        b = _to_beta(beta)
        extra = int(ceil(-2 * log10(b))) + 5 if b < 1 else 0
    with ctx.work(extra=extra):
        v = _closed_form(model, _to_beta(beta))
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Partial sums of the divergent weak-field expansion.
# ---------------------------------------------------------------------------

def partial_sum(model: ModelId, beta, d: int, ctx: PrecisionContext) -> mpf:
    """Partial sum through reduced order d (that is, d+1 alternating terms).

    Spins: beta^2 sum_{j=0}^{d} a_{j+2} (-beta)^j; SD: beta sum_{j=0}^{d}
    u_j (-beta)^j. The index d matches the order labels of the convergence
    tables for the weak-field expansion.
    """
    if d < 1:
        raise DomainError(f"partial_sum requires d >= 1, got {d}")
    series = coefficients(model, d + 1)
    with ctx.work():
        beta = _to_beta(beta)
        x = -beta
        acc = mpf(0)
        for a in reversed(series.a):
            acc = acc * x + _to_mpf(a)
        v = beta ** model.series_prefactor_power * acc
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Direct quadrature oracle on the proper-time representation.
# ---------------------------------------------------------------------------

def _kernel(model: ModelId) -> Callable[[mpf], mpf]:
    """The subtracted kernel for x > 0 at ambient precision: chi(x) =
    sum_{k>=2} c_k x^{2k} (spins), w(x) = sum_{k>=2} (2k-1) c^{(1/2)}_k x^{2k-2}
    (SD).

    Below x = 1/2, well inside the pi radius of convergence and clear of the
    hyperbolic form's cancellation near 0: a Horner sum in x^2 over the exact
    c_k, converted once, here. |c_k| is about 2/pi^{2k}, so at x the sum
    stops where the table's binary magnitudes put a term below 10^-(dps+5)
    of the first; the table runs to that point at x = 1/2. From x = 1/2 on,
    the hyperbolic form with one exponential.
    """
    bits = (mp.dps + 5) * log2(10)
    cs, mags = [], []  # mags[j] = log2 |c_j|
    for k in count(2):
        c = (2 * k - 1) * _ck(ModelId.SPIN_HALF, k) if model is ModelId.SELF_DUAL \
            else _ck(model, k)
        cs.append(_to_mpf(c))
        mags.append(log2(abs(c.numerator)) - log2(c.denominator))
        if mags[-1] - mags[0] - 2 * (len(mags) - 1) <= -bits:  # at x^2 = 1/4
            break
    drop = [m - mags[0] for m in mags]
    lead = 1 if model is ModelId.SELF_DUAL else 2  # the series starts at x2**lead

    def series(x: mpf) -> mpf:
        x2 = x * x
        lx = mp.mag(x2)  # an upper bound on log2 x2, so never too few terms
        n = next(j for j, d in enumerate(drop) if d + j * lx <= -bits)
        acc = cs[n - 1]
        for c in reversed(cs[:n - 1]):
            acc = acc * x2 + c
        return acc * x2 ** lead

    half, third = mpf(1) / 2, mpf(1) / 3
    if model is ModelId.SPIN0:
        def hyperbolic(x: mpf) -> mpf:  # x/sinh x = 2x h/(1 - h^2)
            h = exp(-x)
            return 2 * x * h / (1 - h * h) - 1 + x * x / 6
    elif model is ModelId.SPIN_HALF:
        def hyperbolic(x: mpf) -> mpf:  # x coth x = x(1 + e)/(1 - e)
            e = exp(-2 * x)
            return 1 + x * x / 3 - x * (1 + e) / (1 - e)
    else:
        def hyperbolic(x: mpf) -> mpf:
            e = exp(-2 * x)
            return 4 * e / (1 - e) ** 2 - 1 / (x * x) + third

    return lambda x: series(x) if x < half else hyperbolic(x)


def direct_integral_oracle(model: ModelId, beta, ctx: PrecisionContext) -> mpf:
    """High-precision quadrature of the exact proper-time integral.

    Spins: integral of e^{-tau} chi(sqrt(beta) tau)/tau^3. SD: after
    sigma = 2 tau/sqrt(beta), (1/4) integral of e^{-sigma} w(sqrt(beta)
    sigma/2)/sigma. Integrands are O(tau) at the origin.

    The target is relative: the integrand is divided by a_0 beta^p below
    beta = 1 and by 1 above (|f| >= 0.0035 there), so mpmath's absolute
    stopping test acts relatively, and the rescaled error estimate must be
    <= |f| 10^-digits. digits + 10 suffice: all three kernels are >= 0, so
    the positive-weight sum cannot cancel; only the kernel near x = 1/2
    (<= 3 digits) and the sum over n nodes (log10 n, about 4) lose digits.
    """
    qdps = ctx.digits + 10
    with mp.workdps(qdps):
        beta = _to_beta(beta)
        rb = sqrt(beta)
        chi = _kernel(model)
        p = model.series_prefactor_power
        scale = _to_mpf(coefficients(model, 1).a[0]) * beta ** p if beta < 1 else mpf(1)
        if model is ModelId.SELF_DUAL:
            integrand = lambda s: exp(-s) * chi(rb * s / 2) / (4 * scale * s)
        else:
            integrand = lambda t: exp(-t) * chi(rb * t) / (scale * t ** 3)
        cutoff = int(qdps * ln(mpf(10))) + 10
        v, err = quad(integrand, [0, 1, cutoff], error=True, maxdegree=8)
        v, err = v * scale, err * scale
        if err > abs(v) * mpf(10) ** (-ctx.digits):
            raise OracleFailureError(
                f"quadrature error estimate {err} too large for {ctx.digits} digits")
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Strong-field leading behavior.
# ---------------------------------------------------------------------------

def strong_field_leading(model: ModelId, beta, ctx: PrecisionContext) -> mpf:
    """The terms of f that do not vanish relative to f as beta -> inf.

    Spin0: beta ln(beta)/12 + beta (ln(2)/3 + 2 zeta'(-1) - 1/6); SpinHalf:
    beta ln(beta)/6 + beta (ln(2)/3 + 4 zeta'(-1) - 1/3); both leave
    O(sqrt(beta)). SD: ln(beta)/24 + zeta'(-1), leaving O(1/sqrt(beta)).
    """
    with ctx.work():
        beta = _to_beta(beta)
        lb, z1 = ln(beta), _hurwitz_zeta(-1, 1)
        if model is ModelId.SPIN0:
            v = beta * lb / 12 + beta * (ln(mpf(2)) / 3 + 2 * z1 - mpf(1) / 6)
        elif model is ModelId.SPIN_HALF:
            v = beta * lb / 6 + beta * (ln(mpf(2)) / 3 + 4 * z1 - mpf(1) / 3)
        else:
            v = lb / 24 + z1
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Assembly of the closed forms from Hadamard finite parts.
# ---------------------------------------------------------------------------

def finite_part_assembly(model: ModelId, beta, ctx: PrecisionContext) -> mpf:
    """f reassembled from finite-part integrals; an independent route.

    Spin0:  sqrt(b) fp_csch - fp_exp(1,3) + (b/6) fp_exp(1,1)
    SpinHalf: fp_exp(1,3) + (b/3) fp_exp(1,1) - sqrt(b) fp_coth
    SD:     fp_sinh2 - (1/4) fp_exp(2/sqrt(b),3) + (1/12) fp_exp(2/sqrt(b),1)
    """
    inner = PrecisionContext(ctx.workdps, ctx.guard)
    with ctx.work(extra=inner.guard):
        beta = _to_beta(beta)
        rb = sqrt(beta)
        if model is ModelId.SPIN0:
            v = (rb * finitepart.fp_csch(beta, inner)
                 - finitepart.fp_exp_over_xm(1, 3, inner)
                 + beta / 6 * finitepart.fp_exp_over_xm(1, 1, inner))
        elif model is ModelId.SPIN_HALF:
            v = (finitepart.fp_exp_over_xm(1, 3, inner)
                 + beta / 3 * finitepart.fp_exp_over_xm(1, 1, inner)
                 - rb * finitepart.fp_coth(beta, inner))
        else:
            b = 2 / rb
            v = (finitepart.fp_sinh2(beta, inner)
                 - finitepart.fp_exp_over_xm(b, 3, inner) / 4
                 + finitepart.fp_exp_over_xm(b, 1, inner) / 12)
    return ctx.round(v)
