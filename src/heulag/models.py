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
from functools import lru_cache
from itertools import count
from math import factorial, log2

from mpmath import mp, mpf, ceil, ln, log10, quad, sqrt
from mpmath.libmp import (from_man_exp, mpf_div, mpf_exp, mpf_gt, mpf_mul, mpf_neg, mpf_pow_int,
                          mpf_shift, round_nearest)

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

    @classmethod
    def _missing_(cls, value):
        """ModelId(value) of a value that names no model: a DomainError."""
        raise DomainError(f"unknown model {value!r}, expected spin0, spin12 or sd")

    @property
    def series_prefactor_power(self) -> int:
        """Power of beta multiplying the reduced series: 2 for spins, 1 for SD."""
        return 1 if self is ModelId.SELF_DUAL else 2


# ---------------------------------------------------------------------------
# Exact weak-field coefficients.
# ---------------------------------------------------------------------------

def coeff(model: ModelId, k: int) -> Fraction:
    """Exact weak-field coefficient: a_k (spins, k >= 2) or the SD u_k (k >= 0).

    Spins: a_k = (-1)^k (2k-3)! c_k with c_k from the Bernoulli formulas, that
    is (-1)^k (2 - 4^k) B_{2k} / ((2k)(2k-1)(2k-2)) (spin0) or (-1)^k (-4^k)
    B_{2k} / ((2k)(2k-1)(2k-2)) (spin1/2); the function value is
    sum_k a_k (-beta)^k. SD: u_k = -(-1)^k B_{2k+4} / ((2k+2)(2k+4)), entering
    as beta * sum_k u_k (-beta)^k. Each is one reduced Fraction of integers.
    """
    return _coeff(ModelId(model), k)


def _coeff(model: ModelId, k: int) -> Fraction:
    if model is ModelId.SELF_DUAL:
        if k < 0:
            raise DomainError(f"SD coefficient index must be >= 0, got {k}")
        b, num = _bernoulli_even(k + 2), (-1) ** (k + 1)
        return Fraction(num * b.numerator, (2 * k + 2) * (2 * k + 4) * b.denominator)
    if k < 2:
        raise DomainError(f"spin coefficient index must be >= 2, got {k}")
    b, num = _bernoulli_even(k), (-1) ** k * (2 - 4 ** k if model is ModelId.SPIN0 else -4 ** k)
    return Fraction(num * b.numerator, 2 * k * (2 * k - 1) * (2 * k - 2) * b.denominator)


@dataclass(frozen=True)
class SeriesCoefficients:
    """The first d+1 exact coefficients of the reduced alternating series.

    Reduced series: f = beta^p * sum_{j>=0} a[j] (-beta)^j with p = 2 (spins,
    a[j] = a_{j+2}) or p = 1 (SD, a[j] = u_j). All entries are positive; the
    sign alternation is carried by (-beta)^j.
    """

    model: ModelId
    a: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "model", ModelId(self.model))

    @property
    def count(self) -> int:
        return len(self.a)


def coefficients(model: ModelId, count: int) -> SeriesCoefficients:
    """First `count` reduced-series coefficients of the model."""
    model = ModelId(model)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    first = 0 if model is ModelId.SELF_DUAL else 2
    return SeriesCoefficients(model, tuple(_coeff(model, k) for k in range(first, first + count)))


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


def _weak_field_extra(beta, ctx: PrecisionContext) -> int:
    """Digits (+5) closed_form and finite_part_assembly cancel below beta = 1:
    terms of size ln(beta) (spins) or ln(beta)/beta (SD) leave beta^2 or beta."""
    with ctx.work():
        b = _to_beta(beta)
        return int(ceil(-2 * log10(b))) + 5 if b < 1 else 0


def closed_form(model: ModelId, beta, ctx: PrecisionContext) -> mpf:
    """Exact f_s(beta) or f_SD(beta) for beta > 0, _weak_field_extra digits higher."""
    model = ModelId(model)
    with ctx.work(_weak_field_extra(beta, ctx)):
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
        v = beta ** series.model.series_prefactor_power * acc
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Direct quadrature oracle on the proper-time representation.
# ---------------------------------------------------------------------------

def _kernel(model: ModelId, prec: int) -> Callable[[tuple], tuple]:
    """The subtracted kernel on raw libmp values x > 0: chi(x) =
    sum_{k>=2} c_k x^{2k} (spins), w(x) = sum_{k>=2} (2k-1) c^{(1/2)}_k x^{2k-2}
    (SD), within a few units of 2^-prec relative, carried at prec + 10 bits.

    Below x = 1/2, well inside the pi radius of convergence and clear of the
    hyperbolic form's cancellation near 0: a fixed-point Horner sum in x^2
    over the exact c_k = (-1)^k a_k/(2k-3)! of _coeff (spin-1/2's a_k for
    SD), scaled once, here, to prec + 20 bits. |c_k| is about
    2/pi^{2k}, so at x the sum stops where the table's binary magnitudes and
    an upper bound on log2 x^2 put a term below 2^-(prec + 20); the table
    runs to that point at x = 1/2. The sum times the exact x^4 (spins) or
    x^2 (SD) is rounded once. From x = 1/2 on, the hyperbolic form with one
    exponential at prec + 10 bits, on fixed-point integers with F = prec + 22
    fraction bits: x and the exponential are floored to that grid, the
    quotient is one floor division, the Taylor terms taken off are added on
    the grid and the sum is rounded once. The kernel is about 2^-10 at
    x = 1/2 and grows, so the grid's few units of 2^-F stay below
    2^-(prec + 10) of it. Where the exponential floors to 0 on the grid it is
    not evaluated.
    """
    fp, hp, rnd = prec + 20, prec + 10, round_nearest
    spin = ModelId.SPIN_HALF if model is ModelId.SELF_DUAL else model
    cs, mags = [], []  # cs[j] = c_j 2^fp, mags[j] = log2 |c_j|
    for k in count(2):
        c = (-1) ** k * _coeff(spin, k) / factorial(2 * k - 3)
        if model is ModelId.SELF_DUAL:
            c *= 2 * k - 1
        cs.append((c.numerator << fp) // c.denominator)
        mags.append(log2(abs(c.numerator)) - log2(c.denominator))
        if mags[-1] - 2 * (len(mags) - 1) < -fp:  # at x^2 = 1/4
            break
    lead = 1 if model is ModelId.SELF_DUAL else 2  # the series starts at x2**lead
    terms = {}  # the term count per lx, found at its first node

    def series(man: int, exp: int, bc: int) -> tuple:
        lx = 2 * (exp + bc)  # an upper bound on log2 x^2, so never too few terms
        if (n := terms.get(lx)) is None:
            n = terms[lx] = next(j for j, m in enumerate(mags) if m + j * lx < -fp)
        x2, shift = man * man, 2 * exp + fp
        x2 = x2 << shift if shift >= 0 else x2 >> -shift
        acc = 0
        for c in cs[n - 1::-1]:
            acc = (acc * x2 >> fp) + c
        return from_man_exp(acc * man ** (2 * lead), 2 * lead * exp - fp, hp, rnd)

    F = hp + 12  # fraction bits: the kernel is about 2^-10 at x = 1/2 and grows
    one, third = 1 << F, (1 << F) // 3

    def fixed(v: tuple) -> int:  # floor(v 2^F) of a raw value v > 0
        shift = v[2] + F
        return v[1] << shift if shift >= 0 else v[1] >> -shift

    vanish = 7 * (F + 2) // 10 + 1  # > (F + 2) ln 2: e^-y < 2^-(F + 2) for y >= vanish

    def fixed_exp(y: tuple) -> int:  # floor(e^-y 2^F), without an exponential where it is 0
        return 0 if fixed(y) >> F >= vanish else fixed(mpf_exp(mpf_neg(y), hp, rnd))

    if model is ModelId.SPIN0:
        def hyperbolic(x: tuple) -> tuple:  # x/sinh x = 2x h/(1 - h^2)
            X, H = fixed(x), fixed_exp(x)
            v = (X * H << (F + 1)) // (one * one - H * H) - one + (X * X // 6 >> F)
            return from_man_exp(v, -F, hp, rnd)
    elif model is ModelId.SPIN_HALF:
        def hyperbolic(x: tuple) -> tuple:  # x coth x = x(1 + e)/(1 - e)
            X, E = fixed(x), fixed_exp(mpf_shift(x, 1))
            v = one + (X * X // 3 >> F) - X * (one + E) // (one - E)
            return from_man_exp(v, -F, hp, rnd)
    else:
        def hyperbolic(x: tuple) -> tuple:  # 1/sinh^2 x = 4e/(1 - e)^2
            X, E = fixed(x), fixed_exp(mpf_shift(x, 1))
            x2, d2 = X * X, (one - E) ** 2
            v = (4 * E * x2 - (d2 << F) << (2 * F)) // (d2 * x2) + third
            return from_man_exp(v, -F, hp, rnd)

    return lambda x: series(*x[1:]) if x[2] + x[3] < 0 else hyperbolic(x)  # x < 1/2


@lru_cache(maxsize=4)
def _node_factors(wp: int, m: int) -> dict[tuple, tuple]:
    """e^-t/t^m at wp bits, keyed by the raw libmp node t: the integrand's
    half that depends on neither beta nor the model's kernel, shared by every
    oracle call at one precision. The oracle fills it lazily."""
    return {}


def direct_integral_oracle(model: ModelId, beta, ctx: PrecisionContext) -> mpf:
    """High-precision quadrature of the exact proper-time integral.

    Spins: integral of e^{-tau} chi(sqrt(beta) tau)/tau^3. SD: after
    sigma = 2 tau/sqrt(beta), (1/4) integral of e^{-sigma} w(sqrt(beta)
    sigma/2)/sigma. Integrands are O(tau) at the origin. One tanh-sinh pass
    over [0, inf), at the degree mpmath sizes from the precision; the
    integrand works on raw libmp values at wp = prec + 10 bits and is
    rounded once to prec. Its factor e^{-t}/t^m (m = 3 spins, 1 SD) depends
    only on the node and wp: _node_factors holds it per (wp, m), formed at
    wp + 10 bits and rounded once to wp, so at a precision seen before a
    node costs the kernel at r t, one product and one quotient by
    den = scale (4 scale for SD).

    The target is relative: the integrand is divided by scale = a_0 beta^p
    below beta = 1 and by 1 above (|f| >= 0.0035 there), so mpmath's
    absolute stopping test acts relatively, and the rescaled error estimate
    must be <= |f| 10^-digits. digits + 10 suffice: all three kernels are
    >= 0, so the positive-weight sum cannot cancel; only the kernel near
    x = 1/2 (<= 3 digits) and the sum over n nodes (log10 n, about 4) lose
    digits. mpmath caps its estimate at 1 in the integrand's units, and above
    beta = 1 the integrand is not rescaled, so an estimate >= 1 says nothing
    about the digits: it raises too.

    Nodes past a cutoff T are exact zeros, taken before any exponential.
    x/sinh x <= 1, x coth x >= 1 and sinh x >= x give chi <= x^2/6 (spin0),
    chi <= x^2/3 (spin1/2) and w <= 1/3 (SD), so the integrand is at most
    C e^{-t}/t with C = beta/(6 scale), beta/(3 scale) or 1/(12 scale).
    mpmath maps [-1, 1] to [0, inf) by t = 2/(1 + x) - 1, so the weight at a
    node t > 1 is t sqrt(pi^2 + ln^2 t) and a weighted term is at most
    sqrt(pi^2 + ln^2 t) C e^{-t}, falling in t. With T = (2 wp + 73) ln 2
    + ln max(C, 1) each skipped term is below 2^-(2 wp + 69) while
    ln T < 15 (wp up to about 2e6 bits), and the normalised result is above
    0.0035 > 2^-9, so the n skipped terms move the exact sum by less than
    n 2^-(2 wp + 60) of it. fdot skips the zeros, and the returned bits can
    change only on a rounding tie at that depth.
    """
    model = ModelId(model)
    with ctx.work(10 - ctx.guard):
        beta = _to_beta(beta)
        prec, rnd = mp.prec, round_nearest
        wp = prec + 10
        chi = _kernel(model, prec)
        p = model.series_prefactor_power
        scale = _to_mpf(coefficients(model, 1).a[0]) * beta ** p if beta < 1 else mpf(1)
        if model is ModelId.SELF_DUAL:  # e^-s w(r s)/(4 scale s), r = sqrt(beta)/2
            r, den, m = (sqrt(beta) / 2)._mpf_, (4 * scale)._mpf_, 1
            bound = 1 / (12 * scale)
        else:  # e^-t chi(r t)/(scale t^3), r = sqrt(beta)
            r, den, m = sqrt(beta)._mpf_, scale._mpf_, 3
            bound = beta / ((6 if model is ModelId.SPIN0 else 3) * scale)
        cut = ((2 * wp + 73) * mp.ln2 + ln(max(bound, 1)))._mpf_

        factors = _node_factors(wp, m)

        def integrand(t: mpf) -> mpf:
            t = t._mpf_
            if mpf_gt(t, cut):
                return mp.zero
            f = factors.get(t)
            if f is None:
                f = factors[t] = mpf_div(mpf_exp(mpf_neg(t), wp + 10, rnd),
                                         mpf_pow_int(t, m, wp + 10, rnd), wp, rnd)
            num = mpf_mul(f, chi(mpf_mul(r, t, wp, rnd)), wp, rnd)
            return mp.make_mpf(mpf_div(num, den, prec, rnd))

        v, err = quad(integrand, [0, mp.inf], error=True)
        capped = err >= 1  # mpmath's largest estimate: no bound on the digits
        v, err = v * scale, err * scale
        if capped or err > abs(v) * mpf(10) ** (-ctx.digits):
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
    model = ModelId(model)
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
    """f reassembled from finite-part integrals; an independent route, at
    closed_form's precision + guard, each part with its own guard above that.

    Spin0:  sqrt(b) fp_csch - fp_exp(1,3) + (b/6) fp_exp(1,1)
    SpinHalf: fp_exp(1,3) + (b/3) fp_exp(1,1) - sqrt(b) fp_coth
    SD:     fp_sinh2 - (1/4) fp_exp(2/sqrt(b),3) + (1/12) fp_exp(2/sqrt(b),1)
    """
    model = ModelId(model)
    inner = PrecisionContext(ctx.workdps + _weak_field_extra(beta, ctx))
    with inner.work():
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
