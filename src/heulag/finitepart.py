"""Hadamard finite-part integrals.

Closed formulas for exponential kernels e^{-bx}/x^m, Mellin-derived closed
forms for the hyperbolic kernels that build the three model functions, and an
independent oracle that implements the canonical definition directly: cut the
integral off at epsilon, subtract the divergent group of terms, and take the
limit epsilon -> 0 numerically by Richardson extrapolation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from mpmath import mp, mpf, exp, ln, quad, sqrt
from mpmath.libmp import (fone, from_int, fzero, mpf_add, mpf_div, mpf_euler, mpf_log,
                          mpf_mul, mpf_neg, mpf_sub, round_nearest)

from .errors import DomainError, OracleFailureError
from .specfun import PrecisionContext, _to_beta, _to_mpf, _zeta_sderivs

__all__ = [
    "KernelDescriptor",
    "exp_kernel",
    "fp_exp_over_xm",
    "fp_canonical_oracle",
    "fp_csch",
    "fp_coth",
    "fp_sinh2",
]


@dataclass(frozen=True)
class KernelDescriptor:
    """Integrand f(x)/x^m described by the analytic factor f.

    func evaluates f at ambient precision; taylor holds exact rational Taylor
    coefficients f_0..f_{m-1} of f at 0 (enough to split off the divergence);
    decay is the exponential decay rate governing the upper cutoff.
    """

    func: Callable
    taylor: Sequence[Fraction]
    decay: Fraction


def exp_kernel(b: Fraction, order: int) -> KernelDescriptor:
    """Descriptor for f(x) = e^{-bx} with `order` exact Taylor coefficients."""
    b = Fraction(b)
    coeffs = [Fraction(-b) ** j / factorial(j) for j in range(order)]
    return KernelDescriptor(
        func=lambda x, _b=b: exp(-_to_mpf(_b) * x),
        taylor=coeffs,
        decay=b,
    )


# ---------------------------------------------------------------------------
# Closed formula for the exponential kernel.
# ---------------------------------------------------------------------------

def _fp_exp_rows(b: tuple, mmax: int, prec: int) -> list[tuple]:
    """Raw libmp values of FP int_0^inf e^{-bx} x^{-m} dx = (-1)^m b^{m-1}/(m-1)!
    (ln b - psi(m)) for m = 1..mmax, b > 0 a raw libmp value, each at prec bits.

    b^{m-1}/(m-1)! and the harmonic number H_{m-1} = psi(m) + gamma roll
    forward, and ln b and gamma are taken once, so mmax orders cost O(mmax).
    Every libmp call takes prec, not the ambient precision, so the rows depend
    on the arguments alone.
    """
    rnd = round_nearest
    ln_b, gamma = mpf_log(b, prec, rnd), mpf_euler(prec, rnd)
    harmonic, scale, rows = fzero, fone, []  # H_{m-1}, b^{m-1}/(m-1)!
    for m in range(1, mmax + 1):
        psi = mpf_sub(harmonic, gamma, prec, rnd)
        v = mpf_mul(scale, mpf_sub(ln_b, psi, prec, rnd), prec, rnd)
        rows.append(mpf_neg(v) if m % 2 else v)
        harmonic = mpf_add(harmonic, mpf_div(fone, from_int(m), prec, rnd), prec, rnd)
        scale = mpf_div(mpf_mul(scale, b, prec, rnd), from_int(m), prec, rnd)
    return rows


def fp_exp_over_xm(b, m: int, ctx: PrecisionContext) -> mpf:
    """Finite part of the integral of e^{-bx}/x^m over (0, inf), b > 0, m >= 1:
    (-1)^m b^{m-1}/(m-1)! (ln b - psi(m)), the last of _fp_exp_rows."""
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"fp_exp_over_xm requires integer m >= 1, got {m}")
    with ctx.work():
        v = mp.make_mpf(_fp_exp_rows(_to_beta(b, "b")._mpf_, m, mp.prec)[-1])
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Canonical epsilon-cutoff oracle.
# ---------------------------------------------------------------------------

def _divergent_part(taylor: Sequence[Fraction], m: int, eps: Fraction) -> mpf:
    """D_eps from exact Taylor coefficients, at exact rational eps.

    D_eps = sum_{i=0}^{m-2} f_i eps^{-(m-1-i)}/(m-1-i)  -  f_{m-1} ln eps.
    The inverse-power part is assembled as one exact rational so the huge
    cancellations against the cutoff integral do not contaminate the limit.
    """
    powers = Fraction(0)
    for i in range(m - 1):
        powers += taylor[i] * eps ** (-(m - 1 - i)) / (m - 1 - i)
    log_part = _to_mpf(taylor[m - 1]) * (ln(mpf(eps.numerator)) - ln(mpf(eps.denominator)))
    return _to_mpf(powers) - log_part


def _richardson_constant(eps_values: Sequence[Fraction], data: Sequence[mpf]) -> mpf:
    """Fit data(eps) = a0 + sum_i (a_i eps^i + b_i eps^i ln eps); return a0.

    Square collocation solve; the system is tiny, so precision is simply
    boosted far beyond any conceivable conditioning loss.
    """
    n = len(eps_values)
    with mp.extradps(200):
        eps = [_to_mpf(e) for e in eps_values]
        cols = [[mpf(1)] * n]
        npairs = (n - 1) // 2
        for i in range(1, npairs + 1):
            cols.append([e ** i for e in eps])
            cols.append([e ** i * ln(e) for e in eps])
        if len(cols) < n:
            cols.append([e ** (npairs + 1) for e in eps])
        a = mp.matrix(cols).T
        try:
            x = mp.lu_solve(a, mp.matrix(list(data)))
        except ZeroDivisionError:
            raise OracleFailureError("degenerate extrapolation system") from None
        return +x[0]


def fp_canonical_oracle(kernel: KernelDescriptor, m: int, ctx: PrecisionContext) -> mpf:
    """Finite part of f(x)/x^m by the canonical cutoff definition.

    Integrates from eps to a cutoff where the exponential tail is negligible,
    subtracts the analytically known divergent terms, and extrapolates
    eps -> 0 over the geometric grid eps = 10^{-j}, j = 2 .. digits/4 (at
    least six points, as digits >= 30).

    Convergence is checked by re-extrapolating without the smallest epsilon;
    disagreement beyond the oracle tolerance raises OracleFailureError.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"fp_canonical_oracle requires integer m >= 1, got {m}")
    if len(kernel.taylor) < m:
        raise DomainError(
            f"kernel supplies {len(kernel.taylor)} Taylor coefficients, need {m}")
    jmax = ctx.digits // 4
    eps_values = [Fraction(1, 10 ** j) for j in range(2, jmax + 1)]
    # Quadrature precision covers the divergence magnitude eps_min^{-(m-1)}.
    with ctx.work((m - 1) * (jmax + 1) + 10):
        decay = _to_mpf(kernel.decay)
        cutoff = int(mp.dps * ln(mpf(10)) / decay) + 10
        integrand = lambda x: kernel.func(x) / x ** m
        running = quad(integrand, [_to_mpf(eps_values[0]), 1, cutoff])
        tails = [running - _divergent_part(kernel.taylor, m, eps_values[0])]
        for prev, cur in zip(eps_values, eps_values[1:]):
            running += quad(integrand, [_to_mpf(cur), _to_mpf(prev)])
            tails.append(running - _divergent_part(kernel.taylor, m, cur))
    with ctx.work(20):
        a0 = _richardson_constant(eps_values, tails)
        check = _richardson_constant(eps_values[:-1], tails[:-1])
        tol = mpf(10) ** (-(ctx.digits // 2)) * max(abs(a0), mpf(1))
        if abs(a0 - check) > tol:
            raise OracleFailureError(
                f"epsilon extrapolation unstable: estimates differ by {abs(a0 - check)}")
    return ctx.round(a0)


# ---------------------------------------------------------------------------
# Closed forms for the hyperbolic kernels (Mellin route).
# ---------------------------------------------------------------------------

def _zeta_bernoulli(s: int, a: mpf) -> mpf:
    """zeta(s, a) = -B_{1-s}(a)/(1-s) at s in {0, -1}: 1/2 - a, -(a^2 - a + 1/6)/2."""
    return mpf(1) / 2 - a if s == 0 else -(a * (a - 1) + mpf(1) / 6) / 2


def fp_csch(beta, ctx: PrecisionContext) -> mpf:
    """Finite part of e^{-tau} csch(sqrt(beta) tau)/tau^2 over (0, inf).

    2 sqrt(b) [ (ln b + ln 4 + 2 gamma - 2) zeta(-1, nu) - 2 zeta'(-1, nu) ]
    with nu = (1 + sqrt(b))/(2 sqrt(b)).
    """
    with ctx.work():
        beta = _to_beta(beta)
        rb = sqrt(beta)
        nu = (1 + rb) / (2 * rb)
        g = +mp.euler
        v = 2 * rb * ((ln(beta) + ln(mpf(4)) + 2 * g - 2) * _zeta_bernoulli(-1, nu)
                      - 2 * _zeta_sderivs(nu, (-1,))[0])
    return ctx.round(v)


def fp_coth(beta, ctx: PrecisionContext) -> mpf:
    """Finite part of e^{-tau} coth(sqrt(beta) tau)/tau^2 over (0, inf).

    sqrt(b)(ln 16 + 2 ln b) zeta(-1, q) + (gamma - 1)(4 sqrt(b) zeta(-1, q) - 1)
    - 4 sqrt(b) zeta'(-1, q), with q = 1/(2 sqrt(b)).
    """
    with ctx.work():
        beta = _to_beta(beta)
        rb = sqrt(beta)
        q = 1 / (2 * rb)
        g = +mp.euler
        z1 = _zeta_bernoulli(-1, q)
        v = (rb * (ln(mpf(16)) + 2 * ln(beta)) * z1
             + (g - 1) * (4 * rb * z1 - 1)
             - 4 * rb * _zeta_sderivs(q, (-1,))[0])
    return ctx.round(v)


def fp_sinh2(beta, ctx: PrecisionContext) -> mpf:
    """Finite part of (1/4) e^{-2 tau/sqrt(beta)} csch^2(tau)/tau over (0, inf).

    (-gamma - ln 2)[zeta(-1, q) - q zeta(0, q)] + zeta'(-1, q) - q zeta'(0, q)
    with q = 1/sqrt(b); the 1/4 prefactor of the assembly is already included.
    """
    with ctx.work():
        beta = _to_beta(beta)
        q = 1 / sqrt(beta)
        g = +mp.euler
        z1, z0 = _zeta_sderivs(q, (-1, 0))
        v = ((-g - ln(mpf(2))) * (_zeta_bernoulli(-1, q) - q * _zeta_bernoulli(0, q))
             + z1 - q * z0)
    return ctx.round(v)
