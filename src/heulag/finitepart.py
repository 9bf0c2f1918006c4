"""Hadamard finite-part integrals in Galapon's closed forms.

Closed formulas for exponential kernels e^{-bx}/x^m and Mellin-derived closed
forms for the hyperbolic kernels that build the three model functions. The
canonical epsilon-cutoff definition checks them in tests/fp_cutoff_oracle.py.
"""
from __future__ import annotations

from mpmath import mp, mpf, ln, sqrt
from mpmath.libmp import (fone, from_int, fzero, mpf_add, mpf_div, mpf_euler, mpf_log,
                          mpf_mul, mpf_neg, mpf_sub, round_nearest)

from .errors import DomainError
from .specfun import PrecisionContext, _to_beta, _zeta_sderivs

__all__ = [
    "fp_exp_over_xm",
    "fp_csch",
    "fp_coth",
    "fp_sinh2",
]


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
