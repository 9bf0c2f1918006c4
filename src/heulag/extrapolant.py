"""Strong-field extrapolant: convergent inverse-power tail from finite-part
negative moments plus the pole-correction term Delta(beta).

The tail is sum_{k=0}^{K} (-1)^k beta^{p-k} T_k with p = 1 (spins) or 0 (SD).
A convergent integral is its own finite part (Galapon, Proc. R. Soc. A 473,
20160567, 2017), so each coefficient is one finite-part integral of the
density factor g(x) = e^{-x/2} sum_m c_m L_m(x), and one convolution:

    T_k = FP int_0^inf g(x) x^{-(2k+1)} dx = sum_{l=0}^{d} g_l M[2k+1-l],

with g_l = N_l / D the exact Taylor coefficients of sum_m c_m L_m that
momentrec's _density_taylor gives and rho_eval reads for Delta, and
M[j] = FP int_0^inf e^{-x/2} x^{-j} dx one kernel table for j = -d..2K+1.
M depends only on d, K and the precision, so a small bounded cache keeps
it across builds. No T_k depends on beta, so an Extrapolant builds them
once and evaluate(beta) runs the final sum, one Horner pass over the terms
that reach the working precision, and Delta. The convolution cancels more
digits as d grows, so build holds T higher once that reaches into the
guard digits; at small beta the final sum cancels too, and past what T's
precision leaves, tail_sum rebuilds T higher.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import ceil, factorial, inf, log2, log10
from operator import add, lshift, mul

from mpmath import mp, mpf, ln, pi, sqrt
from mpmath.libmp import (fnone, from_int, from_man_exp, mpf_add, mpf_div,
                          mpf_mul, mpf_pow_int, round_nearest)

from .errors import DomainError
from .finitepart import _fp_exp_rows
from .models import ModelId
from .momentrec import ReconstructionCoefficients, _density_taylor, _exact_mpf, rho_eval
from .specfun import PrecisionContext, _to_beta

__all__ = [
    "ExtrapolationResult",
    "Extrapolant",
    "tail_sum",
    "extrapolate",
]


@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolant value with its decomposition and the truncation K.

    value is the exact float sum of the reported tail and delta fields, so
    value == tail + delta whenever the addition is carried out without
    rounding (e.g. inside the working precision context).
    """

    value: mpf
    tail: mpf
    delta: mpf
    K: int


@lru_cache(maxsize=4)
def _fp_kernel_values(d: int, jmax: int, prec: int) -> tuple[tuple[int, int], ...]:
    """Signed (mantissa, exponent) of M[j + d] = FP int_0^inf e^{-x/2} x^{-j} dx
    for j = -d..jmax, rounded to prec bits: the convergent value (-j)! 2^{1-j}
    from exact integers for j <= 0, then _fp_exp_rows at b = 1/2. Every entry
    is at prec, not the ambient precision, so a cached table depends on its
    arguments alone.
    """
    exact = (from_int(factorial(n) << (n + 1), prec, round_nearest) for n in range(d, -1, -1))
    rows = _fp_exp_rows(from_man_exp(1, -1), jmax, prec)
    return tuple((-man if sign else man, exp) for sign, man, exp, _ in (*exact, *rows))


def _tail_coefficients(g, K: int) -> tuple[tuple[mpf, ...], int]:
    """(T_0..T_K, digits lost) at ambient precision for g = (N, D): each g_l =
    N_l / D rounded once, and T_k = sum_l g_l M[2k+1-l] one exact integer sum of
    mantissa products, by maps over parallel lists (a zero g_l takes no part),
    rounded once. The loss is the largest gap between a product's and its sum's mp.mag."""
    N, D, (prec, rnd) = g[0], _exact_mpf(g[1])._mpf_, mp._prec_rounding
    gl = [mpf_div(from_int(n), D, prec, rnd) for n in reversed(N)]  # g_{d-i} pairs with M[2k+1+i]
    keep = [man != 0 for _, man, _, _ in gl]
    gm = [-man if sign else man for sign, man, _, _ in gl if man]
    ge = [exp for _, man, exp, _ in gl if man]
    Mm, Me = zip(*_fp_kernel_values(len(N) - 1, 2 * K + 1, prec))
    T, lost_bits = [], 0
    for j in range(1, 2 * K + 2, 2):  # j = 2k + 1, windows as long as g
        prods = list(map(mul, gm, compress(Mm[j:j + len(N)], keep)))
        exps = list(map(add, ge, compress(Me[j:j + len(N)], keep)))
        e0 = min(exps, default=0)
        t = from_man_exp(sum(map(lshift, prods, [e - e0 for e in exps])), e0, prec, rnd)
        T.append(mp.make_mpf(t))
        if t[1]:
            top = max(map(add, exps, map(int.bit_length, prods)))
            lost_bits = max(lost_bits, top - (t[2] + t[3]))
    return tuple(T), ceil(lost_bits * log10(2))


def _beta_sum(T, beta, p: int) -> tuple[mpf, int]:
    """(sum_k (-1)^k beta^{p-k} T_k, digits lost) at ambient precision: beta^p
    times a Horner pass in -1/beta, 10 bits higher, from the last k whose size
    mag(T_k) - k log2(beta) is within prec + 10 bits of the top size. The loss
    is the largest term's mp.mag (formed within 3 bits of the top) less the sum's."""
    beta, (prec, rnd) = _to_beta(beta), mp._prec_rounding
    # log2 of the mantissa's top 60 bits: a long gmpy2 mpz would overflow float()
    b, lb = beta._mpf_, log2(int(beta.man << 60 >> beta.bc)) + beta.exp + beta.bc - 60
    size = [e + bc - k * lb if m else -inf for k, (_, m, e, bc) in enumerate(t._mpf_ for t in T)]
    top = max(size)
    kstar = max(k for k, s in enumerate(size) if s >= top - prec - 10)
    x, acc = mpf_div(fnone, b, prec + 10, rnd), T[kstar]._mpf_
    for t in reversed(T[:kstar]):
        acc = mpf_add(mpf_mul(acc, x, prec + 10, rnd), t._mpf_, prec + 10, rnd)
    total = mp.make_mpf(mpf_mul(acc, mpf_pow_int(b, p, prec + 10, rnd), prec, rnd))
    big = max(mp.mag(beta ** (p - k) * T[k]) for k, s in enumerate(size) if s >= top - 3)
    lost = big - mp.mag(total) if total else 0
    return total, ceil(max(0, lost) * log10(2))


def _T_extra(lost_T: int, ctx: PrecisionContext) -> int:
    """Digits above workdps at which T is held: lost_T + 5 past guard - 5, else 0."""
    return lost_T + 5 if lost_T > ctx.guard - 5 else 0


@dataclass(frozen=True)
class Extrapolant:
    """The beta-free half of one reconstruction's extrapolant: its model, the
    exact g = (N, D) of _density_taylor(rec), and T_0..T_K with lost_T, the
    digits their sums cancelled at ctx.workdps; T is held _T_extra(lost_T)
    digits higher. Nothing after build reads rec."""

    model: ModelId
    K: int
    ctx: PrecisionContext
    g: tuple[tuple[int, ...], int]
    T: tuple[mpf, ...]
    lost_T: int

    @classmethod
    def build(cls, rec: ReconstructionCoefficients, K: int | None,
              ctx: PrecisionContext) -> "Extrapolant":
        """The tail truncated after T_K, K >= 1; K=None means 2d."""
        K = 2 * rec.d if K is None else K
        if K < 1:
            raise DomainError(f"truncation K must be >= 1, got {K}")
        g = _density_taylor(rec)
        with ctx.work():
            T, lost = _tail_coefficients(g, K)
        if extra := _T_extra(lost, ctx):
            with ctx.work(extra):
                T = _tail_coefficients(g, K)[0]
        return cls(rec.model, K, ctx, g, T, lost)

    def evaluate(self, beta) -> ExtrapolationResult:
        """Tail plus pole correction at one beta."""
        with self.ctx.work():
            b = _to_beta(beta)
            tail = tail_sum(self, b)
            delta = self.ctx.round(_delta_raw(self, b))
        # Exact float addition of the rounded parts, so value == tail + delta
        # holds on the reported fields at any comparison precision.
        return ExtrapolationResult(value=mp.fadd(tail, delta, exact=True), tail=tail,
                                   delta=delta, K=self.K)


def tail_sum(ext: Extrapolant, beta) -> mpf:
    """Inverse-power tail sum_{k=0}^{K} (-1)^k beta^{p-k} T_k at T's precision;
    when T's and the beta sum's losses exceed that precision's guard less 5
    digits, T is rebuilt that many digits (+5) above workdps for this beta."""
    p, extra = ext.model.series_prefactor_power - 1, _T_extra(ext.lost_T, ext.ctx)
    with ext.ctx.work(extra):
        total, lost = _beta_sum(ext.T, beta, p)
    if (lost := lost + ext.lost_T) > ext.ctx.guard + extra - 5:
        with ext.ctx.work(lost + 5):
            total, _ = _beta_sum(_tail_coefficients(ext.g, ext.K)[0], beta, p)
    return ext.ctx.round(total)


def _delta_raw(ext: Extrapolant, beta: mpf) -> mpf:
    """The pole-correction term at ambient precision, times beta^p for the
    tail's leading power p (1 for the spins, 0 for SD):

    Delta(beta) = (pi sqrt(b)/4)(rho(i/sqrt(b)) + rho(-i/sqrt(b)))
                + (sqrt(b) ln b/4i)(rho(i/sqrt(b)) - rho(-i/sqrt(b))).
    The g_l are real, so rho(-i/sqrt(b)) is the conjugate of rho = rho(i/sqrt(b)),
    one pole-axis read of ext.g, and Delta = (pi sqrt(b)/2) Re rho + (sqrt(b) ln b/2) Im rho.
    """
    rb = sqrt(beta)
    re, im = rho_eval(ext.g, 1 / rb, ext.ctx)
    raw = (pi * rb / 2) * re + (rb * ln(beta) / 2) * im
    return beta ** (ext.model.series_prefactor_power - 1) * raw


def extrapolate(model: ModelId, rec: ReconstructionCoefficients, beta,
                K: int | None, ctx: PrecisionContext) -> ExtrapolationResult:
    """Tail plus pole correction at one beta: Extrapolant.build (K=None means
    2d), then evaluate. For many betas, build once and evaluate each."""
    model = ModelId(model)
    if rec.model is not model:
        raise DomainError(
            f"reconstruction is for {rec.model.value}, requested {model.value}")
    return Extrapolant.build(rec, K, ctx).evaluate(beta)
