"""Strong-field extrapolant: convergent inverse-power tail from finite-part
negative moments plus the pole-correction term Delta(beta).

The tail is sum_{k=0}^{K} (-1)^k beta^{p-k} T_k with p = 1 (spins) or 0 (SD).
A convergent integral is its own finite part (Galapon, Proc. R. Soc. A 473,
20160567, 2017), so each coefficient is one finite-part integral of the
density factor g(x) = e^{-x/2} sum_m c_m L_m(x), and one convolution:

    T_k = FP int_0^inf g(x) x^{-(2k+1)} dx = sum_{l=0}^{d} g_l M[2k+1-l],

with g_l = (-1)^l G_l/(l!)^2 the Taylor coefficients of sum_m c_m L_m and
M[j] = FP int_0^inf e^{-x/2} x^{-j} dx one kernel table for j = -d..2K+1.
The T_k do not depend on beta, which enters only the final sum. The
convolution alternates and cancels more digits as d grows, and at small beta
the final sum does too, so both are redone at a raised precision when their
combined cancellation reaches into the guard digits.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, factorial, log10

from mpmath import mp, mpc, mpf, ln, pi, sqrt

from .errors import ConsistencyError, DomainError, TruncationWarning
from .models import ModelId
from .momentrec import ReconstructionCoefficients, rho_eval
from .specfun import PrecisionContext, _euler_gamma, _to_beta

__all__ = [
    "ExtrapolationResult",
    "tail_sum",
    "extrapolate",
]


@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolant value with its decomposition and diagnostics.

    value is the exact float sum of the reported tail and delta fields, so
    value == tail + delta whenever the addition is carried out without
    rounding (e.g. inside the working precision context).
    """

    model: ModelId
    beta: mpf
    value: mpf
    tail: mpf
    delta: mpf
    K: int
    im_residual: mpf


def _fp_kernel_values(d: int, jmax: int) -> list[mpf]:
    """M[j + d] = FP int_0^inf e^{-x/2} x^{-j} dx for j = -d..jmax, at ambient
    precision.

    j <= 0 is the convergent value (-j)! 2^{1-j}, from exact integers. j >= 1
    rolls (-1)^j (1/2)^{j-1}/(j-1)! (ln(1/2) - psi(j)) with an incremental
    harmonic number, so building hundreds of orders stays O(jmax).
    """
    out = [mpf(factorial(n) << (n + 1)) for n in range(d, -1, -1)]
    gamma = _euler_gamma()
    ln_half = -ln(mpf(2))
    harmonic = mpf(0)  # H_{j-1}
    inv_fact = mpf(1)  # 1/(j-1)!
    power = mpf(1)  # (1/2)^{j-1}
    for j in range(1, jmax + 1):
        psi_j = -gamma + harmonic
        out.append((-1) ** j * power * inv_fact * (ln_half - psi_j))
        harmonic += mpf(1) / j
        power /= 2
        inv_fact /= j
    return out


def _tail_coefficients(rec: ReconstructionCoefficients, K: int) -> tuple[list[mpf], int]:
    """(T_0..T_K, digits lost) at ambient precision; T_k = sum_l g_l M[2k+1-l].

    G_l = sum_{m=l}^{d} c_m m!/(m-l)! takes its m!/(m-l)! as exact integers
    via a running product. The digits lost are the largest gap between a
    term's and its sum's binary exponents, read without further mpf work.
    """
    d = rec.d
    M = _fp_kernel_values(d, 2 * K + 1)
    g = []
    for l in range(d + 1):
        G = mpf(0)
        r = factorial(l)
        for m in range(l, d + 1):
            G += rec.c[m] * r
            r = r * (m + 1) // (m + 1 - l)
        g.append((-1) ** l * G / factorial(l) ** 2)
    T = []
    lost_bits = 0
    for k in range(K + 1):
        terms = [g[l] * M[2 * k + 1 - l + d] for l in range(d + 1)]
        T.append(mp.fsum(terms))
        if T[-1]:
            lost_bits = max(lost_bits, max(map(mp.mag, terms)) - mp.mag(T[-1]))
    return T, ceil(lost_bits * log10(2))


def _tail(rec: ReconstructionCoefficients, beta, K: int, p: int) -> tuple[mpf, int]:
    """(sum_k (-1)^k beta^{p-k} T_k, digits lost) at ambient precision.

    The loss is T's plus the beta sum's, max_k mag(term) - mag(sum): at
    d = 49 the sum alone cancels about 5 digits at beta = 0.01 and 27 at 1e-4.
    """
    beta = _to_beta(beta)
    T, lost = _tail_coefficients(rec, K)
    terms = [(-1) ** k * beta ** (p - k) * t for k, t in enumerate(T)]
    total = sum(terms, mpf(0))  # left to right: frozen digits depend on the order
    if total:
        lost += ceil(max(0, max(map(mp.mag, terms)) - mp.mag(total)) * log10(2))
    return total, lost


def tail_sum(rec: ReconstructionCoefficients, beta, K: int, ctx: PrecisionContext) -> mpf:
    """Inverse-power tail sum_{k=0}^{K} (-1)^k beta^{p-k} T_k.

    The beta-free T_0..T_K are built once. When T's sums and the beta sum
    together cancel more than guard - 5 digits, both are redone that many
    digits (+5) higher.
    """
    if K < 1:
        raise DomainError(f"tail_sum requires K >= 1, got {K}")
    d = rec.d
    if K > 2 * d:
        warnings.warn(
            f"truncation K={K} beyond 2d={2 * d}; extra terms cannot improve the result",
            TruncationWarning, stacklevel=2)
    p = rec.model.tail_power_offset
    with ctx.work():
        total, lost = _tail(rec, beta, K, p)
        if lost > ctx.guard - 5:
            with ctx.work(lost + 5):
                total, _ = _tail(rec, beta, K, p)
    return ctx.round(total)


def _delta_raw(rec: ReconstructionCoefficients, beta: mpf, model: ModelId,
               ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """(delta, im_residual) at ambient precision: the pole-correction term.

    Delta(beta) = (pi sqrt(b)/4)(rho(i/sqrt(b)) + rho(-i/sqrt(b)))
                + (sqrt(b) ln b/4i)(rho(i/sqrt(b)) - rho(-i/sqrt(b))),
    evaluated from two independent density evaluations so a broken conjugate
    symmetry shows up in the discarded imaginary part. Spin models return
    beta * Delta; SD returns Delta itself.
    """
    rb = sqrt(beta)
    y = 1 / rb
    rho_plus = rho_eval(rec, mpc(0, y), ctx)
    rho_minus = rho_eval(rec, mpc(0, -y), ctx)
    raw = (pi * rb / 4) * (rho_plus + rho_minus) \
        + (rb * ln(beta) / (4 * mpc(0, 1))) * (rho_plus - rho_minus)
    if model is not ModelId.SELF_DUAL:
        raw = beta * raw
    return raw.real, abs(raw.imag)


def extrapolate(model: ModelId, rec: ReconstructionCoefficients, beta,
                K: int | None, ctx: PrecisionContext) -> ExtrapolationResult:
    """Tail plus pole correction; K=None means 2d (all useful terms)."""
    if rec.model is not model:
        raise DomainError(
            f"reconstruction is for {rec.model.value}, requested {model.value}")
    if K is None:
        K = 2 * rec.d
    with ctx.work():
        beta_v = _to_beta(beta)
        tail = tail_sum(rec, beta_v, K, ctx)
        delta, imres = _delta_raw(rec, beta_v, model, ctx)
        bound = mpf(10) ** (-(ctx.digits - 10)) * max(abs(tail + delta), mpf(1))
        if imres > bound:
            raise ConsistencyError(
                f"imaginary residual {imres} exceeds {bound}: conjugate symmetry broken")
    tail_r = ctx.round(tail)
    delta_r = ctx.round(delta)
    # Exact float addition of the rounded parts, so value == tail + delta
    # holds on the reported fields at any comparison precision.
    value_r = mp.fadd(tail_r, delta_r, exact=True)
    return ExtrapolationResult(
        model=model, beta=ctx.round(beta_v), value=value_r,
        tail=tail_r, delta=delta_r, K=K,
        im_residual=ctx.round(imres))
