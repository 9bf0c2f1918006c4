"""Strong-field extrapolant: convergent inverse-power tail from finite-part
negative moments plus the pole-correction term Delta(beta).

The tail is sum_{k=0}^{K} (-1)^k beta^{p-k} T_k with p = 1 (spins) or 0 (SD).
For 2k+1 <= d the coefficient T_k = I_k + J_k + L_k combines the finite-part
kernel values with a convergent-integral remainder; beyond that T_k = M_k is
a pure finite-part sum. All inner sums carry exact integer factorial/power
factors, multiplying by BigReal values last, because the alternating
cancellation is severe.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import factorial

from mpmath import mp, mpc, mpf, ln, pi, sqrt

from .errors import ConsistencyError, DomainError, TruncationWarning
from .finitepart import _fp_exp_over_xm
from .models import ModelId
from .momentrec import ReconstructionCoefficients, rho_eval
from .specfun import PrecisionContext, _euler_gamma, _to_beta, _to_mpf

__all__ = [
    "ExtrapolationResult",
    "fp_negative_moment_kernel",
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


def fp_negative_moment_kernel(k: int, l: int, ctx: PrecisionContext) -> mpf:
    """Finite part of e^{-x/2}/x^{2k+1-l}; requires 2k+1-l >= 1.

    At 2k+1-l < 1 the integral is convergent and belongs to the L_k branch,
    so the kernel refuses it.
    """
    m = 2 * k + 1 - l
    if m < 1:
        raise DomainError(
            f"finite-part order 2k+1-l = {m} < 1: convergent integral, not a finite part")
    with ctx.work():
        v = _fp_exp_over_xm(mpf(1) / 2, m)
    return ctx.round(v)


def _fp_kernel_values(kmax: int) -> list[mpf]:
    """F[j] = finite part of e^{-x/2}/x^j for j = 1..2*kmax+1, at ambient precision.

    Rolls (-1)^j (1/2)^{j-1}/(j-1)! (ln(1/2) - psi(j)) with an incremental
    harmonic number, so building hundreds of orders stays O(kmax).
    """
    gamma = _euler_gamma()
    ln_half = -ln(mpf(2))
    out = [mpf(0)]  # j = 0 placeholder
    harmonic = mpf(0)  # H_{j-1}
    inv_fact = mpf(1)  # 1/(j-1)!
    power = mpf(1)  # (1/2)^{j-1}
    for j in range(1, 2 * kmax + 2):
        psi_j = -gamma + harmonic
        out.append((-1) ** j * power * inv_fact * (ln_half - psi_j))
        harmonic += mpf(1) / j
        power /= 2
        inv_fact /= j
    return out


def _weights(rec: ReconstructionCoefficients) -> list[mpf]:
    """G_l = sum_{m=l}^{d} c_m m!/(m-l)!, the l-th derivative data of the density.

    The m!/(m-l)! factors are exact integers via a running product.
    """
    d = rec.d
    G = []
    for l in range(d + 1):
        acc = mpf(0)
        r = factorial(l)
        for m in range(l, d + 1):
            acc += rec.c[m] * _to_mpf(r)
            r = r * (m + 1) // (m + 1 - l)
        G.append(acc)
    return G


def tail_sum(rec: ReconstructionCoefficients, beta, K: int, ctx: PrecisionContext) -> mpf:
    """Inverse-power tail sum_{k=0}^{K} (-1)^k beta^{p-k} T_k.

    T_k = I_k + J_k + L_k while 2k+1 <= d (finite parts plus the convergent
    remainder with integer factor (l-2k-1)! 2^{l-2k}), and M_k beyond.
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
        beta = _to_beta(beta)
        F = _fp_kernel_values(K)
        G = _weights(rec)
        inv_fac2 = [1 / _to_mpf(factorial(l)) ** 2 for l in range(d + 1)]
        total = mpf(0)
        for k in range(K + 1):
            # I_k (l = 0) and J_k (l = 1..min(2k, d)): finite-part block.
            fp_block = mpf(0)
            for l in range(min(2 * k, d) + 1):
                fp_block += (-1) ** l * inv_fac2[l] * F[2 * k + 1 - l] * G[l]
            # L_k (l = 2k+1..d): convergent integrals, exact integer factors.
            conv_block = mpf(0)
            for l in range(2 * k + 1, d + 1):
                conv_block += ((-1) ** l * _to_mpf(factorial(l - 2 * k - 1) * 2 ** (l - 2 * k))
                               * inv_fac2[l] * G[l])
            total += (-1) ** k * beta ** (p - k) * (fp_block + conv_block)
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
