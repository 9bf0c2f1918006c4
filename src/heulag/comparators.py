"""Baseline resummation methods: Pade approximants and the Weniger delta
transformation, both in arbitrary precision on the reduced alternating series.

Both act on S(x) = sum_j a_j x^j at x = -beta and multiply back the model's
beta-power prefactor (beta^2 for spins, beta for SD). The a_j are Stieltjes
moments, so the staircase Pade approximants are the convergents of an
S-fraction a_0/(1 + alpha_1 beta/(1 + alpha_2 beta/(1 + ...))) with every
alpha_k > 0 (Baker & Graves-Morris, Pade Approximants, ch. 5): qd once per
approximant, then O(N + M) per beta and no pole at beta > 0. Delta is its
explicit weighted sum over the partial sums, O(n) per beta with exact integer
weights. The coefficients grow factorially, qd is unstable and the delta
numerator cancels, so both run at a precision extended by the coefficient span.
"""
from __future__ import annotations

from collections.abc import Callable

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sub

from .errors import DegeneracyError, DomainError
from .models import SeriesCoefficients
from .specfun import PrecisionContext, _to_beta, _to_mpf

__all__ = ["pade_eval", "weniger_delta"]


def _span_digits(series: SeriesCoefficients, count: int) -> int:
    """Decimal span of the first `count` coefficients (they grow factorially)."""
    top = 1
    for f in series.a[:count]:
        mag = (f.numerator.bit_length() - f.denominator.bit_length())
        top = max(top, abs(mag))
    return int(top * 0.30103) + 2


def pade_eval(series: SeriesCoefficients, N: int, M: int, beta,
              ctx: PrecisionContext) -> mpf:
    """[N/M] Pade approximant of the reduced series, times the beta prefactor.

    For N >= M - 1 (else DomainError) and L = N - M + 1 it is the head
    sum_{j<L} a_j (-beta)^j plus (-beta)^L a_L/t, where t = 1 + alpha_1 beta/
    (1 + ... alpha_{2M-1} beta) is evaluated bottom up and the alpha are those
    of the shifted series a_{j+L}, row L of the qd table (_qd_row).
    """
    return _pade(series, N, M, ctx)(beta)


def _pade(series: SeriesCoefficients, N: int, M: int,
          ctx: PrecisionContext) -> Callable[[object], mpf]:
    """pade_eval's beta -> [N/M] value, with a and the qd row built once."""
    if N < 0 or M < 0:
        raise DomainError(f"degrees must be >= 0, got N={N}, M={M}")
    if N < M - 1:
        raise DomainError(f"[N/M]=[{N}/{M}] needs N >= M - 1 (a staircase of the S-fraction)")
    need = N + M + 1
    if series.count < need:
        raise DomainError(
            f"series has {series.count} coefficients, [N/M]=[{N}/{M}] needs {need}")
    L = N - M + 1
    extra = _span_digits(series, need) + 10
    with ctx.work(extra):
        a = [_to_mpf(f) for f in series.a[:need]]
        alphas = _qd_row(a, L)[::-1]

    def at(beta) -> mpf:
        with ctx.work(extra):
            beta = _to_beta(beta)
            t = mpf(1)
            for alpha in alphas:
                t = 1 + alpha * beta / t
            v = a[L] / t if M else 0
            for aj in reversed(a[:L]):  # Horner: the head plus (-beta)^L a_L/t
                v = v * -beta + aj
            v *= beta ** series.model.series_prefactor_power
        return ctx.round(v)

    return at


def _qd_row(a: list[mpf], L: int) -> list[mpf]:
    """S-fraction coefficients alpha_1.. of the series shifted by L.

    Rutishauser's qd table of c_j = (-1)^j a_j, column by column from
    q_1^(k) = c_{k+1}/c_k, e_0^(k) = 0 and the rhombus rules; row k holds
    -alpha = q_1^(k), e_1^(k), q_2^(k), ... of the series shifted by k.
    DegeneracyError unless every a_j > 0 and every e < 0 (Stieltjes), read
    from the sign bit and a nonzero mantissa. The table runs on raw libmp
    values with the same roundings as mpf arithmetic at the ambient precision.
    """
    prec, rnd = mp._prec_rounding
    a = [c._mpf_ for c in a]
    if not all(c[1] and not c[0] for c in a):
        raise DegeneracyError("not a Stieltjes series: a reduced coefficient is <= 0")
    q = [mpf_div(mpf_neg(a[k + 1]), a[k], prec, rnd) for k in range(len(a) - 1)]
    e = [fzero] * len(q)
    row, m = [], 0
    while q:
        m += 1
        e = [mpf_add(mpf_sub(q[k + 1], q[k], prec, rnd), e[k + 1], prec, rnd)
             for k in range(len(q) - 1)]
        if not all(v[1] and v[0] for v in e):
            raise DegeneracyError(
                f"not a Stieltjes series at working precision: qd column e_{m} has an entry >= 0")
        row += [mp.make_mpf(mpf_neg(v[L])) for v in (q, e) if len(v) > L]
        q = [mpf_div(mpf_mul(q[k + 1], e[k + 1], prec, rnd), e[k], prec, rnd)
             for k in range(len(e) - 1)]
    return row


def weniger_delta(series: SeriesCoefficients, n: int, beta,
                  ctx: PrecisionContext) -> mpf:
    """Delta transformation of order n with first-neglected-term remainder
    estimates, times the model's beta-power prefactor; needs the n+2 leading
    coefficients.

    The explicit sum (Weniger, Comput. Phys. Rep. 10 (1989) 189, sec. 8)
    delta_n = sum_j u_j s_j / sum_j u_j over j = 0..n, with the partial sums
    s_j, omega_j = a_{j+1} (-beta)^{j+1} and u_j = w_j/omega_j. The weights
    w_j = (-1)^j C(n, j) C(n+j-1, j), Weniger's (-1)^j C(n, j) (j+1)_{n-1}
    over their common factor (n-1)!, are exact integers from one running
    product. With every a_j > 0 every u_j is negative, so the denominator
    never cancels.
    """
    if n < 0:
        raise DomainError(f"weniger_delta requires n >= 0, got {n}")
    if series.count < n + 2:
        raise DomainError(
            f"series has {series.count} coefficients, delta_{n} needs {n + 2}")
    with ctx.work(_span_digits(series, n + 2) + 10):
        beta = _to_beta(beta)
        xp = -beta  # (-beta)^(j+1)
        term = _to_mpf(series.a[0])  # t_j = a_j (-beta)^j, and omega_j = t_{j+1}
        s = num = den = mpf(0)
        w = 1
        for j in range(n + 1):
            s += term
            term = _to_mpf(series.a[j + 1]) * xp
            if term == 0:
                raise DegeneracyError(f"vanishing remainder estimate at j={j}")
            u = w / term
            num += u * s
            den += u
            w = -w * (n - j) * (n + j) // (j + 1) ** 2
            xp *= -beta
        if den == 0:
            raise DegeneracyError(f"delta_{n} denominator vanished at beta={beta}")
        v = beta ** series.model.series_prefactor_power * num / den
    return ctx.round(v)
