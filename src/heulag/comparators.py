"""Baseline resummation methods: Pade approximants and the Weniger delta
transformation, both in arbitrary precision on the reduced alternating series.

Both act on S(x) = sum_j a_j x^j at x = -beta and multiply back the model's
beta-power prefactor (beta^2 for spins, beta for SD). The a_j are Stieltjes
moments, so the staircase Pade approximants are the convergents of an
S-fraction a_0/(1 + alpha_1 beta/(1 + alpha_2 beta/(1 + ...))) with every
alpha_k > 0 (Baker & Graves-Morris, Pade Approximants, ch. 5): qd once per
approximant, then O(N + M) per beta and no pole at beta > 0. qd is unstable,
so its table runs in fixed-point integers straight from the exact
coefficients, at the scale a running error bound (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 3.3) certifies for the working
precision; the beta recurrence adds only positive terms, so it runs at the
working precision. Delta is its explicit weighted sum over the partial sums,
O(n) per beta with exact integer weights; its numerator cancels, so it runs
at a precision extended by the coefficient span.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, gt, lshift, mul, neg, sub

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

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
    of the shifted series a_{j+L}, row L of the qd table (_fixed_qd_row).
    """
    return _pade(series, N, M, ctx)(beta)


def _pade(series: SeriesCoefficients, N: int, M: int,
          ctx: PrecisionContext) -> Callable[[object], mpf]:
    """pade_eval's beta -> [N/M] value, with the qd row built once."""
    if N < 0 or M < 0:
        raise DomainError(f"degrees must be >= 0, got N={N}, M={M}")
    if N < M - 1:
        raise DomainError(f"[N/M]=[{N}/{M}] needs N >= M - 1 (a staircase of the S-fraction)")
    need = N + M + 1
    if series.count < need:
        raise DomainError(
            f"series has {series.count} coefficients, [N/M]=[{N}/{M}] needs {need}")
    L = N - M + 1
    top = dps_to_prec(ctx.workdps + _span_digits(series, need) + 10)
    with ctx.work():
        row, _, F = _fixed_qd_row(series.a[:need], L, mp.prec, top)
        alphas = [mpf((x, -F)) for x in reversed(row)]
        a = [_to_mpf(f) for f in series.a[:L + 1]]

    def at(beta) -> mpf:
        with ctx.work():
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


def _fixed_qd_row(a: Sequence[Fraction], L: int, bits: int,
                  top: int) -> tuple[list[int], list[int], int]:
    """S-fraction coefficients alpha_1.. of the series shifted by L, as
    integers X_i with alpha_i = X_i 2^-F, each within bounds[i] 2^-F; returns
    (X, bounds, F).

    Rutishauser's qd table of c_j = (-1)^j a_j, column by column from
    q_1^(k) = c_{k+1}/c_k, e_0^(k) = 0 and the rhombus rules; row k holds
    -alpha = q_1^(k), e_1^(k), q_2^(k), ... of the series shifted by k.
    DegeneracyError unless every a_j > 0 and every e < 0 (Stieltjes).

    The table is fixed point at scale 2^F (_qd_pass), with a running error
    bound beside each entry. F starts at bits + 2 per coefficient + 16. A pass
    is kept when every e is certified negative and every alpha's bound, twice
    over, is below 2^-bits relative; otherwise F's surplus over bits doubles,
    up to top (the span rule's precision). At top the signs are read from the
    computed entries, as a floating table at that precision reads them.
    """
    if not all(f > 0 for f in a):
        raise DegeneracyError("not a Stieltjes series: a reduced coefficient is <= 0")
    F = min(bits + 2 * len(a) + 16, top)
    while F < top:
        row, bounds = _qd_pass(a, L, F, certify=True)
        if row is not None and all(x >> bits > 2 * d for x, d in zip(row, bounds)):
            return row, bounds, F
        F = min(2 * F - bits, top)
    return (*_qd_pass(a, L, top, certify=False), top)


def _qd_pass(a: Sequence[Fraction], L: int, F: int,
             certify: bool) -> tuple[list[int], list[int]] | tuple[None, None]:
    """One pass of _fixed_qd_row's table at scale 2^F: row L and its bounds, or
    (None, None) when certify is set and an e's sign is uncertain.

    Each entry is an integer X = x 2^F beside an integer bound d with
    |x 2^F - X| <= d to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.3). Column 1 is one floor division of exact
    integers (d = 1). The e-rule e = q[k+1] - q[k] + e[k+1] is exact, so the
    bounds add. The q-rule q' = q[k+1] e[k+1] // e[k] rounds once, and adds
    the inputs' relative bounds times |q'| plus one unit, rounded up:
    d' = (d_q[k+1] |e[k+1]| + d_e[k+1] |q[k+1]| + d_e[k] |q'|) // |e[k]| + 2,
    as every q and e < 0. An e is certified negative when -e > 2^16 d; then
    each q-rule step's neglected second-order terms are below 2^-14 of its
    bound, and the factor 2 of the alpha test covers them compounded over the
    columns. Each column is a C-level map over Python ints.
    """
    num, den = [f.numerator for f in a], [f.denominator for f in a]
    q = list(map(neg, map(floordiv, map(lshift, map(mul, num[1:], den), repeat(F)),
                          map(mul, den[1:], num))))
    dq = [1] * len(q)
    e, de = [0] * len(q), [0] * len(q)
    row, bounds, m = [], [], 0
    while q:
        m += 1
        e = list(map(add, map(sub, q[1:], q), e[1:]))
        de = list(map(add, map(add, dq[1:], dq), de[1:]))
        if not all(map(gt, map(neg, e), map(lshift, de, repeat(16)) if certify else repeat(0))):
            if certify and not any(x >= 2 * d for x, d in zip(e, de)):
                return None, None
            raise DegeneracyError(
                f"not a Stieltjes series at working precision: qd column e_{m} has an entry >= 0")
        for v, d in ((q, dq), (e, de)):
            if len(v) > L:
                row.append(-v[L])
                bounds.append(d[L])
        e0, e1, q1 = e[:-1], e[1:], q[1:]
        qn = list(map(floordiv, map(mul, q1, e1), e0))
        dq = list(map(add, map(floordiv, map(add, map(add, map(mul, dq[1:], e1),
                                                       map(mul, de[1:], q1)),
                                             map(mul, de, qn)), e0), repeat(2)))
        q = qn
    return row, bounds


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
