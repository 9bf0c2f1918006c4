"""Baseline resummation methods: Pade approximants and the Weniger delta
transformation, both in arbitrary precision on the reduced alternating series.

Both act on S(x) = sum_j a_j x^j at x = -beta and multiply back the model's
beta-power prefactor (beta^2 for spins, beta for SD). The reduced-series
coefficients grow factorially, so solves run at a precision extended by the
coefficient span.
"""
from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DegeneracyError, DomainError, PoleError
from .models import SeriesCoefficients
from .specfun import PrecisionContext, _to_beta, _to_mpf

__all__ = ["PadeSpec", "pade_eval", "weniger_delta"]


@dataclass(frozen=True)
class PadeSpec:
    """Numerator/denominator degrees of an [N/M] approximant on the reduced series."""

    N: int
    M: int

    @property
    def coefficients_needed(self) -> int:
        return self.N + self.M + 1


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

    Denominator coefficients (q_0 = 1) come from the Toeplitz system
    sum_{i=1}^{M} q_i a_{N+j-i} = -a_{N+j}, j = 1..M, solved by LU in BigReal;
    the numerator follows by convolution.
    """
    if N < 0 or M < 0:
        raise DomainError(f"degrees must be >= 0, got N={N}, M={M}")
    need = N + M + 1
    if series.count < need:
        raise DomainError(
            f"series has {series.count} coefficients, [N/M]=[{N}/{M}] needs {need}")
    dps = ctx.workdps + _span_digits(series, need) + 10
    with mp.workdps(dps):
        beta = _to_beta(beta)
        a = [_to_mpf(f) for f in series.a[:need]]
        q = [mpf(1)] + (_toeplitz_solve(a, N, M) if M else [])
        p = []
        for j in range(N + 1):
            acc = mpf(0)
            for i in range(min(j, M) + 1):
                acc += q[i] * a[j - i]
            p.append(acc)
        x = -beta
        num = mpf(0)
        for cj in reversed(p):
            num = num * x + cj
        den = mpf(0)
        for cj in reversed(q):
            den = den * x + cj
        scale = max(abs(c) for c in q) * max(abs(x), mpf(1)) ** M
        if abs(den) <= scale * mpf(10) ** (-(dps - 10)):
            raise PoleError(f"Pade denominator vanishes at beta={beta}")
        v = beta ** series.model.series_prefactor_power * num / den
    return ctx.round(v)


def _toeplitz_solve(a: list[mpf], N: int, M: int) -> list[mpf]:
    """Solve for q_1..q_M; raises DegeneracyError on a singular system."""
    rows = [[(a[N + j - i] if N + j - i >= 0 else mpf(0)) for i in range(1, M + 1)]
            for j in range(1, M + 1)]
    rhs = [-a[N + j] for j in range(1, M + 1)]
    n = M
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[piv][k] == 0:
            raise DegeneracyError(
                f"Toeplitz system singular at working precision (column {k})")
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            rhs[k], rhs[piv] = rhs[piv], rhs[k]
        akk = rows[k][k]
        for i in range(k + 1, n):
            lam = rows[i][k] / akk
            if lam:
                for j in range(k + 1, n):
                    rows[i][j] -= lam * rows[k][j]
                rhs[i] -= lam * rhs[k]
            rows[i][k] = mpf(0)
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        for j in range(k + 1, n):
            acc -= rows[k][j] * rhs[j]
        rhs[k] = acc / rows[k][k]
    return rhs


def weniger_delta(series: SeriesCoefficients, n: int, beta,
                  ctx: PrecisionContext) -> mpf:
    """Delta transformation of order n with first-neglected-term remainder
    estimates; needs the n+2 leading coefficients.

    Runs the numerically stable two-row recursion on numerator and denominator
    arrays built from partial sums s_0..s_n and omega_j = t_{j+1}, then scales
    by the model's beta-power prefactor (the transformation commutes with the
    overall scale).
    """
    if n < 0:
        raise DomainError(f"weniger_delta requires n >= 0, got {n}")
    if series.count < n + 2:
        raise DomainError(
            f"series has {series.count} coefficients, delta_{n} needs {n + 2}")
    dps = ctx.workdps + _span_digits(series, n + 2) + 10
    with mp.workdps(dps):
        beta = _to_beta(beta)
        x = -beta
        terms = []
        xp = mpf(1)
        for j in range(n + 2):
            terms.append(_to_mpf(series.a[j]) * xp)
            xp *= x
        num = []
        den = []
        s = mpf(0)
        for j in range(n + 1):
            s += terms[j]
            omega = terms[j + 1]
            if omega == 0:
                raise DegeneracyError(f"vanishing remainder estimate at j={j}")
            num.append(s / omega)
            den.append(1 / omega)
        for k in range(n):
            new_num = []
            new_den = []
            for j in range(n - k):
                if j + k == 0:
                    c = mpf(1)
                else:
                    c = mpf((1 + j + k) * (j + k)) / ((1 + j + 2 * k) * (j + 2 * k))
                new_num.append(num[j + 1] - c * num[j])
                new_den.append(den[j + 1] - c * den[j])
            num, den = new_num, new_den
        if den[0] == 0:
            raise DegeneracyError(f"delta_{n} denominator vanished at beta={beta}")
        v = beta ** series.model.series_prefactor_power * num[0] / den[0]
    return ctx.round(v)
