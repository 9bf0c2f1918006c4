"""Independent references the benchmark checks heulag's outputs against.

Nothing here calls heulag's numerics: closed forms go through mpmath's builtin
Hurwitz zeta, the moment matrix and the series transforms are evaluated in
exact rational arithmetic, and Pade approximants come from mpmath's own
``pade``. Inputs (model ids, exact series coefficients) are plain data.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from mpmath import ln, log10, mp, mpf, pade, sqrt, zeta


def agree_digits(value, reference, cap: int) -> float:
    """-log10 of the relative error of value against reference, in [0, cap]."""
    with mp.workdps(cap + 30):
        err = abs(mpf(value) - mpf(reference))
        if err == 0:
            return float(cap)
        rel = err / abs(mpf(reference))
        return float(min(cap, max(0, -log10(rel))))


def to_fraction(x) -> Fraction:
    """The exact rational value of an mpf, at whatever precision it carries."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return Fraction(man * 2 ** exp) if exp >= 0 else Fraction(man, 2 ** -exp)


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(str(x))


def _to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# Closed forms through mpmath's builtin zeta(s, a, derivative).
# ---------------------------------------------------------------------------

def closed_form(model: str, beta: str, dps: int) -> mpf:
    """f_s(beta) or f_SD(beta) at dps decimal digits from mpmath builtins."""
    with mp.workdps(dps + 30):
        b = mpf(beta)
        rb = sqrt(b)
        lb = ln(b)
        if model == "spin0":
            nu = (1 + rb) / (2 * rb)
            v = (b * lb / 12 - lb / 4 + b * (ln(4) / 12 - mpf(1) / 6)
                 - ln(4) / 4 - mpf(1) / 4 - 4 * b * zeta(-1, nu, 1))
        elif model == "spin12":
            q = 1 / (2 * rb)
            v = (4 * b * zeta(-1, q, 1) + mpf(1) / 4 - b / 3
                 - b * (ln(16) + 2 * lb) * (mpf(-1) / 12 + 1 / (4 * rb) - 1 / (8 * b)))
        elif model == "sd":
            q = 1 / rb
            v = (zeta(-1, q, 1) - q * zeta(0, q, 1)
                 - lb * (1 / (4 * b) - mpf(1) / 24) - 3 / (4 * b))
        else:
            raise ValueError(f"unknown model {model!r}")
    with mp.workdps(dps):
        return +v


# ---------------------------------------------------------------------------
# The moment system in exact integers.
# ---------------------------------------------------------------------------

def moment_matrix(d: int) -> list[list[int]]:
    """P(n,m) = m! 2^{2n+2} sum_k (-2)^k (2n+k+1)!/((k!)^2 (m-k)!), term by term."""
    return [[2 ** (2 * n + 2) * sum(
        (-2) ** k * comb(m, k) * (factorial(2 * n + k + 1) // factorial(k))
        for k in range(m + 1)) for m in range(d + 1)] for n in range(d + 1)]


def residual_digits(P, c, mu) -> float:
    """-log10 of the exact relative 2-norm residual ||P c - mu|| / ||mu||."""
    cf = [to_fraction(x) for x in c]
    num = sum((sum(p * x for p, x in zip(row, cf)) - m) ** 2 for row, m in zip(P, mu))
    den = sum(m * m for m in mu)
    if num == 0:
        return float("inf")
    with mp.workdps(30):
        return float(-log10(_to_mpf(num / den)) / 2)


# ---------------------------------------------------------------------------
# Series transforms of the reduced series f = beta^p sum_j a_j (-beta)^j.
# ---------------------------------------------------------------------------

def partial_sum(a, p: int, beta: str, d: int) -> Fraction:
    """Exact partial sum through order d."""
    b = _as_fraction(beta)
    return b ** p * sum(_as_fraction(a[j]) * (-b) ** j for j in range(d + 1))


def delta_transform(a, p: int, beta: str, n: int) -> Fraction:
    """Exact Weniger delta_n from its explicit sum (not the two-row recursion).

    delta_n = sum_j w_j s_j/omega_j / sum_j w_j/omega_j with
    w_j = (-1)^j C(n,j) (1+j)_{n-1}, partial sums s_j and omega_j = t_{j+1}.
    """
    b = _as_fraction(beta)
    terms = [_as_fraction(a[j]) * (-b) ** j for j in range(n + 2)]
    num = den = Fraction(0)
    s = Fraction(0)
    for j in range(n + 1):
        s += terms[j]
        w = (-1) ** j * comb(n, j) * _rising(1 + j, n - 1)
        num += w * s / terms[j + 1]
        den += w / terms[j + 1]
    return b ** p * num / den


def _rising(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x + i
    return out


class PadeReference:
    """[N/M] Pade approximant of the reduced series from mpmath.pade."""

    def __init__(self, a, p: int, N: int, M: int, digits: int):
        a = [_as_fraction(x) for x in a[:N + M + 1]]
        # The coefficients grow factorially: carry their decimal span on top of
        # the digits, plus a margin over what pade_eval itself carries.
        span = max(abs(x.numerator.bit_length() - x.denominator.bit_length()) for x in a)
        self.p = p
        self.dps = digits + int(span * 0.30103) + 80
        with mp.workdps(self.dps):
            self.num, self.den = pade([_to_mpf(x) for x in a], N, M)

    def __call__(self, beta: str) -> mpf:
        with mp.workdps(self.dps):
            b = mpf(beta)
            x = -b
            return b ** self.p * mp.polyval(self.num[::-1], x) / mp.polyval(self.den[::-1], x)


def fraction_value(q: Fraction, dps: int) -> mpf:
    with mp.workdps(dps):
        return _to_mpf(q)
