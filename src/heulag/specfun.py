"""The working-precision context and the special functions the toolkit is
built on.

Everything numeric runs on mpmath. The underscore-prefixed helpers operate at
whatever precision is ambient (``mp.dps``) and are shared by the other
modules, which manage their own working precision.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from mpmath import mp, mpf, ln

from .errors import DomainError, OracleFailureError

__all__ = ["PrecisionContext"]


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits plus guard digits.

    All operations evaluate at digits+guard and round results to digits.
    """

    digits: int
    guard: int = 20

    def __post_init__(self):
        if self.digits < 30:
            raise DomainError(f"digits must be >= 30, got {self.digits}")
        if self.guard < 0:
            raise DomainError(f"guard must be >= 0, got {self.guard}")

    @property
    def workdps(self) -> int:
        return self.digits + self.guard

    @contextmanager
    def work(self, extra: int = 0):
        """Ambient-precision scope at digits+guard (+extra) decimal digits."""
        with mp.workdps(self.workdps + extra):
            yield

    def round(self, value):
        """Round a value to the context's nominal precision."""
        with mp.workdps(self.digits):
            return +value


def _to_mpf(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def _to_beta(x, name: str = "beta") -> mpf:
    """Convert a field-strength parameter; DomainError unless finite and > 0."""
    try:
        v = _to_mpf(x)
    except (TypeError, ValueError):
        raise DomainError(f"invalid {name} value: {x!r}") from None
    if not mp.isfinite(v):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if v <= 0:
        raise DomainError(f"{name} must be > 0, got {x!r} "
                          "(the electric-background continuation is out of scope)")
    return v


# ---------------------------------------------------------------------------
# Bernoulli numbers: exact rationals via the tangent-number triangle.
# ---------------------------------------------------------------------------

_bern_lock = threading.Lock()
_bern_even: list[Fraction] = []  # _bern_even[k-1] = B_{2k}


def _tangent_numbers(n: int) -> list[int]:
    """First n tangent numbers T_1..T_n by the integer triangle recurrence."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _bernoulli_even(k: int) -> Fraction:
    """Exact B_{2k} for k >= 1, cached; growth serialized, reads lock-free afterwards."""
    if 0 < k <= len(_bern_even):
        return _bern_even[k - 1]
    if k < 1:  # a negative index would read the cache from its end
        raise DomainError(f"B_2k needs k >= 1, got {k}")
    with _bern_lock:
        if k > len(_bern_even):
            n = max(k, 2 * len(_bern_even) + 8)
            tang = _tangent_numbers(n)
            # append only: a reader that saw the old length still finds its entry
            _bern_even.extend(
                Fraction((-1) ** (j) * tang[j] * (2 * (j + 1)),
                         4 ** (j + 1) * (4 ** (j + 1) - 1))
                for j in range(len(_bern_even), n))
    return _bern_even[k - 1]


# ---------------------------------------------------------------------------
# Digamma at integers, Euler's constant.
# ---------------------------------------------------------------------------

def _euler_gamma() -> mpf:
    return +mp.euler


def _digamma_int(m: int) -> mpf:
    # psi(m) = -gamma + H_{m-1}; harmonic sum as an exact rational first
    h = Fraction(0)
    for j in range(1, m):
        h += Fraction(1, j)
    return -_euler_gamma() + _to_mpf(h)


# ---------------------------------------------------------------------------
# The first-argument derivative of Hurwitz zeta by Euler-Maclaurin summation.
# ---------------------------------------------------------------------------

def _em_plan(a: mpf, s: int) -> tuple[int, int, int]:
    """Shift N, correction count J and extra working digits at ambient
    precision, for d/ds zeta(s, a) at s in {0, -1}.

    Correction j is of size B_2j/(2j)! F_j z^{1-s-2j} at z = a + N, with F_j
    = |(s)_{2j-1}| less its vanishing factor. As |B_2j| <= 4 (2j)!/(2 pi)^2j,
    it is at most 4 F_j z^{1-s}/(2 pi z)^2j (Johansson, arXiv:1309.2877). z is
    put near dps/2 and J is the last j before that bound falls below
    10^-(dps+5); OracleFailureError if the bound grows first. The extra digits
    cover terms of size z^{1-s} cancelling to a result of size
    max(a, 1)^{1-s}.
    """
    N = max(0, int(mp.dps / 2 - a) + 1)
    lz, la = float(ln(a + N, prec=53)), float(ln(a, prec=53))
    head = math.log(4) + (1 - s) * lz
    log_f, prev = 0.0, math.inf
    for j in count(1):
        for i in (2 * j - 3, 2 * j - 2):
            f = abs(s + i) if i >= 0 else 1
            log_f += math.log(f) if f else 0.0
        bound = head + log_f - 2 * j * (math.log(2 * math.pi) + lz)
        if bound < -(mp.dps + 5) * math.log(10):
            cancel = (1 - s) * (lz - max(0.0, la))
            return N, j - 1, int(cancel / math.log(10)) + 3
        if bound > prev:
            raise OracleFailureError(f"Euler-Maclaurin terms for zeta'({s}, a) "
                                     f"grow before they reach 1e-{mp.dps + 5}")
        prev = bound


def _bernoulli_over(j: int, d: int) -> mpf:
    """B_2j / d at ambient precision."""
    b = _bernoulli_even(j)
    return mpf(b.numerator) / (b.denominator * d)


def _hurwitz_zeta(s: int, a: mpf) -> mpf:
    """d/ds zeta(s, a) at s in {0, -1}, by Euler-Maclaurin summation.

    No logarithm per power-sum term: with the products p = prod_{k<N} (a+k)
    and q = prod_{k<N} (a+k)^{k+1}, built from running suffix products, the
    power sum is -ln p at s = 0 and -(ln q + (a-1) ln p) at s = -1. The
    corrections are (-1)^s B_2j (2j-2+s)!/(2j)! z^{1-s-2j} for j >= 1 - s,
    one Horner sum in 1/z^2.
    """
    a = mpf(a)
    N, J, extra = _em_plan(a, s)
    with mp.extradps(extra):
        z = a + N
        w = 1 / (z * z)
        p = q = mpf(1)
        for k in reversed(range(N)):
            p *= a + k  # prod_{i >= k} (a + i)
            q *= p      # prod_{i >= k} (a + i)^{i - k + 1}
        h = mpf(0)
        for j in range(J, -s, -1):
            d = 2 * j * (2 * j - 1) * (1 if s == 0 else 2 - 2 * j)
            h = (h + _bernoulli_over(j, d)) * w
        lz = ln(z)
        if s == 0:
            v = -ln(p) + (z - mpf(1) / 2) * lz - z + z * h
        else:
            v = (-(ln(q) + (a - 1) * ln(p)) + ((z - 1) * z / 2 + mpf(1) / 12) * lz
                 - z * z / 4 + mpf(1) / 12 + h)
    return +v
