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
from functools import lru_cache
from itertools import count

from mpmath import mp, mpf, ln
from mpmath.libmp import fzero, from_int, mpf_add, mpf_div, mpf_mul, round_nearest

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
    dps = mp.dps
    N = max(0, int(dps / 2 - a) + 1)
    lz, la = float(ln(a + N, prec=53)), float(ln(a, prec=53))
    head, step = math.log(4) + (1 - s) * lz, math.log(2 * math.pi) + lz
    floor = -(dps + 5) * math.log(10)
    log_f, prev = 0.0, math.inf
    for j in count(1):
        for i in (2 * j - 3, 2 * j - 2):
            f = abs(s + i) if i >= 0 else 1
            log_f += math.log(f) if f else 0.0
        bound = head + log_f - 2 * j * step
        if bound < floor:
            cancel = (1 - s) * (lz - max(0.0, la))
            return N, j - 1, int(cancel / math.log(10)) + 3
        if bound > prev:
            raise OracleFailureError(f"Euler-Maclaurin terms for zeta'({s}, a) "
                                     f"grow before they reach 1e-{dps + 5}")
        prev = bound


_em_lock = threading.Lock()


@lru_cache(maxsize=32)
def _em_corrections(s: int, prec: int) -> list[tuple]:
    """The Euler-Maclaurin correction coefficients of d/ds zeta(s, a) at prec
    bits, as raw mpf tuples: entry j + s - 1 is B_2j / (2j (2j-1) (2-2j)^[s = -1])
    for j >= 1 - s, B_2j's numerator rounded to prec bits and divided by the
    rest, as mpf arithmetic at prec would do it.

    Made empty; _zeta_sderivs fills it upward to the count it needs, so one
    table serves every a at one working precision. Every libmp call takes
    prec, not the ambient precision, and growth is serialized by _em_lock and
    append-only: a reader that saw the old length still finds its entries,
    every entry depends on (s, j, prec) alone, and the tables are safe to
    read concurrently. A baselines pass of the benchmark fills 15-16
    tables with 2155-2236 coefficients, about 0.8 MB. The bound of 32 tables
    keeps them all with room for a second mix of precisions, and caps the
    cache near 11 MB even if every table were a 1000-digit one.
    """
    return []


def _zeta_sderivs(a: mpf, orders: tuple[int, ...]) -> tuple[mpf, ...]:
    """d/ds zeta(s, a) for each s in orders, a subset of {-1, 0}, from one
    Euler-Maclaurin pass at z = a + N.

    The orders share N, z, w = 1/z^2 and the product p = prod_{k<N} (a+k), at
    the largest working precision any of them needs. The product
    q = prod_{k<N} (a+k)^{k+1}, built from running suffix products, is built
    only when s = -1 is asked for. So the power sum takes no logarithm per
    term: it is -ln p at s = 0 and -(ln q + (a-1) ln p) at s = -1. The
    corrections are (-1)^s B_2j (2j-2+s)!/(2j)! z^{1-s-2j} for j >= 1 - s, one
    Horner sum in w over the table of _em_corrections. A value depends only on
    s, a, the precision and whether s = 0 is asked for with s = -1: then it
    runs at s = -1's higher working precision and lands within 1 ulp of the
    single call, while s = -1 is the single call's value to the bit.
    """
    a = mpf(a)
    plans = [_em_plan(a, s) for s in orders]
    N = plans[0][0]  # max(0, int(dps/2 - a) + 1) for every s
    # the tables fill upward from j = 1 - s: grow the Bernoulli cache once,
    # to the largest count, not in doubling steps on the way up
    _bernoulli_even(max(J for _, J, _ in plans))
    with mp.extradps(max(extra for _, _, extra in plans)):
        z = a + N
        w = 1 / (z * z)
        p = mpf(1)
        q = mpf(1) if -1 in orders else None
        for k in reversed(range(N)):
            p *= a + k      # prod_{i >= k} (a + i)
            if q is not None:
                q *= p      # prod_{i >= k} (a + i)^{i - k + 1}
        lp, lz = ln(p), ln(z)
        prec, rnd = mp.prec, round_nearest
        values = []
        for s, (_, J, _) in zip(orders, plans):
            c = _em_corrections(s, prec)
            if len(c) < J + s:
                with _em_lock:
                    for j in range(len(c) + 1 - s, J + 1):
                        b = _bernoulli_even(j)
                        d = 2 * j * (2 * j - 1) * (1 if s == 0 else 2 - 2 * j)
                        c.append(mpf_div(from_int(b.numerator, prec, rnd),
                                         from_int(b.denominator * d), prec, rnd))
            h = fzero
            for j in range(J, -s, -1):
                h = mpf_mul(mpf_add(h, c[j + s - 1], prec, rnd), w._mpf_, prec, rnd)
            h = mp.make_mpf(h)
            if s == 0:
                v = -lp + (z - mpf(1) / 2) * lz - z + z * h
            else:
                v = (-(ln(q) + (a - 1) * lp) + ((z - 1) * z / 2 + mpf(1) / 12) * lz
                     - z * z / 4 + mpf(1) / 12 + h)
            values.append(v)
    return tuple(+v for v in values)


def _hurwitz_zeta(s: int, a: mpf) -> mpf:
    """d/ds zeta(s, a) at s in {0, -1}, by Euler-Maclaurin summation; one
    order of _zeta_sderivs."""
    return _zeta_sderivs(a, (s,))[0]
