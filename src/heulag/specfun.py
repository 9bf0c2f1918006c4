"""The working-precision context and the special functions the toolkit is
built on.

Everything numeric runs on mpmath under one precision plan. The only scope
that sets the working precision is PrecisionContext.work. Helpers, here and
in the other modules, read the ambient precision (``mp.dps``) and may only
raise it relatively (``mp.extradps``), never set it.

mpmath's precision is one value for the whole process, so a work scope holds
_lock, the package's one lock, throughout: threads are serialized per scope,
and caches filled only inside scopes need no more. The Bernoulli cache also
grows outside them and takes _lock itself; the lock is reentrant, as scopes
nest. Between scopes a value that is kept is exact or rounded at a
precision its call names (``dps=``), as PrecisionContext.round does.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar

from mpmath import mp, mpf, ln
from mpmath.libmp import from_man_exp

from .errors import DomainError, OracleFailureError

__all__ = ["PrecisionContext"]

_lock = threading.RLock()


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits: operations evaluate at digits plus
    guard (a fixed 20) decimal digits and round results to digits."""

    digits: int
    guard: ClassVar[int] = 20

    def __post_init__(self):
        if isinstance(self.digits, bool) or not isinstance(self.digits, int):
            raise DomainError(f"digits must be an int, got {self.digits!r}")
        if self.digits < 30:
            raise DomainError(f"digits must be >= 30, got {self.digits}")

    @property
    def workdps(self) -> int:
        return self.digits + self.guard

    @contextmanager
    def work(self, extra: int = 0):
        """Ambient-precision scope at digits+guard+extra decimal digits; extra
        may be negative, as for the quadrature oracle (digits + 10)."""
        with _lock, mp.workdps(self.workdps + extra):
            yield

    def round(self, value):
        """Round a value, real or complex, to the context's nominal precision;
        the ambient precision is neither read nor set."""
        return mp.fmul(value, 1, dps=self.digits)


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

_bern_even: list[Fraction] = []  # _bern_even[k-1] = B_{2k}
_tangent_edge: list[int] = []  # the triangle's last column after each pass


def _extend_tangents(edge: list[int], n: int) -> list[int]:
    """Tangent numbers T_{m+1}..T_n by the integer triangle recurrence, where
    m = len(edge) and edge[k-1] is column m of the triangle after pass k (the
    initial values (j-1)! are pass 1). Pass k updates column j >= k from
    column j - 1 of the same pass, so columns m+1..n need only the edge:
    O(n^2 - m^2) updates. The edge is replaced by column n's passes."""
    m = len(edge)
    t = [edge[0] if m else 0] + [math.factorial(j - 1) for j in range(m + 1, n + 1)]
    new_edge, tang = [t[-1]], []
    for k in range(2, n + 1):
        if k <= m:
            t[0] = edge[k - 1]
        for i in range(max(k - m, 1), len(t)):  # t[i] is column m + i
            t[i] = (i + m - k) * t[i - 1] + (i + m - k + 2) * t[i]
        new_edge.append(t[-1])
        if k > m:
            tang.append(t[k - m])
    edge[:] = new_edge
    return tang if m else [1, *tang]


def _bernoulli_even(k: int) -> Fraction:
    """Exact B_{2k} for k >= 1, cached under _lock."""
    if k < 1:  # a negative index would read the cache from its end
        raise DomainError(f"B_2k needs k >= 1, got {k}")
    with _lock:
        n = len(_bern_even)
        if k > n:
            if len(_tangent_edge) != n:  # the cache was replaced: start the triangle over
                _tangent_edge.clear()
            tang = _extend_tangents(_tangent_edge, k)[-(k - n):]
            _bern_even.extend(
                Fraction((-1) ** j * t * (2 * (j + 1)), 4 ** (j + 1) * (4 ** (j + 1) - 1))
                for j, t in enumerate(tang, n))
        return _bern_even[k - 1]


# ---------------------------------------------------------------------------
# The first-argument derivative of Hurwitz zeta by Euler-Maclaurin summation.
# ---------------------------------------------------------------------------

def _em_plan(a: mpf, s: int) -> tuple[int, int, int]:
    """Shift N, correction count J and extra working digits at ambient
    precision, for d/ds zeta(s, a) at s in {0, -1}.

    Correction j is of size B_2j/(2j)! F_j z^{1-s-2j} at z = a + N, with F_j
    = |(s)_{2j-1}| less its vanishing factor, that is (2j-2+s)!. As |B_2j| <=
    4 (2j)!/(2 pi)^2j, it is at most 4 F_j z^{1-s}/(2 pi z)^2j (Johansson,
    arXiv:1309.2877). z is put near dps/2 and J is the last j before that
    bound falls below 10^-(dps+5); OracleFailureError if the bound grows
    first. The bound falls, then grows, so the first j where it is below the
    floor or above its value at j - 1 is found by doubling and bisection, with
    ln F_j from math.lgamma. The extra digits cover terms of size z^{1-s}
    cancelling to a result of size max(a, 1)^{1-s}.
    """
    dps = mp.dps
    N = max(0, int(dps / 2 - a) + 1)
    lz, la = float(ln(a + N, prec=53)), float(ln(a, prec=53))
    head, step = math.log(4) + (1 - s) * lz, math.log(2 * math.pi) + lz
    floor = -(dps + 5) * math.log(10)

    def bound(j):
        return head + (math.lgamma(2 * j - 1 + s) if 2 * j + s > 1 else 0.0) - 2 * j * step

    def stops(j):
        b = bound(j)
        return b < floor or (j > 1 and b > bound(j - 1))

    hi = 1
    while not stops(hi):
        hi *= 2
    j = hi // 2 + 1 + bisect_left(range(hi // 2 + 1, hi), True, key=stops)
    if bound(j) >= floor:
        raise OracleFailureError(f"Euler-Maclaurin terms for zeta'({s}, a) "
                                 f"grow before they reach 1e-{dps + 5}")
    cancel = (1 - s) * (lz - max(0.0, la))
    return N, j - 1, int(cancel / math.log(10)) + 3


@lru_cache(maxsize=32)
def _em_corrections(s: int, F: int, L: int) -> list[int]:
    """The Euler-Maclaurin correction coefficients of d/ds zeta(s, a) as
    tapered fixed-point integers: entry t is c_j = B_2j / (2j (2j-1)
    (2-2j)^[s = -1]) at j = t + 1 - s, times 2^(F - t L), floored by one
    integer division. _zeta_sderivs multiplies entry t by w^t <= 2^-tL, so
    the t L bits left out would fall below 2^-F.

    Made empty; _zeta_sderivs fills it upward to the count it needs, inside
    a precision scope and so under _lock, and every entry depends on
    (s, t, F, L) alone: one table serves every a with the same (s, F, L),
    whatever calls came before. A baselines pass of the benchmark fills
    16-17 tables with 2220-2312 coefficients, about 0.3 MB. The bound of 32
    tables keeps them all with room for a second mix of precisions, and caps
    the cache near 5 MB even if every table were a 1000-digit one.
    """
    return []


def _zeta_sderivs(a: mpf, orders: tuple[int, ...]) -> tuple[mpf, ...]:
    """d/ds zeta(s, a) for each s in orders, a subset of {-1, 0}, from one
    Euler-Maclaurin pass at z = a + N.

    The orders share N, z, w = 1/z^2 and the product p = prod_{k<N} (a+k), at
    the largest working precision any of them needs. The product q =
    prod_{k<N} (a+k)^{k+1}, built from running suffix products, is built only
    when s = -1 is asked for. So the power sum takes no logarithm per term:
    it is -ln p at s = 0 and -(ln q + (a-1) ln p) at s = -1. The corrections
    are (-1)^s B_2j (2j-2+s)!/(2j)! z^{1-s-2j} for j >= 1 - s.

    Everything runs at F bits: the working precision plus G = 2 bitlen(N + J)
    + 16 guard bits, with J the correction count of s = -1 if it is asked
    for, else of s = 0. p, q and the corrections are Python integers. p and
    q are a mantissa cut to F bits after each product, and an exponent. Each
    factor a + k with k >= 1 is at least 1 and is floored to F fraction bits;
    a itself enters through its exact mantissa and exponent, so a tiny a
    costs no more than a = 1. So p's relative error is below 3N 2^-F and q's
    below 3 (N+1)^2 2^-F. The corrections are one Horner pass
    h = ((h << L) + C_t) W >> F from t = J - 1 + s down to 0, with W =
    floor(2^F w) and L = bitlen(floor(min(z, dps))^2) - 1, so that
    2^L w <= 1: term t is carried to the F - t L fraction bits that its w^t
    leaves, at the scale of the table of _em_corrections. While the terms decrease, as J's
    bound makes them, each step adds below 1.1 2^-F to h's absolute error,
    below 2 J 2^-F in all. Against terms of size z^{1-s}, G leaves more than
    16 bits above these errors, and the working precision's extra digits
    cover the cancellation. p, q and h become mpf once each, for the
    logarithms and the assembly.

    A value depends only on s, a, the precision and whether s = 0 is asked
    for with s = -1: then it runs at s = -1's working precision and F and
    lands within 1 ulp of the single call, while s = -1 is the single call's
    value to the bit.
    """
    a = mpf(a)
    dps = mp.dps
    plans = [_em_plan(a, s) for s in orders]
    N = plans[0][0]  # max(0, int(dps/2 - a) + 1) for every s
    # the tables fill upward from j = 1 - s: grow the Bernoulli cache once,
    # to the largest count, not in doubling steps on the way up
    _bernoulli_even(max(J for _, J, _ in plans))
    # s = -1's J when it is asked for, so that its value does not read s = 0's
    guard = 2 * (N + plans[orders.index(min(orders))][1]).bit_length() + 16
    with mp.extradps(max(extra for _, _, extra in plans)), mp.extraprec(guard):
        F = mp.prec
        _, m, e, _ = a._mpf_
        af = m << (e + F) if e + F >= 0 else m >> -(e + F)  # floor(a 2^F)
        pm = qm = 1  # p = pm 2^pe, q = qm 2^qe
        pe = qe = 0
        with_q = -1 in orders
        for k in range(N - 1, -1, -1):
            # prod_{i >= k} (a + i), then prod_{i >= k} (a + i)^{i - k + 1}
            pm, pe = (pm * (af + (k << F)), pe - F) if k else (pm * m, pe + e)
            cut = max(pm.bit_length() - F, 0)
            pm, pe = pm >> cut, pe + cut
            if with_q:
                qm, qe = qm * pm, qe + pe
                cut = max(qm.bit_length() - F, 0)
                qm, qe = qm >> cut, qe + cut
        z = a + N
        zm, ze = (af + (N << F), -F) if N else (m, e)
        W = (1 << (F - 2 * ze)) // (zm * zm) if 2 * ze <= F else 0
        zi = dps if a >= dps else min(N + int(a), dps)  # floor(min(z, dps))
        L = (zi * zi).bit_length() - 1
        lp, lz = ln(mp.make_mpf(from_man_exp(pm, pe))), ln(z)
        values = []
        for s, (_, J, _) in zip(orders, plans):
            c = _em_corrections(s, F, L)
            for t in range(len(c), J + s):
                j = t + 1 - s
                b = _bernoulli_even(j)
                d = 2 * j * (2 * j - 1) * (1 if s == 0 else 2 - 2 * j)
                up = F - t * L
                c.append((b.numerator << max(up, 0)) // (b.denominator * d << max(-up, 0)))
            h = 0
            for t in range(J + s - 1, -1, -1):
                h = ((h << L) + c[t]) * W >> F
            h = mp.make_mpf(from_man_exp(h, -F))
            if s == 0:
                v = -lp + (z - mpf(1) / 2) * lz - z + z * h
            else:
                lq = ln(mp.make_mpf(from_man_exp(qm, qe)))
                v = (-(lq + (a - 1) * lp) + ((z - 1) * z / 2 + mpf(1) / 12) * lz
                     - z * z / 4 + mpf(1) / 12 + h)
            values.append(v)
    return tuple(+v for v in values)
