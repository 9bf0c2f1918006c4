"""Arbitrary-precision scalars and the special functions the toolkit is built on.

Everything numeric runs on mpmath. Public operations take a PrecisionContext,
evaluate at ``digits + guard`` decimal digits internally and round the result
to ``digits``. The underscore-prefixed helpers operate at whatever precision
is ambient (``mp.dps``) and are shared by the other modules, which manage
their own working precision.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from mpmath import mp, mpc, mpf, ln, pi

from .errors import DomainError, OracleFailureError, PoleError

__all__ = [
    "BigComplex",
    "BigReal",
    "PrecisionContext",
    "bernoulli",
    "euler_gamma",
    "digamma_int",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "ln_gamma",
    "laguerre_eval",
]

# Arbitrary-precision scalars. mpmath's types are used directly so every value
# interoperates with the working-precision machinery; the aliases name the
# roles they play in this package's signatures.
BigReal = mpf
BigComplex = mpc


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
    """Exact B_{2k}, cached; growth serialized, reads lock-free afterwards."""
    if k <= len(_bern_even):
        return _bern_even[k - 1]
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


def bernoulli(n: int) -> Fraction:
    """Exact rational Bernoulli number B_n for even n >= 2."""
    if n < 2 or n % 2:
        raise DomainError(f"bernoulli requires even n >= 2, got {n}")
    return _bernoulli_even(n // 2)


# ---------------------------------------------------------------------------
# Digamma at integers, Euler's constant.
# ---------------------------------------------------------------------------

def _euler_gamma() -> mpf:
    return +mp.euler


def euler_gamma(ctx: PrecisionContext) -> mpf:
    """Euler-Mascheroni constant gamma at context precision."""
    with ctx.work():
        v = _euler_gamma()
    return ctx.round(v)


def _digamma_int(m: int) -> mpf:
    # psi(m) = -gamma + H_{m-1}; harmonic sum as an exact rational first
    h = Fraction(0)
    for j in range(1, m):
        h += Fraction(1, j)
    return -_euler_gamma() + _to_mpf(h)


def digamma_int(m: int, ctx: PrecisionContext) -> mpf:
    """Digamma function at a positive integer argument."""
    if m < 1:
        raise DomainError(f"digamma_int requires m >= 1, got {m}")
    with ctx.work():
        v = _digamma_int(m)
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Hurwitz zeta and its first-argument derivative by Euler-Maclaurin summation.
# ---------------------------------------------------------------------------

def _em_plan(a: mpf, s, deriv: bool) -> tuple[int, int, int]:
    """Shift N, correction count J and extra working digits at ambient precision.

    Correction j is B_2j/(2j)! F_j z^{1-s-2j} at z = a + N, F_j = |(s)_{2j-1}|
    (for a derivative at s in {0, -1}: without its vanishing factor). As
    |B_2j| <= 4 (2j)!/(2 pi)^2j, it is at most 4 F_j z^{1-s}/(2 pi z)^2j
    (Johansson, arXiv:1309.2877). z is put near (dps + s/pi)/2 and J is the
    last j before that bound falls below 10^-(dps+5), relative to the result
    when s > 1 (which exceeds both a^-s and z^{1-s}/(s-1));
    OracleFailureError if the bound grows first. The extra digits cover terms
    of size z^{1-s} cancelling to a result of size max(a, 1)^{1-s}.
    """
    N = max(0, int(mp.dps / 2 + max(0.0, float(s)) / (2 * math.pi) - a) + 1)
    lz, la = float(ln(a + N, prec=53)), float(ln(a, prec=53))
    scale = max(-s * la, (1 - s) * lz - math.log(float(s - 1))) if s > 1 else 0.0
    head = math.log(4) + float(1 - s) * lz - float(scale)
    log_f, prev = 0.0, math.inf
    for j in count(1):
        for i in (2 * j - 3, 2 * j - 2):
            f = abs(float(s + i)) if i >= 0 else 1  # s + i first keeps s's distance to -i
            log_f += math.log(f) if f else (0.0 if deriv else -math.inf)
        bound = head + log_f - 2 * j * (math.log(2 * math.pi) + lz)
        if bound < -(mp.dps + 5) * math.log(10):
            cancel = max(0.0, float(1 - s)) * (lz - max(0.0, la))
            return N, j - 1, int(cancel / math.log(10)) + 3
        if bound > prev:
            raise OracleFailureError(f"Euler-Maclaurin terms for zeta({mp.nstr(s, 10)}, a) "
                                     f"grow before they reach 1e-{mp.dps + 5}")
        prev = bound


def _bernoulli_over(j: int, d: int) -> mpf:
    """B_2j / d at ambient precision."""
    b = _bernoulli_even(j)
    return mpf(b.numerator) / (b.denominator * d)


def _hurwitz_zeta(s: mpf, a: mpf, deriv: bool = False) -> mpf:
    """Euler-Maclaurin zeta(s, a), or d/ds zeta(s, a) at s in {0, -1} when deriv is set.

    The derivative takes no logarithm per power-sum term: with the products
    p = prod_{k<N} (a+k) and q = prod_{k<N} (a+k)^{k+1}, built from running
    suffix products, the power sum is -ln p at s = 0 and -(ln q + (a-1) ln p)
    at s = -1. Its corrections are (-1)^s B_2j (2j-2+s)!/(2j)! z^{1-s-2j}
    for j >= 1 - s, one Horner sum in 1/z^2.
    """
    s = int(s) if deriv else mpf(s)
    a = mpf(a)
    N, J, extra = _em_plan(a, s, deriv)
    with mp.extradps(extra):
        z = a + N
        w = 1 / (z * z)
        if not deriv:
            t = z ** (1 - s)
            v = mp.fsum((a + k) ** -s for k in range(N)) + t * (1 / (s - 1) + 1 / (2 * z))
            p = s / 2  # (s)_{2j-1}/(2j)!
            for j in range(1, J + 1):
                t *= w
                v += _bernoulli_over(j, 1) * p * t
                p *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
        else:
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


def hurwitz_zeta(s, a, ctx: PrecisionContext) -> mpf:
    """Hurwitz zeta(s, a) for real s != 1 and a > 0.

    For s < 0 the Euler-Maclaurin tolerance is absolute, 10^-(dps+5), while
    |zeta(s, a)| grows factorially with -s (|zeta(-200.5, 1)| ~ 2.3e215). For
    large -s the corrections grow before they reach it, and this raises
    OracleFailureError: at 30 digits from about s = -50, at 100 from about
    s = -80. No caller in the package needs s < -1.
    """
    with ctx.work():
        s = _to_mpf(s)
        a = _to_mpf(a)
        if a <= 0:
            raise DomainError(f"hurwitz_zeta requires a > 0, got {a}")
        if s == 1:
            raise PoleError("hurwitz_zeta has a pole at s = 1")
        v = _hurwitz_zeta(s, a)
    return ctx.round(v)


def hurwitz_zeta_sderiv(s0, a, ctx: PrecisionContext) -> mpf:
    """First-argument derivative of Hurwitz zeta at s0 in {0, -1}, a > 0."""
    with ctx.work():
        s0 = _to_mpf(s0)
        a = _to_mpf(a)
        if a <= 0:
            raise DomainError(f"hurwitz_zeta_sderiv requires a > 0, got {a}")
        if s0 not in (mpf(0), mpf(-1)):
            raise DomainError(
                f"hurwitz_zeta_sderiv supports s0 in {{0, -1}}, got {s0}")
        v = _hurwitz_zeta(s0, a, deriv=True)
    return ctx.round(v)


def ln_gamma(a, ctx: PrecisionContext) -> mpf:
    """ln Gamma(a) for a > 0, by Lerch's formula zeta'(0, a) + (1/2) ln 2 pi."""
    with ctx.work():
        a = _to_mpf(a)
        if a <= 0:
            raise DomainError(f"ln_gamma requires a > 0, got {a}")
        v = _hurwitz_zeta(0, a, deriv=True) + ln(2 * pi) / 2
    return ctx.round(v)


# ---------------------------------------------------------------------------
# Laguerre polynomials by the three-term recurrence.
# ---------------------------------------------------------------------------

def _laguerre_seq(z, m: int) -> list:
    """[L_0(z), ..., L_m(z)] via (k+1)L_{k+1} = (2k+1-z)L_k - k L_{k-1}."""
    one = mpc(1) if isinstance(z, (mpc, complex)) else mpf(1)
    vals = [one]
    if m >= 1:
        vals.append(one - z)
    for k in range(1, m):
        vals.append(((2 * k + 1 - z) * vals[k] - k * vals[k - 1]) / (k + 1))
    return vals


def laguerre_eval(m: int, z, ctx: PrecisionContext):
    """Laguerre polynomial L_m(z) for m >= 0; z may be real or complex."""
    if m < 0:
        raise DomainError(f"laguerre_eval requires m >= 0, got {m}")
    with ctx.work():
        if isinstance(z, (mpc, complex)):
            z = mpc(z)
        else:
            z = _to_mpf(z)
        v = _laguerre_seq(z, m)[m]
    return ctx.round(v)
