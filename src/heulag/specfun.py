"""Arbitrary-precision scalars and the special functions the toolkit is built on.

Everything numeric runs on mpmath. Public operations take a PrecisionContext,
evaluate at ``digits + guard`` decimal digits internally and round the result
to ``digits``. The underscore-prefixed helpers operate at whatever precision
is ambient (``mp.dps``) and are shared by the other modules, which manage
their own working precision.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, mpc, mpf, ln, pi

from .errors import DomainError, PoleError

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
            fresh = [
                Fraction((-1) ** (j) * tang[j] * (2 * (j + 1)),
                         4 ** (j + 1) * (4 ** (j + 1) - 1))
                for j in range(n)
            ]
            _bern_even.clear()
            _bern_even.extend(fresh)
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

_EM_MAX_CORRECTIONS = 600


def _em_shift(a: mpf) -> int:
    # Tail corrections decay like e^{-2*pi*(a+N)}; put a+N past digits*ln10/(2*pi).
    target = mp.dps * ln(10) / (2 * pi)
    return max(0, int(target - a) + 8)


def _hurwitz_zeta(s: mpf, a: mpf, deriv: bool = False) -> mpf:
    """Euler-Maclaurin zeta(s, a), or d/ds zeta(s, a) when deriv is set.

    Adaptive: the power-sum shift N is sized to ambient precision, correction
    terms are added until below the ambient tolerance (or they start growing,
    which for the asymptotic tail means no further gain is available).
    """
    s = mpf(s)
    a = mpf(a)
    N = _em_shift(a)
    tol = mpf(10) ** (-(mp.dps + 5))
    total = mpf(0)
    for k in range(N):
        base = a + k
        t = base ** (-s)
        total += (-ln(base) * t) if deriv else t
    z = a + N
    lz = ln(z)
    if deriv:
        # d/ds [ z^{1-s}/(s-1) ] and d/ds [ z^{-s}/2 ]
        total += -z ** (1 - s) * (lz * (s - 1) + 1) / (s - 1) ** 2
        total += -lz * z ** (-s) / 2
    else:
        total += z ** (1 - s) / (s - 1)
        total += z ** (-s) / 2
    # Correction sum: B_{2j}/(2j)! * (s)_{2j-1} * z^{-s-2j+1}, differentiated
    # term-wise when deriv is set. The Pochhammer value/derivative pair is
    # built iteratively so vanishing factors at s in {0, -1} are exact.
    p = mpf(1)
    pd = mpf(0)
    nfac = 0
    zpow = z ** (-s - 1)
    z2 = z * z
    prev = None
    for j in range(1, _EM_MAX_CORRECTIONS):
        while nfac < 2 * j - 1:
            p, pd = p * (s + nfac), pd * (s + nfac) + p
            nfac += 1
        coef = _to_mpf(_bernoulli_even(j) / factorial(2 * j))
        term = coef * (pd - lz * p) * zpow if deriv else coef * p * zpow
        total += term
        zpow /= z2
        mag = abs(term)
        if mag < tol:
            break
        if prev is not None and mag > prev:
            break
        prev = mag
    return total


def hurwitz_zeta(s, a, ctx: PrecisionContext) -> mpf:
    """Hurwitz zeta(s, a) for real s != 1 and a > 0."""
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


# ---------------------------------------------------------------------------
# Log-gamma via the Stirling series with argument shift.
# ---------------------------------------------------------------------------

def _ln_gamma(a: mpf) -> mpf:
    a = mpf(a)
    shift = _em_shift(a)
    z = a + shift
    total = (z - mpf(1) / 2) * ln(z) - z + ln(2 * pi) / 2
    tol = mpf(10) ** (-(mp.dps + 5))
    zpow = z
    z2 = z * z
    prev = None
    for j in range(1, _EM_MAX_CORRECTIONS):
        coef = _bernoulli_even(j)
        term = _to_mpf(Fraction(coef, (2 * j) * (2 * j - 1))) / zpow
        total += term
        zpow *= z2
        mag = abs(term)
        if mag < tol or (prev is not None and mag > prev):
            break
        prev = mag
    for i in range(shift):
        total -= ln(a + i)
    return total


def ln_gamma(a, ctx: PrecisionContext) -> mpf:
    """ln Gamma(a) for a > 0."""
    with ctx.work():
        a = _to_mpf(a)
        if a <= 0:
            raise DomainError(f"ln_gamma requires a > 0, got {a}")
        v = _ln_gamma(a)
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
