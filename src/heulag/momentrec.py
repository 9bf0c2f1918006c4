"""Stieltjes moment problem: moments, the Laguerre-basis linear system, and
the reconstructed density rho(x) = x g(x).

The positive-power moments are exact rationals and the system matrix P(n, m)
is exact integers. P factors as a diagonal times an interpolation matrix at
the equispaced nodes 2n+1 times a Pascal matrix, so the system is solved
exactly by Newton interpolation and two changes of basis (Bjorck & Pereyra,
"Solution of Vandermonde systems of equations", Math. Comp. 24, 1970). The
exact coefficients are rounded once, at a precision raised by P's magnitude
span. A reconstruction holds only those rounded coefficients; their backward
error is derived from them when first read.

After the solve the density has one polynomial form: the exact Taylor
coefficients g_l = N_l / D of sum_m c_m L_m, integer numerators over one
denominator (_density_taylor). The extrapolant's tail convolves them, and
rho_eval reads them on the pole axis for Delta.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm

from mpmath import mp, mpf

from .errors import ConsistencyError, DomainError
from .models import ModelId, SeriesCoefficients, coefficients
from .specfun import PrecisionContext, _to_mpf

__all__ = [
    "GENERATOR_VERSION",
    "MomentVector",
    "ReconstructionCoefficients",
    "moments_from_coeffs",
    "build_P_exact",
    "solve_coeffs",
    "reconstruct",
    "residual_norm_of",
    "rho_eval",
]

# Bump when coefficient-generating code changes; persisted in cache headers.
GENERATOR_VERSION = "2"


@dataclass(frozen=True)
class MomentVector:
    """Exact moments mu_{2k}, k = 0..d, of the Stieltjes density.

    mu_{2k} equals the reduced weak-field coefficient: a_{k+2} for the spin
    models, u_k for SD. Kept rational so the ill-conditioned solve gets exact
    right-hand sides.
    """

    model: ModelId
    mu: tuple[Fraction, ...]

    def __post_init__(self):
        if any(m <= 0 for m in self.mu):
            raise ConsistencyError("moments of an alternating Stieltjes series must be > 0")

    @property
    def d(self) -> int:
        return len(self.mu) - 1


@dataclass(frozen=True)
class ReconstructionCoefficients:
    """Solved Laguerre coefficients c_m defining g(x) = e^{-x/2} sum c_m L_m(x).

    c entries are the exact solution rounded once at the span-boosted solve
    precision; digits records the nominal precision requested. residual_norm,
    the relative backward residual of the rounded c, is derived on first read.
    Nothing else is cached on the record: readers call _density_taylor.
    """

    model: ModelId
    c: tuple[mpf, ...]
    digits: int

    def __post_init__(self):
        object.__setattr__(self, "model", ModelId(self.model))

    @property
    def d(self) -> int:
        return len(self.c) - 1

    @cached_property
    def residual_norm(self) -> mpf:
        mu = moments_from_coeffs(coefficients(self.model, self.d + 1), self.d)
        return residual_norm_of(self, mu, PrecisionContext(self.digits))


def moments_from_coeffs(series: SeriesCoefficients, d: int) -> MomentVector:
    """Map the first d+1 reduced expansion coefficients to moments."""
    if series.count < d + 1:
        raise DomainError(
            f"series has {series.count} coefficients, need {d + 1}")
    return MomentVector(model=series.model, mu=tuple(series.a[: d + 1]))


@lru_cache(maxsize=4)
def build_P_exact(d: int) -> tuple[tuple[int, ...], ...]:
    """Exact integer matrix P(n,m) = m! 2^{2n+2} sum_k (-2)^k (2n+k+1)!/((k!)^2 (m-k)!).

    Row n is 2^{2n+2} (2n+1)! F_m with F_m = 2F1(-m, 2n+2; 1; 2), and Gauss's
    contiguous relation in m (DLMF 15.5.11) gives
    (m+1) P(n,m+1) = m P(n,m-1) - (4n+3) P(n,m): each entry from the two
    before it by small-integer multiplications and one exact division, O(d^2)
    steps in all.
    """
    if d < 0:
        raise DomainError(f"build_P_exact requires d >= 0, got {d}")
    rows = []
    for n in range(d + 1):
        a, prev, x = 4 * n + 3, 0, factorial(2 * n + 1) << (2 * n + 2)
        row = []
        for m in range(d + 1):
            row.append(x)
            prev, x = x, (m * prev - a * x) // (m + 1)
        rows.append(tuple(row))
    return tuple(rows)


def _taylor_shift(a: list[int]) -> list[int]:
    """a_k -> sum_m a_m C(m, k) in place: the coefficients of p(s + 1) for
    p(s) = sum_k a_k s^k, in O(d^2) integer additions."""
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] += a[k + 1]
    return a


def _magnitude_digits(rows) -> int:
    """Decimal magnitude of the largest |entry| of an integer matrix."""
    top = max(abs(x).bit_length() for row in rows for x in row)
    return int(top * 0.30103) + 1


def _exact_solve(mu: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Exact solution of P c = mu as integer numerators over one denominator.

    P = D U C^T with D = diag(2^{2n+2}), U[n][k] = (2n+1)! binom(2n+1+k, k) (-2)^k
    and the Pascal matrix C[m][k] = binom(m, k). So t_n = mu_n / (2^{2n+2} (2n+1)!)
    are the values at x_n = 2n+1 of q(x) = sum_k w_k R_k(x), R_k(x) = binom(x+k, k):
    Newton differences at the equispaced nodes give q, Horner's rule rewrites
    it in the R_k basis, y_k = w_k / (-2)^k, and c(s) = y(s - 1) inverts C^T;
    with y_k = (-1)^k z_k that is c_l = (-1)^l [z(s + 1)]_l, a Taylor shift.
    Integer form of Bjorck & Pereyra, Math. Comp. 24 (1970); O(d^2) operations
    on integers scaled by the common denominator 4^d d! lcm(denominators of t).
    """
    d = len(mu) - 1
    t = [m / (4 ** (n + 1) * factorial(2 * n + 1)) for n, m in enumerate(mu)]
    scale = lcm(*(x.denominator for x in t))
    T = [x.numerator * (scale // x.denominator) for x in t]
    for j in range(1, d + 1):  # T[j] <- j-th forward difference of T at 0
        for i in range(d, j - 1, -1):
            T[i] -= T[i - 1]
    # Newton coefficient j is T[j] / (2^j j! scale) and f = 2^{d-j} d!/j!, so
    # w is 2^d d! scale times q in the R_k basis. Horner multiplies by x - x_j
    # through (x - x_j) R_k = (k+1) R_{k+1} - (k+1+x_j) R_k.
    w, f = [0] * (d + 1), 1
    for j in range(d, -1, -1):
        x = 2 * j + 1
        for k in range(d - j, 0, -1):
            w[k] = k * w[k - 1] - (k + 1 + x) * w[k]
        w[0] = T[j] * f - (1 + x) * w[0]
        f *= 2 * j
    z = _taylor_shift([2 ** (d - k) * v for k, v in enumerate(w)])
    return [-v if k % 2 else v for k, v in enumerate(z)], 4 ** d * factorial(d) * scale


def solve_coeffs(P, mu: MomentVector, ctx: PrecisionContext) -> ReconstructionCoefficients:
    """Solve sum_m c_m P(n,m) = mu_{2n}, n = 0..d, exactly; round c once.

    The exact rational solution comes from the structured factorisation of P
    (see _exact_solve). It is rounded at a precision raised by the magnitude
    span of P, so the backward residual of the rounded coefficients (computed
    when residual_norm is first read) lands at the nominal working tolerance.
    Nothing ties ctx.digits to the number of moments: the rounding precision
    grows with P on its own, so fewer digits than moments loses nothing.
    """
    d = mu.d
    if len(P) != d + 1 or any(len(row) != d + 1 for row in P):
        raise DomainError(f"P must be {d + 1}x{d + 1} to match the moment vector")
    nums, den = _exact_solve(mu.mu)
    with ctx.work(_magnitude_digits(P) + 10):
        c = tuple(mp.fdiv(v, den) for v in nums)
    return ReconstructionCoefficients(model=mu.model, c=c, digits=ctx.digits)


def reconstruct(model: ModelId, moments: int, ctx: PrecisionContext) -> ReconstructionCoefficients:
    """Density coefficients from the model's first `moments` exact weak-field
    coefficients: the moments mu_0..mu_d (d = moments - 1) and the exact solve
    of P c = mu, rounded at ctx's precision."""
    d = moments - 1
    mu = moments_from_coeffs(coefficients(model, moments), d)
    return solve_coeffs(build_P_exact(d), mu, ctx)


def _residual(P, c, mu: MomentVector) -> mpf:
    """Relative 2-norm residual ||P c - mu|| / ||mu|| at ambient precision."""
    num = mpf(0)
    den = mpf(0)
    for n in range(mu.d + 1):
        acc = mpf(0)
        for entry, cm in zip(P[n], c):
            acc += mpf(entry) * cm
        target = _to_mpf(mu.mu[n])
        num += (acc - target) ** 2
        den += target ** 2
    return (num / den) ** mpf("0.5")


def residual_norm_of(rec: ReconstructionCoefficients, mu: MomentVector,
                     ctx: PrecisionContext) -> mpf:
    """Recompute the relative moment residual of stored coefficients."""
    if mu.d != rec.d:
        raise DomainError(
            f"moment vector of degree {mu.d} does not match reconstruction degree {rec.d}")
    exact = build_P_exact(rec.d)
    with ctx.work(_magnitude_digits(exact) + 10):
        return _residual(exact, [mpf(x) for x in rec.c], mu)


def _density_taylor(rec: ReconstructionCoefficients) -> tuple[tuple[int, ...], int]:
    """Exact (N, D) with g_l = N_l / D = (-1)^l/l! sum_m c_m C(m, l), the Taylor
    coefficients of sum_m c_m L_m. The c_m are dyadic: with e their least
    binary exponent, G_l = 2^{-e} sum_m c_m C(m, l) is a Taylor shift of the
    integers c_m 2^{-e}, D = d! 2^max(-e, 0) and N_l = (-1)^l G_l (d!/l!) 2^max(e, 0)."""
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in (c._mpf_ for c in rec.c)]
    e = min((exp for man, exp in parts if man), default=0)
    N, f = _taylor_shift([man << (exp - e) for man, exp in parts]), 1 << max(e, 0)
    for l in range(len(N) - 1, -1, -1):  # G_l -> N_l, f = (d!/l!) 2^max(e, 0)
        N[l], f = (-N[l] if l % 2 else N[l]) * f, f * l
    return tuple(N), factorial(len(N) - 1) << max(-e, 0)


def _exact_mpf(n: int) -> mpf:
    """n as an exact mpf in O(1): mpmath's int conversion strips zero bits 8 at a time."""
    return mp.ldexp(n >> (z := (n & -n).bit_length() - 1), z)


_RHO_GUARD = 40  # bits above the working precision at which the pole read starts


def _cut_horner(a, U: int, ex: int, P: int) -> tuple[int, int, int]:
    """Horner's rule for sum_k a[k] u^(K-k), u = U 2^ex, over the integers a
    (highest power first), the accumulator cut to P bits after each step:
    (S, E, x) with the exact sum within E 2^x of S 2^x. A cut drops less than
    one unit of its last kept bit; the bound E, in those units and rounded
    up, is multiplied at each step by |U| rounded up to 32 bits. With P
    above every exact partial sum's length nothing is cut and E = 0."""
    k = max(abs(U).bit_length() - 32, 0)
    Uhi = -(-abs(U) >> k)
    S, E, x = 0, 0, 0
    for c in a:
        q = x + ex
        W = (S * U << q) + c if q > 0 else S * U + (c << -q)
        r = max(W.bit_length() - P, 0)
        S, x = W >> r, min(q, 0) + r
        sh = q + k - x
        E = (E * Uhi << sh if sh >= 0 else -(-E * Uhi >> -sh)) + (r > 0)
    return S, E, x


def _rounded_sum(a, U: int, ex: int, m: int, mx: int, D: mpf) -> mpf:
    """mp.fdiv(m 2^mx s, D) at the working precision for s = sum_k a[k] u^(K-k)
    (see _cut_horner), to the bit of the exact s's: a cut pass is accepted
    when s - E and s + E round alike, which, rounding being monotone, pins
    the exact s's rounding. Otherwise the next pass keeps the working bits
    plus _RHO_GUARD plus the bits this pass lost, at least one more than P."""
    P = mp.prec + _RHO_GUARD
    while True:
        S, E, x = _cut_horner(a, U, ex, P)
        den = mp.ldexp(D, -x - mx)
        lo, hi = mp.fdiv(m * (S - E), den), mp.fdiv(m * (S + E), den)
        if lo == hi:
            return lo
        P = max(P + 1, mp.prec + _RHO_GUARD + P - S.bit_length() + E.bit_length())


def rho_eval(g: tuple[tuple[int, ...], int], y, ctx: PrecisionContext) -> tuple[mpf, mpf]:
    """The density on the pole axis, rho(iy) = iy e^{-iy/2} sum_l g_l (iy)^l, as
    (Re, Im) rounded to ctx.digits, from _density_taylor's exact g = (N, D).
    sum_l N_l (iy)^l = E + iO: Horner sums in u = -y^2 over even and odd l, each
    cut to the working precision plus _RHO_GUARD bits after every product beside
    a bound on the error the cuts make, then divided once by D at the working
    precision. A sum is accepted when both ends of its bound give the same
    quotient, so E and O are the exact sums' quotients to the bit (_rounded_sum),
    and iy e^{-iy/2} = y sin(y/2) + i y cos(y/2) multiplies E + iO."""
    N, D = g[0], _exact_mpf(g[1])
    with ctx.work():
        y = _to_mpf(y)
        if not mp.isfinite(y):
            raise DomainError(f"rho_eval needs a finite y, got {y}")
        sign, Y, ey, _ = y._mpf_
        Y = -Y if sign else Y
        E = _rounded_sum(N[::2][::-1], -Y * Y, 2 * ey, 1, 0, D)
        O = _rounded_sum(N[1::2][::-1], -Y * Y, 2 * ey, Y, ey, D)
        cos, sin = mp.cos_sin(y / 2)
        A, B = y * sin, y * cos
        re = mp.fsub(mp.fmul(A, E, exact=True), mp.fmul(B, O, exact=True))
        im = mp.fadd(mp.fmul(A, O, exact=True), mp.fmul(B, E, exact=True))
    return ctx.round(re), ctx.round(im)
