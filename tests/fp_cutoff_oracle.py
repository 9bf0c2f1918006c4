"""The canonical epsilon-cutoff definition of the Hadamard finite part: an
independent oracle for Galapon's closed formulas in heulag.finitepart.

Cut the integral of f(x)/x^m off at epsilon, subtract the divergent group of
terms from f's exact Taylor coefficients, and take the limit epsilon -> 0
numerically by Richardson extrapolation. It shares no arithmetic with the
closed formulas it checks.

pytest does not collect this file (its name does not start with test_);
test_finitepart.py, test_extrapolant.py and test_acceptance.py import it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from mpmath import mp, mpf, exp, ln, quad

from heulag import DomainError, OracleFailureError, PrecisionContext
from heulag.specfun import _to_mpf


@dataclass(frozen=True)
class KernelDescriptor:
    """Integrand f(x)/x^m described by the analytic factor f.

    func evaluates f at ambient precision; taylor holds exact rational Taylor
    coefficients f_0..f_{m-1} of f at 0 (enough to split off the divergence);
    decay is the exponential decay rate governing the upper cutoff.
    """

    func: Callable
    taylor: Sequence[Fraction]
    decay: Fraction


def exp_kernel(b: Fraction, order: int) -> KernelDescriptor:
    """Descriptor for f(x) = e^{-bx} with `order` exact Taylor coefficients."""
    b = Fraction(b)
    coeffs = [Fraction(-b) ** j / factorial(j) for j in range(order)]
    return KernelDescriptor(
        func=lambda x, _b=b: exp(-_to_mpf(_b) * x),
        taylor=coeffs,
        decay=b,
    )


def _divergent_part(taylor: Sequence[Fraction], m: int, eps: Fraction) -> mpf:
    """D_eps from exact Taylor coefficients, at exact rational eps.

    D_eps = sum_{i=0}^{m-2} f_i eps^{-(m-1-i)}/(m-1-i)  -  f_{m-1} ln eps.
    The inverse-power part is assembled as one exact rational so the huge
    cancellations against the cutoff integral do not contaminate the limit.
    """
    powers = Fraction(0)
    for i in range(m - 1):
        powers += taylor[i] * eps ** (-(m - 1 - i)) / (m - 1 - i)
    log_part = _to_mpf(taylor[m - 1]) * (ln(mpf(eps.numerator)) - ln(mpf(eps.denominator)))
    return _to_mpf(powers) - log_part


def _richardson_constant(eps_values: Sequence[Fraction], data: Sequence[mpf]) -> mpf:
    """Fit data(eps) = a0 + sum_i (a_i eps^i + b_i eps^i ln eps); return a0.

    Square collocation solve; the system is tiny, so precision is simply
    boosted far beyond any conceivable conditioning loss.
    """
    n = len(eps_values)
    with mp.extradps(200):
        eps = [_to_mpf(e) for e in eps_values]
        cols = [[mpf(1)] * n]
        npairs = (n - 1) // 2
        for i in range(1, npairs + 1):
            cols.append([e ** i for e in eps])
            cols.append([e ** i * ln(e) for e in eps])
        if len(cols) < n:
            cols.append([e ** (npairs + 1) for e in eps])
        a = mp.matrix(cols).T
        try:
            x = mp.lu_solve(a, mp.matrix(list(data)))
        except ZeroDivisionError:
            raise OracleFailureError("degenerate extrapolation system") from None
        return +x[0]


def fp_canonical_oracle(kernel: KernelDescriptor, m: int, ctx: PrecisionContext) -> mpf:
    """Finite part of f(x)/x^m by the canonical cutoff definition.

    Integrates from eps to a cutoff where the exponential tail is negligible,
    subtracts the analytically known divergent terms, and extrapolates
    eps -> 0 over the geometric grid eps = 10^{-j}, j = 2 .. digits/4 (at
    least six points, as digits >= 30).

    Convergence is checked by re-extrapolating without the smallest epsilon;
    disagreement beyond the oracle tolerance raises OracleFailureError.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"fp_canonical_oracle requires integer m >= 1, got {m}")
    if len(kernel.taylor) < m:
        raise DomainError(
            f"kernel supplies {len(kernel.taylor)} Taylor coefficients, need {m}")
    jmax = ctx.digits // 4
    eps_values = [Fraction(1, 10 ** j) for j in range(2, jmax + 1)]
    # Quadrature precision covers the divergence magnitude eps_min^{-(m-1)}.
    with ctx.work((m - 1) * (jmax + 1) + 10):
        decay = _to_mpf(kernel.decay)
        cutoff = int(mp.dps * ln(mpf(10)) / decay) + 10
        integrand = lambda x: kernel.func(x) / x ** m
        running = quad(integrand, [_to_mpf(eps_values[0]), 1, cutoff])
        tails = [running - _divergent_part(kernel.taylor, m, eps_values[0])]
        for prev, cur in zip(eps_values, eps_values[1:]):
            running += quad(integrand, [_to_mpf(cur), _to_mpf(prev)])
            tails.append(running - _divergent_part(kernel.taylor, m, cur))
    with ctx.work(20):
        a0 = _richardson_constant(eps_values, tails)
        check = _richardson_constant(eps_values[:-1], tails[:-1])
        tol = mpf(10) ** (-(ctx.digits // 2)) * max(abs(a0), mpf(1))
        if abs(a0 - check) > tol:
            raise OracleFailureError(
                f"epsilon extrapolation unstable: estimates differ by {abs(a0 - check)}")
    return ctx.round(a0)
