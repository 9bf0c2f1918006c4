"""The extrapolant as an exact rational part plus two auxiliary functions: a
second route to tail + Delta that shares none of their arithmetic.

The extrapolant is the generalized Stieltjes integral of the reconstructed
density, value = beta^s int_0^inf x g(x) / (1 + beta x^2) dx with
g(x) = e^{-x/2} sum_l g_l x^l and s = series_prefactor_power. With beta an
exact rational, P(x) = sum_l g_l x^{l+1} = Q(x)(1 + beta x^2) + r0 + r1 x
exactly, and term by term

    value = beta^s [sum_k q_k k! 2^{k+1} + r0 f(z)/sqrt(beta) + r1 g(z)/beta]

with z = 1/(2 sqrt(beta)) and f, g the auxiliary functions of the sine and
cosine integrals (DLMF 6.7.13-14), f(z) = int_0^inf e^{-zt}/(1+t^2) dt and
g(z) = int_0^inf t e^{-zt}/(1+t^2) dt. By DLMF 6.2.17-18,
f = Ci sin - si cos and g = -Ci cos - si sin with si = Si - pi/2.

The first sum is an exact rational. mpmath's ci and si lose about log10 z
digits at large z, so f and g are taken log10 z digits higher, and the sum
of the three parts is taken again as many digits higher as it cancels.
"""
from fractions import Fraction

from mpmath import mp, mpf


def _aux(z: mpf) -> tuple[mpf, mpf]:
    """(f(z), g(z)) at the ambient precision."""
    ci, si = mp.ci(z), mp.si(z) - mp.pi / 2
    sin, cos = mp.sin(z), mp.cos(z)
    return ci * sin - si * cos, -ci * cos - si * sin


def stieltjes_value(g: tuple[tuple[int, ...], int], beta: str, s: int, dps: int) -> mpf:
    """beta^s int_0^inf x e^{-x/2} sum_l g_l x^l / (1 + beta x^2) dx to dps
    digits, for g = (N, D) with g_l = N_l / D and beta the exact rational of
    its decimal string."""
    N, D = g
    b = Fraction(beta)
    p = [Fraction(0)] + [Fraction(n, D) for n in N]  # P's coefficients, x^0 up
    q = [Fraction(0)] * max(len(p) - 2, 0)
    for j in range(len(p) - 1, 1, -1):  # divide by 1 + b x^2 from the top
        q[j - 2] = p[j] / b
        p[j - 2] -= q[j - 2]
    r0, r1 = p[0], p[1]
    rational, fact = Fraction(0), 2  # fact = k! 2^(k+1)
    for k, qk in enumerate(q):
        rational += qk * fact
        fact *= 2 * (k + 1)

    def parts_sum(extra: int) -> tuple[mpf, float]:
        """(the bracket's three parts summed at dps + extra digits, the
        digits that sum cancelled)."""
        with mp.workdps(dps + extra):
            rb = mp.sqrt(mpf(b.numerator) / b.denominator)
            z = 1 / (2 * rb)
            with mp.workdps(mp.dps + max(0, int(mp.log10(z)))):
                f, gz = _aux(z)
            parts = [mpf(rational.numerator) / rational.denominator,
                     mpf(r0.numerator) / r0.denominator * f / rb,
                     mpf(r1.numerator) / r1.denominator * gz / (rb * rb)]
            total = mp.fsum(parts)
            return total, (max(map(mp.mag, parts)) - mp.mag(total)) * 0.30103

    total, lost = parts_sum(15)
    if lost > 10:
        total, _ = parts_sum(int(lost) + 20)
    with mp.workdps(dps + 20):
        value = mpf(b.numerator) ** s / mpf(b.denominator) ** s * total
    with mp.workdps(dps):
        return +value
