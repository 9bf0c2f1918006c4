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
digits at large z, so f and g are taken log10 z digits higher. The three
parts are summed 15 digits higher, then again at twice the extra digits (at
least 20 more than the sum cancelled) until a pass cancels at least 10
digits fewer than its extra: a pass short of the cancellation sums noise,
which reads as cancelling about all of its digits.

At 200 moments a value takes mpmath about 80 ms, so the values for 3 models
x moments in {10, 50, 200} x eleven betas from 1e-10 to 1e30, at 100
digits for the density of a 60-digit reconstruction, are stored as decimal
strings in data/stieltjes_reference.json. Regenerate or check them with
(tests/frozen.py)

    PYTHONPATH=src python tests/stieltjes_reference.py --write
    PYTHONPATH=src python tests/stieltjes_reference.py --check

pytest does not collect this file (its name does not start with test_);
test_extrapolant.py checks extrapolate against every value.
"""
from fractions import Fraction

from mpmath import mp, mpf

from heulag import ModelId, PrecisionContext, reconstruct
from heulag.momentrec import _density_taylor
import frozen

MOMENTS = (10, 50, 200)
BETAS = ("1e-10", "1e-6", "1e-4", "1e-3", "0.01", "1", "3", "1e7", "1e12", "1e20", "1e30")
RECONSTRUCTION_DIGITS = 60
DIGITS = 100


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

    extra = 15
    total, lost = parts_sum(extra)
    while lost > extra - 10:
        extra = max(2 * extra, int(lost) + 20)
        total, lost = parts_sum(extra)
    with mp.workdps(dps + 20):
        value = mpf(b.numerator) ** s / mpf(b.denominator) ** s * total
    with mp.workdps(dps):
        return +value


def stieltjes_row(model: ModelId, moments: int) -> dict[str, str]:
    """{beta: stieltjes_value at DIGITS digits, as a decimal string} for the
    density of a RECONSTRUCTION_DIGITS-digit reconstruction from `moments`."""
    g = _density_taylor(reconstruct(model, moments, PrecisionContext(RECONSTRUCTION_DIGITS)))
    return {beta: mp.nstr(stieltjes_value(g, beta, model.series_prefactor_power, DIGITS), DIGITS,
                          strip_zeros=False)
            for beta in BETAS}


DATASET = frozen.Dataset("stieltjes_reference", lambda: {
    model.value: {str(moments): stieltjes_row(model, moments) for moments in MOMENTS}
    for model in ModelId})


if __name__ == "__main__":
    raise SystemExit(frozen.main(DATASET))
