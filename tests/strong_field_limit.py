"""How far the extrapolant's strong-field limit is from the true one.

As beta -> oo the extrapolant tends to
beta^{s-1} [g0 (ln(beta)/2 + ln 2 - gamma) + C0] with two exact rationals of
the reconstructed density g = (N, D) of _density_taylor: g0 = N_0/D and
C0 = sum_{l>=1} N_l (l-1)! 2^l / D (test_strong_field_limit_is_two_exact_numbers
in test_extrapolant.py checks that form). The true strong-field terms are
strong_field_leading's: the coefficient of beta^{s-1} ln(beta) is 1/12, 1/6
and 1/24 (spin0, spin-1/2, SD), so g0 tends to 1/6, 1/3 and 1/12, and at
beta = 1, where ln(beta) = 0, strong_field_leading is the constant that
g0 (ln 2 - gamma) + C0 tends to.

For each model and moment count the dataset records, for g0 and for that
constant, the digits that agree with the limit, -log10 |x - limit|/|limit|
to 0.01, and the sign of x - limit. A 400-moment row takes about a second,
so the rows for 3 models x moments in {10, 50, 100, 200, 400}, each from a
60-digit reconstruction, are stored in data/strong_field_limit.json;
test_extrapolant.py recomputes those up to 200 moments. Regenerate or check
them with (tests/frozen.py)

    PYTHONPATH=src python tests/strong_field_limit.py --write
    PYTHONPATH=src python tests/strong_field_limit.py --check

pytest does not collect this file (its name does not start with test_).
"""
from fractions import Fraction
from math import factorial

from mpmath import euler, ln, log10, mp, mpf

from heulag import ModelId, PrecisionContext, reconstruct, strong_field_leading
from heulag.momentrec import _density_taylor
import frozen

MOMENTS = (10, 50, 100, 200, 400)
CTX = PrecisionContext(60)
G0_LIMITS = {ModelId.SPIN0: Fraction(1, 6), ModelId.SPIN_HALF: Fraction(1, 3),
             ModelId.SELF_DUAL: Fraction(1, 12)}


def _agreement(x: mpf, limit: mpf) -> dict:
    """{"digits": -log10 |x - limit|/|limit| to 0.01, "sign": of x - limit}."""
    return {"digits": round(float(-log10(abs(x - limit) / abs(limit))), 2),
            "sign": "+" if x > limit else "-"}


def _mpf(q: Fraction) -> mpf:
    """q rounded at the ambient precision."""
    return mpf(q.numerator) / q.denominator


def limit_row(model: ModelId, moments: int) -> dict[str, dict]:
    """g0's and the constant's agreement with their limits, for the density
    of a 60-digit reconstruction from `moments`."""
    N, D = _density_taylor(reconstruct(model, moments, CTX))
    C0 = Fraction(sum(n * factorial(l - 1) << l for l, n in enumerate(N) if l), D)
    constant = strong_field_leading(model, 1, CTX)
    with mp.workdps(CTX.workdps):
        g0 = _mpf(Fraction(N[0], D))
        return {"g0": _agreement(g0, _mpf(G0_LIMITS[model])),
                "constant": _agreement(g0 * (ln(2) - euler) + _mpf(C0), constant)}


# {model: {moments: {"g0" | "constant": {"digits": float, "sign": "+" or "-"}}}}
DATASET = frozen.Dataset("strong_field_limit", lambda: {
    model.value: {str(moments): limit_row(model, moments) for moments in MOMENTS}
    for model in ModelId})


if __name__ == "__main__":
    raise SystemExit(frozen.main(DATASET))
