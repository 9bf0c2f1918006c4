"""Frozen 1520-digit references for the closed forms, from mpmath's builtins.

The closed forms are written here with mpmath's zeta(s, a, derivative), not
heulag's Euler-Maclaurin zeta, so the references stay independent of the code
under test. Building all nine takes mpmath about two minutes, so they are
stored as decimal strings in data/closed_form_references.json; regenerate
or check them with (tests/frozen.py)

    python tests/closed_form_references.py --write
    python tests/closed_form_references.py --check

pytest does not collect this file (its name does not start with test_).
"""
from mpmath import ln, mp, mpf, sqrt, zeta

import frozen

# 1520 digits serve every precision tested against them (1000 and 1500): below
# beta = 1 the closed forms cancel 2 log10(1/beta) digits, 12 at beta = 1e-6.
DIGITS = 1520
MODELS = ("spin0", "spin12", "sd")
BETAS = ("1e-6", "41.3273", "1e12")


def mpmath_closed_form(model: str, beta: str, dps: int) -> mpf:
    """The closed form of `model` ('spin0', 'spin12' or 'sd') at `dps` digits."""
    with mp.workdps(dps):
        b = mpf(beta)
        rb = sqrt(b)
        lb = ln(b)
        if model == "spin0":
            nu = (1 + rb) / (2 * rb)
            v = (b * lb / 12 - lb / 4 + b * (ln(4) / 12 - mpf(1) / 6)
                 - ln(4) / 4 - mpf(1) / 4 - 4 * b * zeta(-1, nu, 1))
        elif model == "spin12":
            q = 1 / (2 * rb)
            v = (4 * b * zeta(-1, q, 1) + mpf(1) / 4 - b / 3
                 - b * (ln(16) + 2 * lb) * (mpf(-1) / 12 + 1 / (4 * rb) - 1 / (8 * b)))
        else:
            q = 1 / rb
            v = zeta(-1, q, 1) - q * zeta(0, q, 1) - lb * (1 / (4 * b) - mpf(1) / 24) - 3 / (4 * b)
        return +v


# {model: {beta: the closed form at DIGITS digits, as a decimal string}}
DATASET = frozen.Dataset("closed_form_references", lambda: {
    model: {beta: mp.nstr(mpmath_closed_form(model, beta, DIGITS), DIGITS, strip_zeros=False)
            for beta in BETAS}
    for model in MODELS})


if __name__ == "__main__":
    raise SystemExit(frozen.main(DATASET))
