"""Frozen 1000-digit references for zeta'(s, a), s in {0, -1}, from mpmath.

test_zeta_sderiv_edge_sweep_against_mpmath checks heulag's Hurwitz zeta
derivative against mpmath's zeta(s, a, 1). At 1000 digits each mpmath call
takes 3-5 s, so those fourteen references are stored as decimal strings in
data/zeta_sderiv_references.json. test_high_precision_against_mpmath checks
zeta'(0, a) = ln Gamma(a) - (1/2) ln 2pi at 1000 and 1500 digits against
mpmath's loggamma, whose first call at those precisions takes seconds; its
six references are stored in data/loggamma_references.json. They are made the
way the tests make their live ones: a is the decimal argument rounded at the
context's working precision (digits + 20) and the reference is evaluated at
digits + 10. Regenerate or check both files with (tests/frozen.py)

    python tests/zeta_sderiv_references.py --write
    python tests/zeta_sderiv_references.py --check

pytest does not collect this file (its name does not start with test_).
"""
from mpmath import mp, mpf, zeta

import frozen

DIGITS = 1000
ORDERS = (0, -1)
ARGUMENTS = ("5e-16", "1e-6", "0.045", "0.5", "1", "17.5", "2000.25")
LOGGAMMA_DIGITS = (1000, 1500)
LOGGAMMA_ARGUMENTS = ("0.3", "2.5", "17")


def _at_digits(f, a: str, digits: int) -> mpf:
    """f(a) at digits + 10, with a rounded at digits + 20."""
    with mp.workdps(digits + 20):
        x = mpf(a)
    with mp.workdps(digits + 10):
        return f(x)


def mpmath_zeta_sderiv(s0: int, a: str, digits: int) -> mpf:
    """mpmath's zeta'(s0, a) at digits + 10, with a rounded at digits + 20."""
    return _at_digits(lambda x: zeta(s0, x, 1), a, digits)


def mpmath_zeta0_sderiv_by_loggamma(a: str, digits: int) -> mpf:
    """zeta'(0, a) = ln Gamma(a) - (1/2) ln 2pi from mpmath's loggamma, at
    digits + 10 with a rounded at digits + 20."""
    return _at_digits(lambda x: mp.loggamma(x) - mp.log(2 * mp.pi) / 2, a, digits)


# {str(s0): {a: decimal string}} and {str(digits): {a: decimal string}}
DATASET = frozen.Dataset("zeta_sderiv_references", lambda: {
    str(s0): {a: mp.nstr(mpmath_zeta_sderiv(s0, a, DIGITS), DIGITS + 10, strip_zeros=False)
              for a in ARGUMENTS}
    for s0 in ORDERS})
LOGGAMMA_DATASET = frozen.Dataset("loggamma_references", lambda: {
    str(digits): {a: mp.nstr(mpmath_zeta0_sderiv_by_loggamma(a, digits), digits + 10,
                             strip_zeros=False)
                  for a in LOGGAMMA_ARGUMENTS}
    for digits in LOGGAMMA_DIGITS})


if __name__ == "__main__":
    raise SystemExit(frozen.main(DATASET, LOGGAMMA_DATASET))
