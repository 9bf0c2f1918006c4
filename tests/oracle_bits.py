"""Frozen bits of the quadrature oracle, the finite-part routes and the Pade
qd rows.

For each case the file data/oracle_bits.json holds the exact libmp value
(sign, mantissa in hex, exponent) that `direct_integral_oracle` returns, or
"raises" where it raises `OracleFailureError`; the value of
`finite_part_assembly` for every model at ASSEMBLY_DIGITS x GRID_BETAS and of
`fp_exp_over_xm` at FP_EXP_CASES; and the S-fraction
coefficients alpha_1.. of the [49/50] Pade approximant at 100 digits for each
model, from _reference_qd_row: a floating qd table at the span rule's
precision, the reference for pade_eval's fixed-point table. A change that must
keep these values bit-identical records them before it and checks against
them after (tests/frozen.py):

    PYTHONPATH=src python tests/oracle_bits.py --write  # regenerate the file
    PYTHONPATH=src python tests/oracle_bits.py --check  # compare; exit 1 on a mismatch

(about 9 s each). pytest does not collect this file (its name does not
start with test_); test_models.py, test_finitepart.py and test_comparators.py
check every entry.
"""
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sub

from heulag.comparators import _span_digits
from heulag.errors import DegeneracyError, OracleFailureError
from heulag.finitepart import fp_exp_over_xm
from heulag.models import ModelId, coefficients, finite_part_assembly
from heulag.specfun import PrecisionContext, _to_mpf
import frozen
from conftest import oracle

# The benchmark's quadrature betas among powers of ten, at three precisions,
# for every model; then each precision's return/raise edges and tiny betas.
GRID_BETAS = ("0.01", "0.1", "1", "10", "452.513", "1484.03", "1e4", "1e5", "1e7", "1e10")
GRID = tuple((digits, beta) for digits in (30, 60, 150) for beta in GRID_BETAS)
EDGES = (*((60, b) for b in ("1e-50", "1e-30", "1e13", "1e14", "1e16", "1e17", "1e30")),
         (150, "1e22"), (150, "1e23"), (300, "1"))
CASES = GRID + EDGES
PADE = (49, 50, 100)  # [N/M] and the digits of the qd rows
ASSEMBLY_DIGITS = (60, 150)
# (b, m, digits) of the exponential closed formula
FP_EXP_CASES = tuple((b, m, digits) for b in ("1/2", "1", "3.7", "1e-5")
                     for m in range(1, 5) for digits in (50, 80, 320))


def key(model: ModelId, digits: int, beta: str) -> str:
    return f"{model.value} {digits} {beta}"


def _bits(v) -> list:
    sign, man, exp, _ = v._mpf_
    return [sign, hex(man), exp]


def oracle_bits(model: ModelId, digits: int, beta: str):
    """[sign, hex mantissa, exponent] of the oracle's value, or "raises"."""
    try:
        return _bits(oracle(model, beta, digits))
    except OracleFailureError:
        return "raises"


def assembly_bits(model: ModelId, digits: int, beta: str) -> list:
    """[sign, hex mantissa, exponent] of finite_part_assembly's value."""
    return _bits(finite_part_assembly(model, beta, PrecisionContext(digits)))


def fp_exp_key(b: str, m: int, digits: int) -> str:
    return f"{b} {m} {digits}"


def fp_exp_bits(b: str, m: int, digits: int) -> list:
    """[sign, hex mantissa, exponent] of fp_exp_over_xm at the exact b."""
    return _bits(fp_exp_over_xm(Fraction(b), m, PrecisionContext(digits)))


def _reference_qd_row(a: list, L: int) -> list:
    """S-fraction coefficients alpha_1.. of the series shifted by L, as mpf.

    Rutishauser's qd table of c_j = (-1)^j a_j, column by column from
    q_1^(k) = c_{k+1}/c_k, e_0^(k) = 0 and the rhombus rules; row k holds
    -alpha = q_1^(k), e_1^(k), q_2^(k), ... of the series shifted by k.
    DegeneracyError unless every a_j > 0 and every e < 0 (Stieltjes), read
    from the sign bit and a nonzero mantissa. The table runs on raw libmp
    values with the same roundings as mpf arithmetic at the ambient precision.
    """
    prec, rnd = mp._prec_rounding
    a = [c._mpf_ for c in a]
    if not all(c[1] and not c[0] for c in a):
        raise DegeneracyError("not a Stieltjes series: a reduced coefficient is <= 0")
    q = [mpf_div(mpf_neg(a[k + 1]), a[k], prec, rnd) for k in range(len(a) - 1)]
    e = [fzero] * len(q)
    row, m = [], 0
    while q:
        m += 1
        e = [mpf_add(mpf_sub(q[k + 1], q[k], prec, rnd), e[k + 1], prec, rnd)
             for k in range(len(q) - 1)]
        if not all(v[1] and v[0] for v in e):
            raise DegeneracyError(
                f"not a Stieltjes series at working precision: qd column e_{m} has an entry >= 0")
        row += [mp.make_mpf(mpf_neg(v[L])) for v in (q, e) if len(v) > L]
        q = [mpf_div(mpf_mul(q[k + 1], e[k + 1], prec, rnd), e[k], prec, rnd)
             for k in range(len(e) - 1)]
    return row


def reference_qd_row(series, N: int, M: int, ctx: PrecisionContext) -> list:
    """The alpha row of the [N/M] Pade approximant from _reference_qd_row, at
    ctx's digits + guard + the coefficients' decimal span + 10."""
    need, L = N + M + 1, N - M + 1
    with ctx.work(_span_digits(series, need) + 10):
        return _reference_qd_row([_to_mpf(f) for f in series.a[:need]], L)


def qd_bits(model: ModelId) -> list:
    """The frozen alpha row of the [N/M] Pade approximant."""
    N, M, digits = PADE
    series = coefficients(model, N + M + 1)
    return [_bits(v) for v in reference_qd_row(series, N, M, PrecisionContext(digits))]


# {"oracle": {key: bits or "raises"}, "assembly": {key: bits},
#  "fp_exp": {fp_exp_key: bits}, "qd": {model: [bits, ...]}}
DATASET = frozen.Dataset("oracle_bits", lambda: {
    "oracle": {key(m, d, b): oracle_bits(m, d, b) for m in ModelId for d, b in CASES},
    "assembly": {key(m, d, b): assembly_bits(m, d, b)
                 for m in ModelId for d in ASSEMBLY_DIGITS for b in GRID_BETAS},
    "fp_exp": {fp_exp_key(*case): fp_exp_bits(*case) for case in FP_EXP_CASES},
    "qd": {m.value: qd_bits(m) for m in ModelId}})


if __name__ == "__main__":
    raise SystemExit(frozen.main(DATASET))
