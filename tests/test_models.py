"""Model layer: exact series coefficients, closed forms against frozen table
rows, partial sums, the quadrature oracle, and strong-field behavior."""
from fractions import Fraction
from itertools import count
from math import factorial

import pytest
from mpmath import cosh, exp, mp, mpf, quad, sinh, zeta

from heulag import (
    DomainError,
    ModelId,
    OracleFailureError,
    PrecisionContext,
    ReconstructionCoefficients,
    SeriesCoefficients,
    closed_form,
    coefficients,
    direct_integral_oracle,
    extrapolate,
    finite_part_assembly,
    partial_sum,
    pade_eval,
    reconstruct,
    strong_field_leading,
    weniger_delta,
)
from heulag import finitepart, models
from heulag.models import _coeff, _kernel, _node_factors
from heulag.specfun import _bernoulli_even
import closed_form_references
import frozen
import oracle_bits
from conftest import oracle, printed_match, rel_err


# ---------------------------------------------------------------------------
# Exact rational series coefficients.
# ---------------------------------------------------------------------------

def test_leading_coefficients_exact():
    assert _coeff(ModelId.SPIN0, 2) == Fraction(7, 360)
    assert _coeff(ModelId.SPIN0, 3) == Fraction(31, 2520)
    assert _coeff(ModelId.SPIN0, 4) == Fraction(127, 5040)
    assert _coeff(ModelId.SPIN_HALF, 2) == Fraction(1, 45)
    assert _coeff(ModelId.SELF_DUAL, 0) == Fraction(1, 240)
    assert _coeff(ModelId.SELF_DUAL, 1) == Fraction(1, 1008)
    assert _coeff(ModelId.SELF_DUAL, 2) == Fraction(1, 1440)


def test_coefficients_positive_and_factorially_growing():
    for model in ModelId:
        s = coefficients(model, 40)
        assert all(a > 0 for a in s.a)
        # growth ratio a_{k+1}/a_k ~ k^2 / pi^2 for large k: check it grows
        ratios = [s.a[k + 1] / s.a[k] for k in range(25, 35)]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def _ck(model: ModelId, k: int) -> Fraction:
    """c_k of the hyperbolic-kernel Taylor series from the Bernoulli formulas:
    (2 - 4^k) B_2k/(2k)! (spin0), -4^k B_2k/(2k)! (spin1/2)."""
    b2k = _bernoulli_even(k)
    if model is ModelId.SPIN0:
        return Fraction(2 - 2 ** (2 * k)) * b2k / factorial(2 * k)
    return -Fraction(2 ** (2 * k)) * b2k / factorial(2 * k)


def _chained_coeff(model: ModelId, k: int) -> Fraction:
    """The coefficient as a chain of Fraction products: (-1)^k (2k-3)! c_k
    for the spins, -(-1)^k B_{2k+4}/((2k+2)(2k+4)) for SD."""
    if model is ModelId.SELF_DUAL:
        return -Fraction((-1) ** k) * _bernoulli_even(k + 2) / ((2 * k + 2) * (2 * k + 4))
    return Fraction((-1) ** k) * factorial(2 * k - 3) * _ck(model, k)


@pytest.mark.parametrize("model", list(ModelId))
def test_coeff_matches_the_chained_formula(model):
    first = 0 if model is ModelId.SELF_DUAL else 2
    for k in range(first, 301):
        assert _coeff(model, k) == _chained_coeff(model, k), k
    assert coefficients(model, 299).a == tuple(
        _chained_coeff(model, k + first) for k in range(299))


def test_coefficients_count_domain_error():
    with pytest.raises(DomainError, match="count must be >= 1"):
        coefficients(ModelId.SPIN0, 0)


_CTX30 = PrecisionContext(30)
_BY_MODEL = {
    "coefficients": lambda m: coefficients(m, 3),
    "closed_form": lambda m: closed_form(m, "2", _CTX30),
    "partial_sum": lambda m: partial_sum(m, "0.1", 3, _CTX30),
    "direct_integral_oracle": lambda m: direct_integral_oracle(m, "2", _CTX30),
    "strong_field_leading": lambda m: strong_field_leading(m, "2", _CTX30),
    "finite_part_assembly": lambda m: finite_part_assembly(m, "2", _CTX30),
    "reconstruct": lambda m: reconstruct(m, 3, _CTX30),
    "extrapolate": lambda m: extrapolate(m, reconstruct(ModelId.SPIN0, 3, _CTX30), "2", None,
                                         _CTX30),
    "SeriesCoefficients": lambda m: (
        pade_eval(SeriesCoefficients(m, coefficients(ModelId.SPIN0, 10).a), 4, 5, "1", _CTX30),
        weniger_delta(SeriesCoefficients(m, coefficients(ModelId.SPIN0, 10).a), 5, "1", _CTX30)),
    "ReconstructionCoefficients": lambda m: extrapolate(
        ModelId.SPIN0, ReconstructionCoefficients(m, reconstruct(ModelId.SPIN0, 3, _CTX30).c, 30),
        "2", None, _CTX30),
}


@pytest.mark.parametrize("name", sorted(_BY_MODEL))
def test_model_given_by_its_value(name):
    # a model's value names that model, and any other value is a DomainError
    call = _BY_MODEL[name]
    assert call("spin0") == call(ModelId.SPIN0)
    with pytest.raises(DomainError):
        call("spin1")


# ---------------------------------------------------------------------------
# Closed forms against frozen printed rows.
# ---------------------------------------------------------------------------

CLOSED_ROWS = [
    (ModelId.SPIN0, "0.01", "1.93238479692775525e-6"),
    (ModelId.SPIN0, "0.1", "1.83994677220e-4"),
    (ModelId.SPIN0, "0.2", "7.0356826048e-4"),
    (ModelId.SPIN_HALF, "1", "1.645989388e-2"),
    (ModelId.SPIN_HALF, "4", "0.1827035"),
    (ModelId.SELF_DUAL, "0.01", "4.1568145496490179111196e-5"),
    (ModelId.SELF_DUAL, "0.1", "4.0736197107e-4"),
]


@pytest.mark.parametrize("model,beta,printed", CLOSED_ROWS)
def test_closed_form_printed_rows(model, beta, printed, ctx60):
    assert printed_match(closed_form(model, beta, ctx60), printed)


def test_closed_form_rejects_nonpositive_beta(ctx60):
    for bad in ("0", "-1", "-0.5"):
        with pytest.raises(DomainError):
            closed_form(ModelId.SPIN0, bad, ctx60)


def test_closed_form_precision_refinement():
    v60 = closed_form(ModelId.SPIN0, "0.37", PrecisionContext(60))
    v120 = closed_form(ModelId.SPIN0, "0.37", PrecisionContext(120))
    with mp.workdps(140):
        assert abs(v60 - v120) < mpf("1e-58") * abs(v120)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("beta", ["1e-20", "1e-400"])
def test_closed_form_small_beta_keeps_all_digits(model, beta, ctx60):
    # The closed forms cancel ~2 log10(1/beta) digits; at these beta the
    # order-5 partial sum is exact far beyond 60 digits.
    exact = closed_form(model, beta, ctx60)
    series = partial_sum(model, beta, 5, ctx60)
    with mp.workdps(80):
        assert abs(exact - series) <= mpf("1e-58") * abs(series)


REFERENCES = closed_form_references.DATASET.load()


@pytest.mark.parametrize("beta", closed_form_references.BETAS)
@pytest.mark.parametrize("digits", [1000, 1500])
@pytest.mark.parametrize("model", list(ModelId))
def test_closed_form_high_precision_against_mpmath(model, digits, beta):
    v = closed_form(model, beta, PrecisionContext(digits))
    with mp.workdps(closed_form_references.DIGITS):
        want = mpf(REFERENCES[model.value][beta])
    assert rel_err(v, want) < mpf(10) ** (1 - digits)


def test_frozen_references_match_mpmath():
    # recomputing at 300 digits catches a corrupted or truncated data file
    for model in ModelId:
        for beta in closed_form_references.BETAS:
            text = REFERENCES[model.value][beta]
            mantissa = text.partition("e")[0].lstrip("-0.").replace(".", "")
            assert len(mantissa) >= closed_form_references.DIGITS, (model, beta)
            fresh = closed_form_references.mpmath_closed_form(model.value, beta, 300)
            with mp.workdps(300):
                assert rel_err(fresh, mpf(text)) < mpf("1e-285"), (model, beta)


# ---------------------------------------------------------------------------
# Partial sums.
# ---------------------------------------------------------------------------

def test_partial_sum_printed_rows(ctx60):
    assert printed_match(partial_sum(ModelId.SPIN0, "0.01", 2, ctx60), "1.932394841e-6")
    assert printed_match(partial_sum(ModelId.SPIN0, "0.01", 9, ctx60), "1.932384796847e-6")
    assert printed_match(partial_sum(ModelId.SELF_DUAL, "0.01", 5, ctx60), "4.1568145496191e-5")
    assert printed_match(partial_sum(ModelId.SELF_DUAL, "0.01", 20, ctx60),
                         "4.156814549649017911120e-5")


def test_partial_sum_divergence_visible(ctx60):
    # asymptotic series: order 50 at beta = 0.01 has left the true value
    v = partial_sum(ModelId.SPIN0, "0.01", 50, ctx60)
    assert printed_match(v, "33995.12348")


def test_partial_sum_requires_positive_order(ctx60):
    with pytest.raises(DomainError):
        partial_sum(ModelId.SPIN0, "0.01", 0, ctx60)


def test_non_finite_beta_is_a_domain_error(ctx60):
    with pytest.raises(DomainError):
        partial_sum(ModelId.SPIN0, "nan", 5, ctx60)
    with pytest.raises(DomainError):
        closed_form(ModelId.SPIN0, "inf", ctx60)


@pytest.mark.parametrize("model", list(ModelId))
def test_partial_sum_asymptotic_error_bound(model, ctx60):
    # |closed - partial(d)| <= first omitted term, deep in the asymptotic regime
    exact = closed_form(model, "0.01", ctx60)
    s = coefficients(model, 15)
    p = model.series_prefactor_power
    with mp.workdps(80):
        b = mpf("0.01")
        for d in range(1, 11):
            err = abs(exact - partial_sum(model, "0.01", d, ctx60))
            omitted = s.a[d + 1] * b ** (d + 1 + p) if d + 1 < len(s.a) else None
            assert omitted is None or err <= omitted * (1 + mpf("1e-40"))


# ---------------------------------------------------------------------------
# Direct quadrature oracle.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("beta", ["1e-6", "0.01", "0.1", "1", "10", "100", "1e12"])
def test_quadrature_matches_closed_form(model, beta, ctx60, ctx100):
    q = direct_integral_oracle(model, beta, ctx60)
    assert rel_err(q, closed_form(model, beta, ctx100)) < mpf(10) ** (1 - ctx60.digits)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("beta", ["1e-30", "1e-50"])
def test_quadrature_keeps_relative_digits_at_tiny_beta(model, beta, ctx60, ctx100):
    # f is of order beta^2 (spins) or beta (SD) here: an absolute stopping
    # test would return it with few or no correct digits and no error
    q = direct_integral_oracle(model, beta, ctx60)
    assert rel_err(q, closed_form(model, beta, ctx100)) < mpf(10) ** -61


# The oracle either agrees with closed_form to digits + 1 or raises
# OracleFailureError; on this grid it must agree at every beta and precision.
AGREE_OR_RAISE_GRID = ("1e-50", "1e-6", "1", "1e7", "1e12")


def _assert_agrees(model, digits, betas):
    ref = PrecisionContext(digits + 40)
    for beta in betas:
        q = oracle(model, beta, digits)
        assert rel_err(q, closed_form(model, beta, ref)) < mpf(10) ** -(digits + 1), beta


@pytest.mark.parametrize("digits", [30, 60, 150])
@pytest.mark.parametrize("model", list(ModelId))
def test_quadrature_agrees_or_raises(model, digits):
    _assert_agrees(model, digits, AGREE_OR_RAISE_GRID)


@pytest.mark.parametrize("model, beta", [(ModelId.SPIN0, "1e13"), (ModelId.SPIN_HALF, "1e13"),
                                         (ModelId.SELF_DUAL, "1e16")])
def test_quadrature_returns_at_its_60_digit_edge(model, beta):
    # the largest decade where each model still returns at 60 digits
    _assert_agrees(model, 60, (beta,))


@pytest.mark.parametrize("model", list(ModelId))
def test_quadrature_returns_at_300_digits(model):
    # needs the degree mpmath sizes from the precision (11 here), not a fixed 8
    _assert_agrees(model, 300, ("1",))


@pytest.mark.parametrize("model", list(ModelId))
def test_quadrature_fails_typed_at_beta_1e30(model, ctx60):
    # the error estimate is far above 1e-60 here: a typed failure, not wrong digits
    with pytest.raises(OracleFailureError, match="too large for 60 digits"):
        direct_integral_oracle(model, "1e30", ctx60)


# mpmath caps its error estimate at 1 in the integrand's units, and above
# beta = 1 the integrand is not rescaled: once |f| >= 10^digits a capped
# estimate passed the relative test, and the spins returned 18 correct digits
# of 60 at beta = 1e60 and 25 of 30 at 1e40.
@pytest.mark.parametrize("beta", ["1e40", "1e60", "1e100", "1e400"])
@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize("model", [ModelId.SPIN0, ModelId.SPIN_HALF])
def test_quadrature_agrees_or_raises_where_the_estimate_is_capped(model, digits, beta):
    try:
        q = direct_integral_oracle(model, beta, PrecisionContext(digits))
    except OracleFailureError as e:
        assert f"too large for {digits} digits" in str(e)
        return
    ref = closed_form(model, beta, PrecisionContext(digits + 40))
    assert rel_err(q, ref) < mpf(10) ** -(digits + 1)


ORACLE_BITS = oracle_bits.DATASET.load()


@pytest.mark.parametrize("digits, beta", oracle_bits.CASES)
@pytest.mark.parametrize("model", list(ModelId))
def test_quadrature_bits_are_frozen(model, digits, beta):
    # recorded from the oracle that evaluated every node, before the cutoff
    want = ORACLE_BITS["oracle"][oracle_bits.key(model, digits, beta)]
    assert oracle_bits.oracle_bits(model, digits, beta) == want


@pytest.mark.parametrize("beta", oracle_bits.GRID_BETAS)
@pytest.mark.parametrize("digits", oracle_bits.ASSEMBLY_DIGITS)
@pytest.mark.parametrize("model", list(ModelId))
def test_finite_part_assembly_bits_are_frozen(model, digits, beta):
    want = ORACLE_BITS["assembly"][oracle_bits.key(model, digits, beta)]
    assert oracle_bits.assembly_bits(model, digits, beta) == want


@pytest.mark.parametrize("model", list(ModelId))
def test_finite_part_assembly_takes_the_exponential_rows_once(model, monkeypatch):
    # one ln b and one gamma per assembly: both rows from one _fp_exp_rows call
    calls = []
    rows = finitepart._fp_exp_rows
    monkeypatch.setattr(finitepart, "_fp_exp_rows",
                        lambda b, mmax, prec: calls.append(mmax) or rows(b, mmax, prec))
    monkeypatch.setattr(finitepart, "fp_exp_over_xm", None)
    finite_part_assembly(model, "0.5", _CTX30)
    assert calls == [3]


def test_oracle_bits_names_every_difference():
    want = {"oracle": {"a": "raises", "b": [0, "0x1", 0], "c": [0, "0x3", 1]},
            "qd": {"sd": [[0, "0x1", 0]]}}
    got = {"oracle": {"a": [0, "0x1", 0], "b": [0, "0x1", 0], "d": "raises"}, "qd": {"sd": []}}
    assert frozen.differences(want, want) == []
    assert frozen.differences(got, want) == ["differs: oracle / a", "only in the file: oracle / c",
                                             "not in the file: oracle / d", "differs: qd / sd"]


def test_node_factors_stay_bounded():
    # one table per (precision, power of t), evicted least recently used
    for digits in (30, 60, 100, 150, 300):
        for model in (ModelId.SPIN0, ModelId.SELF_DUAL):
            direct_integral_oracle(model, "10", PrecisionContext(digits))
    info = _node_factors.cache_info()
    assert 0 < info.currsize <= info.maxsize


def test_node_factors_give_the_same_bits_cold_and_interleaved(ctx60, ctx100):
    first = direct_integral_oracle(ModelId.SPIN_HALF, "3", ctx60)._mpf_
    _node_factors.cache_clear()
    assert direct_integral_oracle(ModelId.SPIN_HALF, "3", ctx60)._mpf_ == first
    direct_integral_oracle(ModelId.SPIN_HALF, "3", ctx100)
    assert direct_integral_oracle(ModelId.SPIN_HALF, "3", ctx60)._mpf_ == first


def test_quadrature_skips_the_nodes_past_its_cutoff(monkeypatch, ctx60):
    # at 60 digits about 35% of the 1201 nodes lie past the cutoff
    values = []

    def counting_quad(f, *args, **kwargs):
        return quad(lambda t: values.append(f(t)) or values[-1], *args, **kwargs)

    monkeypatch.setattr(models, "quad", counting_quad)
    q = direct_integral_oracle(ModelId.SPIN0, "10", ctx60)
    assert rel_err(q, closed_form(ModelId.SPIN0, "10", ctx60)) < mpf(10) ** (1 - ctx60.digits)
    assert len(values) == 1201 and sum(v == 0 for v in values) > 400


@pytest.mark.parametrize("model, bound", [(ModelId.SPIN0, lambda x: x * x / 6),
                                          (ModelId.SPIN_HALF, lambda x: x * x / 3),
                                          (ModelId.SELF_DUAL, lambda x: mpf(1) / 3)])
def test_kernel_bounds_behind_the_cutoff(model, bound):
    # x/sinh x <= 1, x coth x >= 1 and sinh x >= x: 0 <= kernel <= bound
    with mp.workdps(80):
        for e in range(-3, 7):
            for m in ("1", "3.7"):
                x = mpf(f"{m}e{e}")
                k = _reference_kernel(model, x)
                assert 0 <= k <= bound(x), x


README_DECADES = (*(f"1e{e}" for e in (-50, -40, -30, -20, -10)), *(f"1e{e}" for e in range(-6, 31)))


@pytest.mark.parametrize("model", list(ModelId))
def test_normalised_result_is_above_the_cutoffs_floor(model):
    # the cutoff assumes |f|/scale >= 0.0035 > 2^-9, scale = a_0 beta^p below
    # beta = 1 and 1 above
    ctx = PrecisionContext(30)
    a0 = coefficients(model, 1).a[0]
    with mp.workdps(60):
        for beta in README_DECADES:
            b = mpf(beta)
            scale = mpf(a0.numerator) / a0.denominator * b ** model.series_prefactor_power \
                if b < 1 else 1
            assert abs(closed_form(model, beta, ctx)) / scale >= mpf("0.0035"), beta


def _reference_kernel(model, x):
    """The kernel term by term from the exact Taylor coefficients below
    x = 1/2, until a term is below 10^-(dps+5) of the sum, and from sinh and
    cosh above: the oracle's evaluation before its Horner table, with the
    stop made purely relative."""
    if x < mpf(1) / 2:
        x2 = x * x
        power = x2 if model is ModelId.SELF_DUAL else x2 * x2
        acc = mpf(0)
        for k in count(2):
            c = (2 * k - 1) * _ck(ModelId.SPIN_HALF, k) if model is ModelId.SELF_DUAL \
                else _ck(model, k)
            term = mpf(c.numerator) / c.denominator * power
            acc += term
            if abs(term) < mpf(10) ** -(mp.dps + 5) * abs(acc):
                return acc
            power *= x2
    if model is ModelId.SPIN0:
        return x / sinh(x) - 1 + x * x / 6
    if model is ModelId.SPIN_HALF:
        return 1 + x * x / 3 - x * cosh(x) / sinh(x)
    e = exp(-2 * x)
    return 4 * e / (1 - e) ** 2 - 1 / (x * x) + mpf(1) / 3


@pytest.mark.parametrize("digits", [60, 100, 300, 1000])
@pytest.mark.parametrize("model", list(ModelId))
def test_kernel_matches_term_by_term_reference(model, digits):
    # 1e17 is of the order of the largest x that beta = 1e30 reaches before the cutoff
    qdps = digits + 10  # the oracle's quadrature precision
    with mp.workdps(qdps):
        chi = _kernel(model, mp.prec)
    for text in ("1e-200", "1e-30", "1e-3", "0.49", "0.4999", "0.5", "0.5000001", "0.51", "3",
                 "50", "300", "1e6", "1e17"):
        with mp.workdps(qdps):
            x = mpf(text)
            v = mp.make_mpf(chi(x._mpf_))
        with mp.workdps(qdps + 20):
            ref = _reference_kernel(model, x)
        assert rel_err(v, ref) <= mpf(10) ** (3 - qdps), text


def test_quadrature_table_follows_each_calls_precision(ctx60, ctx100):
    dps = mp.dps
    for model in ModelId:
        first = direct_integral_oracle(model, "10", ctx60)
        q = direct_integral_oracle(model, "10", ctx100)
        assert direct_integral_oracle(model, "10", ctx60) == first
        assert rel_err(q, closed_form(model, "10", ctx100)) < mpf(10) ** (1 - ctx100.digits)
    assert mp.dps == dps


def test_quadrature_printed_row(ctx60):
    assert printed_match(direct_integral_oracle(ModelId.SELF_DUAL, "0.1", ctx60),
                         "4.0736197107e-4")


# ---------------------------------------------------------------------------
# Strong-field behavior.
# ---------------------------------------------------------------------------

def test_strong_field_leading_values(ctx60):
    # against mpmath's zeta'(-1) at beta = 1e12
    with ctx60.work():
        b, z1 = mpf("1e12"), zeta(-1, 1, 1)
        lb, ln2 = mp.log(b), mp.log(2)
        want = {
            ModelId.SPIN0: b * lb / 12 + b * (ln2 / 3 + 2 * z1 - mpf(1) / 6),
            ModelId.SPIN_HALF: b * lb / 6 + b * (ln2 / 3 + 4 * z1 - mpf(1) / 3),
            ModelId.SELF_DUAL: lb / 24 + z1,
        }
        for model, w in want.items():
            assert abs(strong_field_leading(model, b, ctx60) - w) < mpf("1e-55") * abs(w), model


@pytest.mark.parametrize("model", list(ModelId))
def test_strong_field_ratio_monotone(model, ctx60):
    gaps = []
    for beta in ("1e6", "1e9", "1e12", "1e15", "1e18"):
        with ctx60.work():
            r = closed_form(model, beta, ctx60) / strong_field_leading(model, beta, ctx60)
        gaps.append(abs(r - 1))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < mpf("1e-8")


def test_strong_field_ratio_frozen_endpoint(ctx60):
    # r - 1 at beta = 1e18: what the O(sqrt(beta)) remainder (spins) and the
    # O(1/sqrt(beta)) one (SD) leave of the leading terms
    frozen = {ModelId.SPIN0: "2.1746354742e-10", ModelId.SPIN_HALF: "3.3494875177e-9",
              ModelId.SELF_DUAL: "3.2020129989e-10"}
    for model, gap in frozen.items():
        with ctx60.work():
            r = closed_form(model, "1e18", ctx60) / strong_field_leading(model, "1e18", ctx60)
            assert abs((r - 1) / mpf(gap) - 1) < mpf("1e-9"), model
