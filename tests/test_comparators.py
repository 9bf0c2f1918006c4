"""Comparator layer: Pade approximants on the reduced series and the delta
(Levin-type) sequence transformation."""
from fractions import Fraction

import pytest
from mpmath import log, mp, mpf

from heulag import (
    DegeneracyError,
    DomainError,
    ModelId,
    PrecisionContext,
    SeriesCoefficients,
    closed_form,
    coefficients,
    pade_eval,
    weniger_delta,
)
from heulag.comparators import _fixed_qd_row, _pade, _span_digits
from heulag.specfun import _to_mpf
from conftest import printed_match, rel_err
import oracle_bits


# ---------------------------------------------------------------------------
# Pade approximants.
# ---------------------------------------------------------------------------

def test_pade_0_0_is_leading_term(ctx60):
    s = coefficients(ModelId.SPIN0, 1)
    v = pade_eval(s, 0, 0, "0.5", ctx60)
    with mp.workdps(70):
        want = mpf(7) / 360 * mpf("0.25")
        assert abs(v - want) < mpf("1e-55")


def test_pade_49_50_weak_field_36_digits():
    # requires high working precision: the solve spans ~300 orders of magnitude
    ctx = PrecisionContext(300)
    s = coefficients(ModelId.SPIN0, 100)
    v = pade_eval(s, 49, 50, "0.01", ctx)
    assert printed_match(v, "1.93238479692775524980520558841700571e-6")


def test_pade_49_50_frozen_rows(ctx100):
    sh = coefficients(ModelId.SPIN_HALF, 100)
    assert printed_match(pade_eval(sh, 49, 50, "1", ctx100), "1.645771086e-2")
    ssd = coefficients(ModelId.SELF_DUAL, 100)
    assert printed_match(pade_eval(ssd, 49, 50, "1e7", ctx100), "0.063469772")


@pytest.mark.parametrize("beta", ["0.01", "0.1"])
def test_pade_stieltjes_bracketing(beta, ctx60):
    # staircase approximants bracket the true value in the Stieltjes regime
    s = coefficients(ModelId.SPIN0, 22)
    f = closed_form(ModelId.SPIN0, beta, ctx60)
    for N in range(3, 11):
        lo = pade_eval(s, N - 1, N, beta, ctx60)
        hi = pade_eval(s, N, N, beta, ctx60)
        assert min(lo, hi) <= f <= max(lo, hi), N


@pytest.mark.parametrize("beta", ["0.1", "10", "1e3", "1e7"])
@pytest.mark.parametrize("model", list(ModelId))
def test_pade_stieltjes_bracketing_49(model, beta, ctx100):
    # consecutive S-fraction convergents bracket the true value at every beta > 0
    s = coefficients(model, 100)
    f = closed_form(model, beta, ctx100)
    lo = pade_eval(s, 49, 49, beta, ctx100)
    hi = pade_eval(s, 49, 50, beta, ctx100)
    assert min(lo, hi) < f < max(lo, hi)


@pytest.mark.parametrize("N,M", [(3, 2), (2, 3), (3, 3), (49, 50)])
def test_pade_large_field_degree_behavior(N, M, ctx60):
    # log f / log beta -> N - M + 2 (prefactor power) as beta grows
    s = coefficients(ModelId.SPIN0, N + M + 1)
    v = pade_eval(s, N, M, "1e30", ctx60)
    with mp.workdps(70):
        ratio = log(abs(v)) / log(mpf("1e30"))
        assert abs(ratio - (N - M + 2)) < mpf("0.1")


def test_pade_insufficient_coefficients(ctx60):
    s = coefficients(ModelId.SPIN0, 10)
    with pytest.raises(DomainError):
        pade_eval(s, 6, 6, "0.1", ctx60)


def test_pade_rejects_negative_degrees(ctx60):
    s = coefficients(ModelId.SPIN0, 10)
    with pytest.raises(DomainError):
        pade_eval(s, -1, 2, "0.1", ctx60)


def test_delta_rejects_a_negative_order(ctx60):
    with pytest.raises(DomainError, match="n >= 0"):
        weniger_delta(coefficients(ModelId.SPIN0, 10), -1, "0.1", ctx60)


@pytest.mark.parametrize("N,M", [(0, 2), (1, 5)])
def test_pade_rejects_numerator_below_staircase(N, M, ctx60):
    # N < M - 1 is off the staircase that the S-fraction's convergents cover
    s = coefficients(ModelId.SPIN0, 10)
    with pytest.raises(DomainError):
        pade_eval(s, N, M, "0.1", ctx60)


def test_pade_degenerate_on_geometric_series(ctx60):
    # all-ones coefficients: 1/(1 + beta) is [0/1], so e_1 = 0 and [4/5] has no
    # S-fraction
    geom = SeriesCoefficients(model=ModelId.SPIN0,
                              a=tuple(Fraction(1) for _ in range(10)))
    with pytest.raises(DegeneracyError, match="qd column e_1 has an entry >= 0"):
        pade_eval(geom, 4, 5, "0.3", ctx60)


def test_pade_degenerate_on_non_stieltjes_series(ctx60):
    # moments 1, 2, 1 violate a_0 a_2 > a_1^2: alpha_2 = a_2/a_1 - a_1/a_0 = -3/2
    s = SeriesCoefficients(model=ModelId.SPIN0,
                           a=(Fraction(1), Fraction(2), Fraction(1)))
    with pytest.raises(DegeneracyError, match="qd column e_1 has an entry >= 0"):
        pade_eval(s, 1, 1, "0.5", ctx60)


@pytest.mark.parametrize("a1", [0, -2])
def test_pade_degenerate_on_a_nonpositive_coefficient(a1, ctx60):
    s = SeriesCoefficients(model=ModelId.SPIN0, a=(Fraction(1), Fraction(a1), Fraction(1)))
    with pytest.raises(DegeneracyError, match="a reduced coefficient is <= 0"):
        pade_eval(s, 1, 1, "0.5", ctx60)


@pytest.mark.parametrize("model", list(ModelId))
def test_pade_qd_rows_are_frozen(model):
    # the reference table's [49/50] S-fraction coefficients at 100 digits, bit
    # for bit
    assert oracle_bits.qd_bits(model) == oracle_bits.DATASET.load()["qd"][model.value]


def _fixed_row(series, N, M, ctx):
    """pade_eval's fixed-point qd row: (X, bounds, F, bits) with alpha_i =
    X_i 2^-F within bounds[i] 2^-F, certified to 2^-bits relative."""
    need = N + M + 1
    with ctx.work():
        bits = mp.prec
    with ctx.work(_span_digits(series, need) + 10):
        return (*_fixed_qd_row(series.a[:need], N - M + 1, bits, mp.prec), bits)


def _reference_pade(series, N, M, ctx):
    """beta -> [N/M]: _pade's S-fraction recurrence over the reference qd row."""
    L, extra = N - M + 1, _span_digits(series, N + M + 1) + 10
    alphas = oracle_bits.reference_qd_row(series, N, M, ctx)[::-1]
    with ctx.work(extra):
        a = [_to_mpf(f) for f in series.a[:L + 1]]

    def at(beta):
        with ctx.work(extra):
            beta = mpf(beta)
            t = mpf(1)
            for alpha in alphas:
                t = 1 + alpha * beta / t
            v = a[L] / t
            for aj in reversed(a[:L]):
                v = v * -beta + aj
            v *= beta ** series.model.series_prefactor_power
        return ctx.round(v)

    return at


def _within_bounds(X, bounds, F, alphas):
    """Every |X_i 2^-F - alpha_i| <= bounds[i] 2^-F, in exact arithmetic, for
    alphas given as libmp (sign, mantissa, exponent) values."""
    return all(abs(Fraction(x, 2 ** F) - (-1) ** sign * man * Fraction(2) ** exp)
               <= Fraction(d) / 2 ** F
               for x, d, (sign, man, exp) in zip(X, bounds, alphas, strict=True))


@pytest.mark.parametrize("model", list(ModelId))
def test_fixed_qd_row_lies_within_its_bound_of_the_frozen_row(model):
    N, M, digits = oracle_bits.PADE
    X, bounds, F, bits = _fixed_row(coefficients(model, N + M + 1), N, M,
                                    PrecisionContext(digits))
    frozen = [(sign, int(man, 16), exp)
              for sign, man, exp in oracle_bits.DATASET.load()["qd"][model.value]]
    assert _within_bounds(X, bounds, F, frozen)
    assert all(2 * d < Fraction(x, 2 ** bits) for x, d in zip(X, bounds))


def test_fixed_qd_row_raises_its_scale_on_nearly_equal_nodes(ctx60):
    # a two-point Stieltjes measure at 1000 and 1000 (1 + 2^-20): alpha_2 is
    # about 2^-32, so the first scale's bound misses the target and F rises
    # below the span rule's precision
    a = tuple(1000 ** j * (1 + (1 + Fraction(1, 2 ** 20)) ** j) for j in range(4))
    s = SeriesCoefficients(model=ModelId.SPIN0, a=a)
    X, bounds, F, bits = _fixed_row(s, 1, 2, ctx60)
    assert F > bits + 2 * len(a) + 16
    with ctx60.work(_span_digits(s, 4) + 10):
        assert F < mp.prec
    reference = [v._mpf_[:3] for v in oracle_bits.reference_qd_row(s, 1, 2, ctx60)]
    assert _within_bounds(X, bounds, F, reference)
    reference_pade = _reference_pade(s, 1, 2, ctx60)
    for beta in ("1e-3", "1", "1e3"):
        assert pade_eval(s, 1, 2, beta, ctx60) == reference_pade(beta)


def test_pade_is_exact_on_a_two_point_measure_with_tiny_e():
    # nodes 1 and 1 + 2^-550: e_1 is about 2^-1102, and at 400 digits the
    # table's scale, its entries and their bounds run far past float range.
    # [1/2] of a two-point Stieltjes series is the series' own rational sum.
    ctx = PrecisionContext(400)
    d = Fraction(1, 2 ** 550)
    s = SeriesCoefficients(model=ModelId.SPIN0, a=tuple(1 + (1 + d) ** j for j in range(4)))
    for beta in (Fraction(1, 1000), Fraction(1), Fraction(1000)):
        exact = beta ** 2 * (1 / (1 + beta) + 1 / (1 + (1 + d) * beta))
        with mp.workdps(450):
            assert rel_err(pade_eval(s, 1, 2, beta, ctx), _to_mpf(exact)) < mpf(10) ** -399


@pytest.mark.parametrize("N, M, digits", [(49, 50, 100), (99, 100, 200), (50, 50, 60),
                                           (30, 20, 60)])
@pytest.mark.parametrize("model", list(ModelId))
def test_pade_prints_as_the_reference_route(model, N, M, digits):
    # the beta recurrence runs at the working precision, the reference's at
    # the coefficient span; [50/50] and [30/20] have heads (L > 0)
    ctx = PrecisionContext(digits)
    s = coefficients(model, N + M + 1)
    approximant, reference = _pade(s, N, M, ctx), _reference_pade(s, N, M, ctx)
    for beta in ("0.01", "10", "1e7", "1e20"):
        assert mp.nstr(approximant(beta), digits) == mp.nstr(reference(beta), digits), beta


# ---------------------------------------------------------------------------
# Delta transformation.
# ---------------------------------------------------------------------------

def _two_row_delta(series, n, beta, digits):
    """Reference delta_n from Weniger's two-row recursion on the numerator and
    denominator arrays s_j/omega_j and 1/omega_j (Comput. Phys. Rep. 10 (1989)
    189, sec. 8), times the beta prefactor. O(n^2), run 40 digits above
    weniger_delta's span-boosted precision."""
    with mp.workdps(PrecisionContext(digits).workdps + _span_digits(series, n + 2) + 50):
        beta = mpf(beta)
        terms = [_to_mpf(series.a[j]) * (-beta) ** j for j in range(n + 2)]
        num, den, s = [], [], mpf(0)
        for j in range(n + 1):
            s += terms[j]
            num.append(s / terms[j + 1])
            den.append(1 / terms[j + 1])
        for k in range(n):
            # c = (j+k+1)(j+k)/((j+2k+1)(j+2k)), taken as 1 at j = k = 0
            c = [mpf((1 + j + k) * (j + k)) / ((1 + j + 2 * k) * (j + 2 * k)) if j + k else 1
                 for j in range(n - k)]
            num = [num[j + 1] - c[j] * num[j] for j in range(n - k)]
            den = [den[j + 1] - c[j] * den[j] for j in range(n - k)]
        return beta ** series.model.series_prefactor_power * num[0] / den[0]


@pytest.mark.parametrize("n", [0, 1, 2, 10, 30, 100])
@pytest.mark.parametrize("model", list(ModelId))
def test_delta_matches_two_row_recursion(model, n, ctx60):
    s = coefficients(model, n + 2)
    for beta in ("1e-6", "0.01", "1", "1e4", "1e12", "1e30"):
        want = _two_row_delta(s, n, beta, 60)
        if n == 0:  # delta_0 is the leading term beta^p a_0
            with mp.workdps(80):
                lead = mpf(beta) ** model.series_prefactor_power * _to_mpf(s.a[0])
            assert rel_err(want, lead) < mpf("1e-59"), beta
        assert rel_err(weniger_delta(s, n, beta, ctx60), want) < mpf("1e-59"), beta


def test_delta_35_weak_field_frozen(ctx60):
    s = coefficients(ModelId.SPIN0, 37)
    v = weniger_delta(s, 35, "0.01", ctx60)
    # 30+ digit agreement with the closed form
    exact = closed_form(ModelId.SPIN0, "0.01", ctx60)
    with mp.workdps(80):
        assert abs(v - exact) < mpf("1e-30") * abs(exact)
    assert printed_match(v, "1.93238479692775524980520558841710582e-6")


def test_delta_25_frozen(ctx60):
    s = coefficients(ModelId.SPIN0, 27)
    assert printed_match(weniger_delta(s, 25, "0.1", ctx60), "1.83994677220367054707e-4")


def test_delta_30_spinhalf_frozen(ctx60):
    s = coefficients(ModelId.SPIN_HALF, 32)
    assert printed_match(weniger_delta(s, 30, "1", ctx60), "1.645989388e-2")
    assert printed_match(weniger_delta(s, 30, "4", ctx60), "0.1827035")


def test_delta_exact_on_geometric_series(ctx60):
    # all-ones reduced coefficients: f = beta^2 sum (-beta)^j = beta^2/(1+beta);
    # the transform reproduces the rational limit exactly from low order
    geom = SeriesCoefficients(model=ModelId.SPIN0,
                              a=tuple(Fraction(1) for _ in range(12)))
    with mp.workdps(80):
        want = mpf("0.09") / mpf("1.3")
        for n in (1, 2, 3, 5):
            v = weniger_delta(geom, n, "0.3", ctx60)
            assert abs(v - want) < mpf("1e-55")


def test_delta_insufficient_coefficients(ctx60):
    s = coefficients(ModelId.SPIN0, 10)
    with pytest.raises(DomainError):
        weniger_delta(s, 9, "0.1", ctx60)  # needs n + 2 = 11 coefficients


def test_delta_degenerate_on_zero_series(ctx60):
    zero = SeriesCoefficients(model=ModelId.SPIN0,
                              a=tuple(Fraction(0) for _ in range(8)))
    with pytest.raises(DegeneracyError):
        weniger_delta(zero, 3, "0.5", ctx60)


def test_delta_degenerate_on_vanishing_denominator(ctx60):
    # a = (1, 1, -2) at beta = 1/2: omega_0 = -1/2 and omega_1 = -1/2, so the
    # weighted sum 1/omega_0 - 1/omega_1 is exactly 0
    s = SeriesCoefficients(model=ModelId.SPIN0,
                           a=(Fraction(1), Fraction(1), Fraction(-2)))
    with pytest.raises(DegeneracyError, match="denominator"):
        weniger_delta(s, 1, "0.5", ctx60)


# ---------------------------------------------------------------------------
# Mutual consistency in the convergent regime.
# ---------------------------------------------------------------------------

def test_pade_and_delta_agree_weak_field(ctx60):
    s = coefficients(ModelId.SELF_DUAL, 40)
    p = pade_eval(s, 19, 20, "0.05", PrecisionContext(150))
    d = weniger_delta(s, 30, "0.05", ctx60)
    exact = closed_form(ModelId.SELF_DUAL, "0.05", ctx60)
    with mp.workdps(80):
        assert abs(p - exact) < mpf("1e-15") * abs(exact)
        assert abs(d - exact) < mpf("1e-15") * abs(exact)
