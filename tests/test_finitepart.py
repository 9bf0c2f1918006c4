"""Finite-part layer: exponential closed formula, canonical epsilon-cutoff
oracle, kernel-specific closed forms, and the assembly identities."""
import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import digamma, euler, log, mp, mpf, zeta

from heulag import (
    DomainError,
    KernelDescriptor,
    ModelId,
    OracleFailureError,
    PrecisionContext,
    closed_form,
    exp_kernel,
    finite_part_assembly,
    fp_canonical_oracle,
    fp_exp_over_xm,
)
from heulag.finitepart import _fp_exp_rows, _zeta_bernoulli
import oracle_bits
from conftest import rel_err


# ---------------------------------------------------------------------------
# Closed formula for FP int_0^inf e^{-bx} x^{-m} dx.
# ---------------------------------------------------------------------------

def test_fp_exp_known_values(ctx50):
    with mp.workdps(70):
        assert abs(fp_exp_over_xm(1, 1, ctx50) - (-euler())) < mpf("1e-48")
        assert abs(fp_exp_over_xm(1, 2, ctx50) - (euler() - 1)) < mpf("1e-48")
        half = Fraction(1, 2)
        assert abs(fp_exp_over_xm(half, 1, ctx50) - (log(2) - euler())) < mpf("1e-48")
        # m=3, b=1: (-1)^3 b^2/2! (ln b - psi(3)) = psi(3)/2 with psi(3) = -gamma + 3/2
        want = (mpf(3) / 2 - euler()) / 2
        assert abs(fp_exp_over_xm(1, 3, ctx50) - want) < mpf("1e-48")


def test_fp_exp_rows_at_b_1_read_digamma_at_integers():
    # row m at b = 1 is (-1)^{m+1} psi(m)/(m-1)!, psi(m) = -gamma + H_{m-1}
    with mp.workdps(50):
        rows = _fp_exp_rows(mpf(1)._mpf_, 30, mp.prec)
        for m, row in enumerate(rows, 1):
            psi = (-1) ** (m + 1) * factorial(m - 1) * mp.make_mpf(row)
            assert abs(psi - digamma(m)) < mpf("1e-45") * max(1, abs(psi)), m


def test_fp_exp_is_minus_gamma_at_every_context():
    # fp(1, 1) = -gamma, rounded symmetrically at each context
    ctx30, ctx50 = PrecisionContext(30), PrecisionContext(50)
    v30, v50 = fp_exp_over_xm(1, 1, ctx30), fp_exp_over_xm(1, 1, ctx50)
    with ctx50.work():
        assert abs(v30 + mpf("0.577215664901532860606512090082")) < mpf("1e-29")
        assert abs(v50 - v30) < mpf("1e-29")
        assert v50 == mp.fneg(ctx50.round(+mp.euler), exact=True)


def test_fp_exp_scaling_identity(ctx50):
    # fp(b, 1) = -ln b - gamma for arbitrary b > 0
    rng = random.Random(20240817)
    with mp.workdps(70):
        for _ in range(20):
            b = Fraction(rng.randint(1, 5000), rng.randint(1, 5000))
            want = -log(mpf(b.numerator) / b.denominator) - euler()
            assert abs(fp_exp_over_xm(b, 1, ctx50) - want) < mpf("1e-48") * max(1, abs(want))


def test_fp_exp_domain_errors(ctx50):
    with pytest.raises(DomainError):
        fp_exp_over_xm(0, 1, ctx50)
    with pytest.raises(DomainError):
        fp_exp_over_xm(-1, 2, ctx50)
    with pytest.raises(DomainError):
        fp_exp_over_xm(1, 0, ctx50)


FP_EXP_BITS = oracle_bits.DATASET.load()["fp_exp"]


@pytest.mark.parametrize("b, m, digits", oracle_bits.FP_EXP_CASES)
def test_fp_exp_bits_are_frozen(b, m, digits):
    want = FP_EXP_BITS[oracle_bits.fp_exp_key(b, m, digits)]
    assert oracle_bits.fp_exp_bits(b, m, digits) == want


# ---------------------------------------------------------------------------
# Canonical oracle.
# ---------------------------------------------------------------------------

def test_oracle_domain_errors(ctx50):
    with pytest.raises(DomainError, match="m >= 1"):
        fp_canonical_oracle(exp_kernel(Fraction(1), 3), 0, ctx50)
    with pytest.raises(DomainError, match="supplies 2 Taylor coefficients, need 3"):
        fp_canonical_oracle(exp_kernel(Fraction(1), 2), 3, ctx50)


@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(1), Fraction(2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_oracle_matches_closed_formula(b, m, ctx50):
    closed = fp_exp_over_xm(b, m, ctx50)
    oracle = fp_canonical_oracle(exp_kernel(b, m + 4), m, ctx50)
    with mp.workdps(70):
        assert abs(closed - oracle) < mpf(10) ** (-(ctx50.digits // 2))


def test_oracle_zero_origin_kernel_is_plain_integral(ctx50):
    # kernel x^2 e^{-x} with m=1: integrand x e^{-x}, no divergence, D_eps = 0;
    # the finite part is the ordinary integral = Gamma(2) = 1
    kernel = KernelDescriptor(
        func=lambda x: x ** 2 * mp.exp(-x),
        taylor=(Fraction(0),),
        decay=Fraction(1),
    )
    v = fp_canonical_oracle(kernel, 1, ctx50)
    with mp.workdps(60):
        assert abs(v - 1) < mpf("1e-24")


def test_oracle_failure_on_wrong_taylor(ctx50):
    # Lie about the kernel's Taylor expansion: the divergent part then fails
    # to cancel and the extrapolation cannot stabilize.
    kernel = KernelDescriptor(
        func=lambda x: mp.exp(-x),
        taylor=(Fraction(1), Fraction(1)),  # true series starts 1, -1
        decay=Fraction(1),
    )
    with pytest.raises(OracleFailureError):
        fp_canonical_oracle(kernel, 2, ctx50)


# ---------------------------------------------------------------------------
# Hurwitz zeta at s = 0, -1 as Bernoulli polynomials (the hyperbolic kernels).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("digits", [30, 300, 1000])
@pytest.mark.parametrize("s", [0, -1])
def test_zeta_bernoulli_against_mpmath(s, digits):
    # a = 0.2113248654 sits next to a root of B_2, where zeta(-1, a) cancels
    for a in ("1e-6", "0.2113248654", "0.5", "1", "17.5", "2000.25"):
        with mp.workdps(digits):
            x = mpf(a)
            v = _zeta_bernoulli(s, x)
        with mp.workdps(digits + 10):
            want = zeta(s, x)
            assert abs(v - want) < mpf(10) ** (1 - digits) * max(1, abs(want)), a


# ---------------------------------------------------------------------------
# Assembly identities: model functions as sums of finite parts.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("beta", ["1e-30", "1e-20", "1e-10", "0.01", "1", "100", "1e6"])
def test_assembly_equals_closed_form(model, beta, ctx60):
    # every digit, also at weak field, where the finite parts cancel about
    # 2 log10(1/beta) of them
    a = finite_part_assembly(model, beta, ctx60)
    c = closed_form(model, beta, PrecisionContext(80))
    assert rel_err(a, c) < mpf(10) ** -ctx60.digits


def test_assembly_beta_to_zero_leading_coefficient(ctx60):
    # assembled f0(beta)/beta^2 -> 7/360 as beta -> 0+
    with mp.workdps(80):
        b = mpf("1e-6")
        ratio = finite_part_assembly(ModelId.SPIN0, b, ctx60) / b ** 2
        assert abs(ratio - mpf(7) / 360) < mpf("1e-5")
