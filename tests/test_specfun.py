"""Scalar layer: Bernoulli numbers, Hurwitz zeta and its s-derivative,
digamma at integers, Laguerre evaluation, precision-context behavior."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, zeta

from heulag import (
    BigComplex,
    BigReal,
    DomainError,
    PoleError,
    PrecisionContext,
    bernoulli,
    digamma_int,
    euler_gamma,
    laguerre_eval,
    ln_gamma,
)
from heulag import specfun
from heulag.errors import HeulagError, OracleFailureError
from heulag.specfun import (
    _digamma_int,
    _euler_gamma,
    _laguerre_seq,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
)
from conftest import rel_err


# ---------------------------------------------------------------------------
# Bernoulli numbers.
# ---------------------------------------------------------------------------

def akiyama_tanigawa(n: int) -> Fraction:
    """Independent exact oracle for B_n (B_1 = +1/2 convention; even n only
    used here so the convention choice is moot)."""
    a = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n - j + 1):
            a[m] = (m + 1) * (a[m] - a[m + 1])
    return a[0]


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 20, 30, 60])
def test_bernoulli_against_akiyama_tanigawa(n):
    assert bernoulli(n) == akiyama_tanigawa(n)


def test_bernoulli_first_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)


class _LengthLog(list):
    """A list that records its length after every call that can change it."""

    def __init__(self, items):
        super().__init__(items)
        self.lengths = [len(self)]


def _logged(name):
    def method(self, *args):
        out = getattr(list, name)(self, *args)
        self.lengths.append(len(self))
        return out
    return method


for _name in ("append", "extend", "__iadd__", "insert", "clear", "pop", "remove",
              "__delitem__", "__setitem__"):
    setattr(_LengthLog, _name, _logged(_name))


def test_bernoulli_cache_grows_append_only(monkeypatch):
    # readers index the cache without the lock, so growth must never shorten it
    bernoulli(6)
    cache = _LengthLog(specfun._bern_even[:3])
    monkeypatch.setattr(specfun, "_bern_even", cache)
    assert bernoulli(80) == akiyama_tanigawa(80)
    assert cache.lengths[-1] >= 40
    assert cache.lengths == sorted(cache.lengths)
    assert [bernoulli(2 * k) for k in range(1, 4)] == [Fraction(1, 6), Fraction(-1, 30),
                                                        Fraction(1, 42)]


def test_bernoulli_rejects_odd_or_negative():
    for bad in (1, 3, -2, 0):
        with pytest.raises(HeulagError):
            bernoulli(bad)


# ---------------------------------------------------------------------------
# Euler-Mascheroni constant and digamma at integers.
# ---------------------------------------------------------------------------

def test_euler_gamma_30_digits():
    with mp.workdps(40):
        g = _euler_gamma()
        ref = mpf("0.577215664901532860606512090082")
        assert abs(g - ref) < mpf("1e-30")


def test_digamma_integers():
    with mp.workdps(50):
        g = _euler_gamma()
        assert abs(_digamma_int(1) + g) < mpf("1e-45")
        # psi(m) = -gamma + H_{m-1}
        assert abs(_digamma_int(4) - (-g + 1 + mpf(1) / 2 + mpf(1) / 3)) < mpf("1e-45")


def test_euler_gamma_context_rounding_and_refinement():
    v30 = euler_gamma(PrecisionContext(30))
    ctx50 = PrecisionContext(50)
    v50 = euler_gamma(ctx50)
    with ctx50.work():
        assert abs(v30 - mpf("0.577215664901532860606512090082")) < mpf("1e-29")
        assert abs(v50 - v30) < mpf("1e-29")
        # gamma = -psi(1); both sides round symmetrically at the same context
        assert v50 == mp.fneg(digamma_int(1, ctx50), exact=True)


def test_digamma_int_small_arguments_and_domain():
    ctx = PrecisionContext(50)
    g = euler_gamma(ctx)
    with ctx.work():
        assert abs(digamma_int(2, ctx) - (1 - g)) < mpf("1e-48")
        assert abs(digamma_int(3, ctx) - (mpf(3) / 2 - g)) < mpf("1e-48")
    for bad in (0, -4):
        with pytest.raises(DomainError):
            digamma_int(bad, ctx)


def test_scalar_aliases_and_conjugate_symmetry(ctx60):
    assert isinstance(euler_gamma(ctx60), BigReal)
    with ctx60.work():
        z = BigComplex("0.7", "1.9")
        v = laguerre_eval(9, z, ctx60)
        assert isinstance(v, BigComplex)
        # real recurrence coefficients: L_m(conj z) = conj L_m(z)
        vc = laguerre_eval(9, mp.fneg(z.imag, exact=True) * 1j + z.real, ctx60)
        assert vc.real == v.real
        assert vc.imag == mp.fneg(v.imag, exact=True)


def test_ln_gamma_values_recurrence_and_domain(ctx60):
    with ctx60.work():
        assert abs(ln_gamma(1, ctx60)) < mpf("1e-55")
        assert abs(ln_gamma(mpf(1) / 2, ctx60) - mp.log(mp.pi) / 2) < mpf("1e-55")
        a = mpf("3.7")
        resid = ln_gamma(a + 1, ctx60) - ln_gamma(a, ctx60) - mp.log(a)
        assert abs(resid) < mpf("1e-55")
    with pytest.raises(DomainError):
        ln_gamma(0, ctx60)
    with pytest.raises(DomainError):
        ln_gamma(mpf("-2.5"), ctx60)


# ---------------------------------------------------------------------------
# Hurwitz zeta.
# ---------------------------------------------------------------------------

def test_zeta_2_1_is_pi2_over_6(ctx60):
    with ctx60.work():
        v = hurwitz_zeta(2, mpf(1), ctx60)
        assert abs(v - mp.pi ** 2 / 6) < mpf("1e-58")


def test_zeta_at_0_is_half_minus_a(ctx60):
    with ctx60.work():
        for a in (mpf("0.25"), mpf(1), mpf("3.75"), mpf(40)):
            assert abs(hurwitz_zeta(0, a, ctx60) - (mpf(1) / 2 - a)) < mpf("1e-55")


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(50)))
def test_zeta_minus1_equals_polynomial(nu):
    # zeta(-1, a) = -1/12 + a/2 - a^2/2 exactly
    ctx = PrecisionContext(40)
    with ctx.work():
        a = mpf(nu.numerator) / nu.denominator
        poly = mpf(-1) / 12 + a / 2 - a * a / 2
        assert abs(hurwitz_zeta(-1, a, ctx) - poly) < mpf("1e-35") * max(1, abs(poly))


def test_zeta_pole_and_domain(ctx60):
    with pytest.raises(PoleError):
        hurwitz_zeta(1, mpf(1), ctx60)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, mpf(0), ctx60)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, mpf(-3), ctx60)


def test_zeta_sderiv_at_zero_is_lngamma_identity(ctx60):
    # zeta'(0, a) = ln Gamma(a) - (1/2) ln 2pi, against mpmath's loggamma
    with ctx60.work():
        for a in (mpf("0.3"), mpf(1), mpf("2.5"), mpf(17)):
            lhs = hurwitz_zeta_sderiv(0, a, ctx60)
            rhs = mp.loggamma(a) - mp.log(2 * mp.pi) / 2
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx60.digits - 5))


def test_zeta_sderiv_minus1_at_1(ctx60):
    # zeta'(-1, 1) = 1/12 - ln A (Glaisher); reference digits frozen from the
    # defining sum evaluated independently
    with ctx60.work():
        v = hurwitz_zeta_sderiv(-1, mpf(1), ctx60)
        assert abs(v - mpf("-0.16542114370045092921391966024278064276403638")) < mpf("1e-40")


def test_zeta_sderiv_central_difference(ctx100):
    # d/ds zeta(s, a) at s = -1 against a central difference in s
    a = mpf("0.731")
    with ctx100.work():
        h = mpf("1e-25")
        num = (hurwitz_zeta(-1 + h, a, ctx100) - hurwitz_zeta(-1 - h, a, ctx100)) / (2 * h)
        der = hurwitz_zeta_sderiv(-1, a, ctx100)
        assert abs(num - der) < mpf("1e-45")


def test_zeta_sderiv_rejects_other_s(ctx60):
    with pytest.raises(DomainError):
        hurwitz_zeta_sderiv(2, mpf(1), ctx60)


def test_zeta_precision_monotonicity():
    # increasing digits only appends digits; low-precision value is a prefix
    a = mpf("0.37")
    v40 = hurwitz_zeta(3, a, PrecisionContext(40))
    v80 = hurwitz_zeta(3, a, PrecisionContext(80))
    with mp.workdps(100):
        assert abs(v40 - v80) < mpf("1e-38") * abs(v80)


def _argument(text: str, ctx: PrecisionContext) -> mpf:
    """One mpf for both sides of a comparison: a 53-bit a is another argument."""
    with ctx.work():
        return mpf(text)


def _mpmath(f, ctx: PrecisionContext, *args):
    """An mpmath builtin at 10 digits above the context's nominal digits."""
    with mp.workdps(ctx.digits + 10):
        return f(*args)


@pytest.mark.parametrize("a", ["5e-16", "1e-6", "0.045", "0.5", "1", "17.5", "2000.25"])
@pytest.mark.parametrize("digits", [30, 300, 1000])
@pytest.mark.parametrize("s0", [0, -1])
def test_zeta_sderiv_edge_sweep_against_mpmath(s0, digits, a):
    # a = 5e-16 is q = 1/(2 sqrt(beta)) at beta = 1e30; tiny and large a
    # stress the correction count chosen from the remainder bound
    ctx = PrecisionContext(digits)
    a = _argument(a, ctx)
    ref = _mpmath(zeta, ctx, s0, a, 1)
    assert rel_err(hurwitz_zeta_sderiv(s0, a, ctx), ref) < mpf(10) ** (1 - digits)


@pytest.mark.parametrize("digits", [1000, 1500])
def test_high_precision_against_mpmath(digits):
    # hurwitz_zeta_sderiv: the sweep above at 1000 digits, and every closed
    # form at 1000 and 1500 (test_closed_form_high_precision_against_mpmath)
    ctx = PrecisionContext(digits)
    tol = mpf(10) ** (1 - digits)
    a = _argument("0.731", ctx)
    for s in (2, 3, -1):
        assert rel_err(hurwitz_zeta(s, a, ctx), _mpmath(zeta, ctx, s, a)) < tol, s
    for text in ("0.3", "2.5", "17"):
        b = _argument(text, ctx)
        assert rel_err(ln_gamma(b, ctx), _mpmath(mp.loggamma, ctx, b)) < tol, text


def test_zeta_general_s_keeps_digits_or_raises():
    # At s = -200.5 the Euler-Maclaurin terms grow from the first one at this
    # shift: a typed error, not truncated digits
    ctx = PrecisionContext(30)
    with pytest.raises(OracleFailureError):
        hurwitz_zeta(mpf("-200.5"), mpf(1), ctx)
    for s, a in (("-20.5", "0.731"), ("40.5", "0.731"), ("25.25", "1e5")):
        # zeta(25.25, 1e5) ~ 1e-123: the corrections must stop relative to
        # it. mpmath stops at an absolute tolerance, hence its 200 digits.
        s, a = mpf(s), _argument(a, ctx)
        with mp.workdps(200):
            ref = zeta(s, a)
        assert rel_err(hurwitz_zeta(s, a, ctx), ref) < mpf("1e-29"), s


# ---------------------------------------------------------------------------
# Laguerre polynomials.
# ---------------------------------------------------------------------------

def explicit_laguerre(m: int, z):
    # L_m(z) = sum_k C(m,k) (-z)^k / k!
    acc = mpf(0)
    for k in range(m + 1):
        acc += Fraction(math.comb(m, k), math.factorial(k)) * (-z) ** k
    return acc


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 11, 20, 30])
def test_laguerre_recurrence_matches_explicit_sum(m, ctx60):
    with ctx60.work():
        for z in (mpf("0.25"), mpf(1), mpf("7.5")):
            ref = explicit_laguerre(m, z)
            assert abs(laguerre_eval(m, z, ctx60) - ref) < mpf("1e-50") * max(1, abs(ref))


def test_laguerre_seq_consistent(ctx60):
    with ctx60.work():
        z = mpf("2.125")
        seq = _laguerre_seq(z, 12)
        for m, v in enumerate(seq):
            assert abs(v - laguerre_eval(m, z, ctx60)) < mpf("1e-55")


def test_laguerre_at_zero(ctx60):
    for m in range(8):
        assert laguerre_eval(m, mpf(0), ctx60) == 1


# ---------------------------------------------------------------------------
# Precision context.
# ---------------------------------------------------------------------------

def test_context_rejects_low_digits():
    with pytest.raises(DomainError):
        PrecisionContext(29)
    PrecisionContext(30)  # boundary accepted


def test_context_work_scopes_precision():
    ctx = PrecisionContext(45, guard=15)
    before = mp.dps
    with ctx.work():
        assert mp.dps == 60
    assert mp.dps == before
