"""Scalar layer: Bernoulli numbers, the s-derivative of Hurwitz zeta,
digamma at integers, precision-context behavior."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, zeta

from heulag import DomainError, PrecisionContext
from heulag import specfun
from heulag.finitepart import _zeta_bernoulli
from heulag.specfun import (
    _bernoulli_even,
    _digamma_int,
    _euler_gamma,
    _em_plan,
    _hurwitz_zeta,
    _zeta_sderivs,
)
import zeta_sderiv_references
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
    assert _bernoulli_even(n // 2) == akiyama_tanigawa(n)


def test_bernoulli_first_values():
    assert _bernoulli_even(1) == Fraction(1, 6)
    assert _bernoulli_even(2) == Fraction(-1, 30)
    assert _bernoulli_even(3) == Fraction(1, 42)
    assert _bernoulli_even(4) == Fraction(-1, 30)


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
    _bernoulli_even(3)
    cache = _LengthLog(specfun._bern_even[:3])
    monkeypatch.setattr(specfun, "_bern_even", cache)
    assert _bernoulli_even(40) == akiyama_tanigawa(80)
    assert cache.lengths[-1] >= 40
    assert cache.lengths == sorted(cache.lengths)
    assert [_bernoulli_even(k) for k in range(1, 4)] == [Fraction(1, 6), Fraction(-1, 30),
                                                          Fraction(1, 42)]


def test_bernoulli_rejects_odd_or_negative():
    # _bernoulli_even(k) is B_2k, so odd n has no k; k = 0 and k < 0 (n = 0,
    # n < 0) are refused, also once the cache is filled
    _bernoulli_even(3)
    for bad in (0, -2):
        with pytest.raises(DomainError):
            _bernoulli_even(bad)


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
        assert abs(_digamma_int(2) - (1 - g)) < mpf("1e-45")
        assert abs(_digamma_int(3) - (mpf(3) / 2 - g)) < mpf("1e-45")
        assert abs(_digamma_int(4) - (-g + 1 + mpf(1) / 2 + mpf(1) / 3)) < mpf("1e-45")


def test_euler_gamma_context_rounding_and_refinement():
    ctx30, ctx50 = PrecisionContext(30), PrecisionContext(50)
    with ctx30.work():
        v30 = ctx30.round(_euler_gamma())
    with ctx50.work():
        v50 = ctx50.round(_euler_gamma())
        assert abs(v30 - mpf("0.577215664901532860606512090082")) < mpf("1e-29")
        assert abs(v50 - v30) < mpf("1e-29")
        # gamma = -psi(1); both sides round symmetrically at the same context
        assert v50 == mp.fneg(ctx50.round(_digamma_int(1)), exact=True)


# ---------------------------------------------------------------------------
# Hurwitz zeta at s in {0, -1} and its s-derivative.
# ---------------------------------------------------------------------------

def test_zeta_at_0_is_half_minus_a(ctx60):
    # the finite-part kernels take zeta(0, a) as the polynomial 1/2 - a
    with ctx60.work():
        for a in (mpf("0.25"), mpf(1), mpf("3.75"), mpf(40)):
            assert abs(_zeta_bernoulli(0, a) - zeta(0, a)) < mpf("1e-55")


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(50)))
def test_zeta_minus1_equals_polynomial(nu):
    # zeta(-1, a) = -1/12 + a/2 - a^2/2, which the finite-part kernels
    # evaluate as the Bernoulli polynomial -(a^2 - a + 1/6)/2
    with mp.workdps(60):
        a = mpf(nu.numerator) / nu.denominator
        ref = zeta(-1, a)
        assert abs(_zeta_bernoulli(-1, a) - ref) < mpf("1e-35") * max(1, abs(ref))


def test_zeta_sderiv_at_zero_is_lngamma_identity(ctx60):
    # zeta'(0, a) = ln Gamma(a) - (1/2) ln 2pi, against mpmath's loggamma
    with ctx60.work():
        for a in (mpf("0.3"), mpf(1), mpf("2.5"), mpf(17)):
            lhs = _hurwitz_zeta(0, a)
            rhs = mp.loggamma(a) - mp.log(2 * mp.pi) / 2
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx60.digits - 5))


def test_zeta_sderiv_minus1_at_1(ctx60):
    # zeta'(-1, 1) = 1/12 - ln A (Glaisher); reference digits frozen from the
    # defining sum evaluated independently
    with ctx60.work():
        v = _hurwitz_zeta(-1, mpf(1))
        assert abs(v - mpf("-0.16542114370045092921391966024278064276403638")) < mpf("1e-40")


def test_zeta_sderiv_central_difference(ctx100):
    # d/ds zeta(s, a) at s = -1 against a central difference in s of
    # mpmath's zeta(s, a)
    a = mpf("0.731")
    with ctx100.work():
        h = mpf("1e-25")
        num = (zeta(-1 + h, a) - zeta(-1 - h, a)) / (2 * h)
        der = _hurwitz_zeta(-1, a)
        assert abs(num - der) < mpf("1e-45")


def test_zeta_precision_monotonicity():
    # increasing digits only appends digits; low-precision value is a prefix
    a = mpf("0.37")
    with PrecisionContext(40).work():
        v40 = _hurwitz_zeta(-1, a)
    with PrecisionContext(80).work():
        v80 = _hurwitz_zeta(-1, a)
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


def _zeta_sderiv(s0: int, a: mpf, ctx: PrecisionContext) -> mpf:
    with ctx.work():
        return _hurwitz_zeta(s0, a)


ZETA_REFERENCES = zeta_sderiv_references.load()
LOGGAMMA_REFERENCES = zeta_sderiv_references.load_loggamma()


@pytest.mark.parametrize("a", zeta_sderiv_references.ARGUMENTS)
@pytest.mark.parametrize("digits", [30, 300, zeta_sderiv_references.DIGITS])
@pytest.mark.parametrize("s0", zeta_sderiv_references.ORDERS)
def test_zeta_sderiv_edge_sweep_against_mpmath(s0, digits, a):
    # a = 5e-16 is q = 1/(2 sqrt(beta)) at beta = 1e30; tiny and large a
    # stress the correction count chosen from the remainder bound. mpmath's
    # references at 1000 digits are frozen: each takes it 3-5 s.
    ctx = PrecisionContext(digits)
    x = _argument(a, ctx)
    if digits == zeta_sderiv_references.DIGITS:
        with mp.workdps(digits + 10):
            ref = mpf(ZETA_REFERENCES[str(s0)][a])
    else:
        ref = _mpmath(zeta, ctx, s0, x, 1)
    assert rel_err(_zeta_sderiv(s0, x, ctx), ref) < mpf(10) ** (1 - digits)


def test_frozen_zeta_references_match_mpmath():
    # recomputing at 100 digits catches a corrupted or truncated data file
    z = zeta_sderiv_references
    refs = [(ZETA_REFERENCES[str(s0)][a], z.DIGITS, z.mpmath_zeta_sderiv(s0, a, 100))
            for s0 in z.ORDERS for a in z.ARGUMENTS]
    refs += [(LOGGAMMA_REFERENCES[str(digits)][a], digits,
              z.mpmath_zeta0_sderiv_by_loggamma(a, 100))
             for digits in z.LOGGAMMA_DIGITS for a in z.LOGGAMMA_ARGUMENTS]
    for text, digits, fresh in refs:
        mantissa = text.partition("e")[0].lstrip("-0.").replace(".", "")
        assert len(mantissa) >= digits + 10, text[:20]
        with mp.workdps(110):
            assert rel_err(fresh, mpf(text)) < mpf("1e-105"), text[:20]


@pytest.mark.parametrize("digits", zeta_sderiv_references.LOGGAMMA_DIGITS)
def test_high_precision_against_mpmath(digits):
    # zeta'(0, a) = ln Gamma(a) - (1/2) ln 2pi against mpmath's loggamma,
    # frozen: its first call at these precisions takes seconds. zeta'(-1, a)
    # at 1000 digits is the sweep above, and every closed form, which takes
    # both, at 1000 and 1500 digits is
    # test_closed_form_high_precision_against_mpmath
    ctx = PrecisionContext(digits)
    tol = mpf(10) ** (1 - digits)
    for text in zeta_sderiv_references.LOGGAMMA_ARGUMENTS:
        with mp.workdps(digits + 10):
            ref = mpf(LOGGAMMA_REFERENCES[str(digits)][text])
        assert rel_err(_zeta_sderiv(0, _argument(text, ctx), ctx), ref) < tol, text


@pytest.mark.parametrize("orders", [(-1,), (0,), (-1, 0)])
def test_cold_zeta_sderiv_grows_the_bernoulli_cache_once(monkeypatch, orders):
    # the correction tables fill upward from j = 1 - s; the Bernoulli cache
    # must grow to the largest correction count in one step, not in doubling
    # steps on the way up
    cache = _LengthLog([])
    monkeypatch.setattr(specfun, "_bern_even", cache)
    specfun._em_corrections.cache_clear()
    ctx = PrecisionContext(300)
    with ctx.work():
        a = mpf("0.045")
        J = max(_em_plan(a, s)[1] for s in orders)
        _zeta_sderivs(a, orders)
    assert len(cache.lengths) == 2 and cache.lengths[-1] >= J, cache.lengths


def _ulp(x: mpf) -> mpf:
    """One unit in the last place of x at the ambient precision."""
    _, _, exp, bc = x._mpf_
    return mp.ldexp(1, exp + bc - mp.prec)


HISTORY_DIGITS = (30, 300, zeta_sderiv_references.DIGITS)


def _sderiv_bits(digits_order) -> dict:
    """{(s0, digits, a): the mantissa tuple of zeta'(s0, a)} in the given
    order of precisions."""
    out = {}
    for digits in digits_order:
        ctx = PrecisionContext(digits)
        for a in zeta_sderiv_references.ARGUMENTS:
            for s0 in zeta_sderiv_references.ORDERS:
                out[s0, digits, a] = _zeta_sderiv(s0, _argument(a, ctx), ctx)._mpf_
    return out


def test_zeta_sderiv_bits_do_not_depend_on_history():
    # the correction tables are caches: the same bits before any 1000-digit
    # call, after one, and after the tables are dropped and refilled in
    # another order of precisions
    specfun._em_corrections.cache_clear()
    before = _sderiv_bits(HISTORY_DIGITS[:2])
    first = _sderiv_bits(HISTORY_DIGITS[2:])
    after = _sderiv_bits(HISTORY_DIGITS)
    specfun._em_corrections.cache_clear()
    cleared = _sderiv_bits(reversed(HISTORY_DIGITS))
    assert after == {**before, **first}
    assert cleared == after


@pytest.mark.parametrize("digits", HISTORY_DIGITS)
def test_paired_zeta_sderivs_match_single_calls(digits):
    # one pass for both orders: zeta'(-1, a) is the single call to the bit;
    # zeta'(0, a), taken at zeta'(-1, a)'s higher working precision, is within
    # 1 ulp of the single call
    ctx = PrecisionContext(digits)
    with ctx.work():
        for text in zeta_sderiv_references.ARGUMENTS:
            a = mpf(text)
            pair = _zeta_sderivs(a, (-1, 0))
            single = _hurwitz_zeta(-1, a), _hurwitz_zeta(0, a)
            assert pair[0]._mpf_ == single[0]._mpf_, text
            assert abs(pair[1] - single[1]) <= _ulp(single[1]), text


# ---------------------------------------------------------------------------
# Precision context.
# ---------------------------------------------------------------------------

def test_context_rejects_low_digits():
    with pytest.raises(DomainError):
        PrecisionContext(29)
    PrecisionContext(30)  # boundary accepted


def test_context_work_scopes_precision():
    ctx = PrecisionContext(40)
    before = mp.dps
    with ctx.work():
        assert mp.dps == 60
    assert mp.dps == before
    with ctx.work(-10):  # below the guard, as the quadrature oracle runs
        assert mp.dps == 50
    assert mp.dps == before
    with pytest.raises(ZeroDivisionError):
        with ctx.work(5):
            assert mp.dps == 65
            mpf(1) / 0
    assert mp.dps == before
