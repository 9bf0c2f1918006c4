"""Scalar layer: Bernoulli numbers, the s-derivative of Hurwitz zeta,
precision-context behavior."""
import math
import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ln, mp, mpf, sqrt, zeta

from heulag import DomainError, ModelId, OracleFailureError, PrecisionContext
from heulag import specfun
from heulag.finitepart import _zeta_bernoulli
from heulag.models import closed_form
from heulag.specfun import (
    _bernoulli_even,
    _em_plan,
    _zeta_sderivs,
)
import closed_form_references
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
    # growth extends the cache; it never rebuilds or shortens it
    _bernoulli_even(3)
    cache = _LengthLog(specfun._bern_even[:3])
    monkeypatch.setattr(specfun, "_bern_even", cache)
    assert _bernoulli_even(40) == akiyama_tanigawa(80)
    assert cache.lengths[-1] >= 40
    assert cache.lengths == sorted(cache.lengths)
    assert [_bernoulli_even(k) for k in range(1, 4)] == [Fraction(1, 6), Fraction(-1, 30),
                                                          Fraction(1, 42)]


def _tangent_triangle(n: int) -> list[int]:
    """T_1..T_n from the whole integer triangle in one build: the reference
    for the cache's column-by-column growth."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def test_bernoulli_cache_grown_in_steps_matches_the_whole_triangle(monkeypatch):
    # growth extends the triangle column by column from its stored edge
    want = [Fraction((-1) ** j * t * (2 * j + 2), 4 ** (j + 1) * (4 ** (j + 1) - 1))
            for j, t in enumerate(_tangent_triangle(800))]
    edges = []
    for steps in ((800,), (1, 2, 5, 37, 38, 200, 799, 800)):
        monkeypatch.setattr(specfun, "_bern_even", [])
        monkeypatch.setattr(specfun, "_tangent_edge", [])
        for k in steps:
            _bernoulli_even(k)
            assert len(specfun._bern_even) == len(specfun._tangent_edge) == k
        assert specfun._bern_even == want
        edges.append(specfun._tangent_edge)
    assert edges[0] == edges[1]


def test_bernoulli_rejects_odd_or_negative():
    # _bernoulli_even(k) is B_2k, so odd n has no k; k = 0 and k < 0 (n = 0,
    # n < 0) are refused, also once the cache is filled
    _bernoulli_even(3)
    for bad in (0, -2):
        with pytest.raises(DomainError):
            _bernoulli_even(bad)


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
            lhs = _zeta_sderivs(a, (0,))[0]
            rhs = mp.loggamma(a) - mp.log(2 * mp.pi) / 2
            assert abs(lhs - rhs) < mpf(10) ** (-(ctx60.digits - 5))


def test_zeta_sderiv_minus1_at_1(ctx60):
    # zeta'(-1, 1) = 1/12 - ln A (Glaisher); reference digits frozen from the
    # defining sum evaluated independently
    with ctx60.work():
        v = _zeta_sderivs(mpf(1), (-1,))[0]
        assert abs(v - mpf("-0.16542114370045092921391966024278064276403638")) < mpf("1e-40")


def test_zeta_sderiv_central_difference(ctx100):
    # d/ds zeta(s, a) at s = -1 against a central difference in s of
    # mpmath's zeta(s, a)
    a = mpf("0.731")
    with ctx100.work():
        h = mpf("1e-25")
        num = (zeta(-1 + h, a) - zeta(-1 - h, a)) / (2 * h)
        der = _zeta_sderivs(a, (-1,))[0]
        assert abs(num - der) < mpf("1e-45")


def test_zeta_precision_monotonicity():
    # increasing digits only appends digits; low-precision value is a prefix
    a = mpf("0.37")
    with PrecisionContext(40).work():
        v40 = _zeta_sderivs(a, (-1,))[0]
    with PrecisionContext(80).work():
        v80 = _zeta_sderivs(a, (-1,))[0]
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
        return _zeta_sderivs(a, (s0,))[0]


ZETA_REFERENCES = zeta_sderiv_references.DATASET.load()
LOGGAMMA_REFERENCES = zeta_sderiv_references.LOGGAMMA_DATASET.load()


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
            single = _zeta_sderivs(a, (-1,))[0], _zeta_sderivs(a, (0,))[0]
            assert pair[0]._mpf_ == single[0]._mpf_, text
            assert abs(pair[1] - single[1]) <= _ulp(single[1]), text


def _reference_em_plan(a: mpf, s: int) -> tuple[int, int, int]:
    """_em_plan as a loop over j that adds ln F_j one factor at a time and
    stops at the first bound below the floor, or raises at the first that
    grows."""
    dps = mp.dps
    N = max(0, int(dps / 2 - a) + 1)
    lz, la = float(ln(a + N, prec=53)), float(ln(a, prec=53))
    head, step = math.log(4) + (1 - s) * lz, math.log(2 * math.pi) + lz
    floor = -(dps + 5) * math.log(10)
    log_f, prev = 0.0, math.inf
    for j in count(1):
        for i in (2 * j - 3, 2 * j - 2):
            f = abs(s + i) if i >= 0 else 1
            log_f += math.log(f) if f else 0.0
        bound = head + log_f - 2 * j * step
        if bound < floor:
            cancel = (1 - s) * (lz - max(0.0, la))
            return N, j - 1, int(cancel / math.log(10)) + 3
        if bound > prev:
            raise OracleFailureError("the bound grows first")
        prev = bound


def _plan_or_raises(plan, a: mpf, s: int):
    try:
        return plan(a, s)
    except OracleFailureError:
        return "raises"


def test_em_plan_matches_the_reference_loop():
    # a log-uniform in [1e-16, 3000] at the working precisions the closed
    # forms run at, and at a few tiny ones where the bound grows before it
    # reaches the floor and both raise
    rng = random.Random(26)
    raised = 0
    for dps in (2, 4, 6, 8, 50, 70, 120, 170, 320, 1020, 1520):
        with mp.workdps(dps):
            for _ in range(300):
                a = mpf(10) ** rng.uniform(-16, math.log10(3000))
                for s in (0, -1):
                    want = _plan_or_raises(_reference_em_plan, a, s)
                    assert _plan_or_raises(_em_plan, a, s) == want, (dps, a, s)
                    raised += want == "raises"
    assert raised > 100


@pytest.mark.parametrize("k", [16, 300, 3000, 30000])
def test_zeta_sderiv_at_tiny_arguments(k):
    # a enters the product exactly, so a = 10^-k keeps every digit however
    # far below the fixed point's 2^-F it lies
    ctx = PrecisionContext(60)
    a = _argument(f"1e-{k}", ctx)
    ref = _mpmath(zeta, ctx, -1, a, 1)
    assert rel_err(_zeta_sderiv(-1, a, ctx), ref) < mpf("1e-59")


@pytest.mark.parametrize("beta", ["1e300", "1e3000"])
@pytest.mark.parametrize("model", list(ModelId))
def test_closed_form_at_huge_beta(model, beta):
    # q = 1/(2 sqrt(beta)) and 1/sqrt(beta) down to 1e-1500
    got = closed_form(model, beta, PrecisionContext(60))
    ref = closed_form_references.mpmath_closed_form(model.value, beta, 70)
    with mp.workdps(70):
        assert rel_err(got, ref) < mpf("1e-59")


# 12 betas from 1e-6 to 1e30 with long decimal mantissas, as the benchmark
# draws them
ULP_BETAS = ("1e-6", "3.71153e-5", "0.000802941", "0.0131237", "0.27183", "1.31955",
             "41.3273", "834.336", "126311", "8.40597e+9", "1.29965e+19", "1e30")


@pytest.mark.parametrize("digits", [30, 100, 300])
def test_zeta_sderivs_within_an_ulp_at_closed_form_arguments(digits):
    # nu = (1 + sqrt b)/(2 sqrt b), 1/(2 sqrt b) and 1/sqrt b as the closed
    # forms pass them: full-precision mantissas. Every order of every call
    # lies within 1 ulp of the same call 60 digits higher.
    ctx, high = PrecisionContext(digits), PrecisionContext(digits + 60)
    for text in ULP_BETAS:
        with ctx.work():
            rb = sqrt(mpf(text))
            args = ((1 + rb) / (2 * rb), 1 / (2 * rb), 1 / rb)
        for a in args:
            for orders in ((-1,), (0,), (-1, 0)):
                with ctx.work():
                    got = _zeta_sderivs(a, orders)
                with high.work():
                    want = _zeta_sderivs(a, orders)
                with ctx.work():
                    for s, g, w in zip(orders, got, want):
                        assert abs(g - w) <= _ulp(g), (text, a, orders, s)


# ---------------------------------------------------------------------------
# Precision context.
# ---------------------------------------------------------------------------

def test_context_rejects_low_digits():
    # and digits that are not an int, or are a bool
    for bad in (29, "60", 60.5, 60.0, True, None):
        with pytest.raises(DomainError):
            PrecisionContext(bad)
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
