"""Extrapolant layer: finite-part kernel values, tail construction, the pole
correction, and end-to-end accuracy against the closed forms."""
import math
import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import euler, exp, log, log10, mp, mpf, polyval
from mpmath.libmp import mpf_mul, mpf_sum, to_rational

from heulag import (
    DomainError,
    Extrapolant,
    ModelId,
    PrecisionContext,
    closed_form,
    coefficients,
    extrapolate,
    fp_exp_over_xm,
    rho_eval,
    tail_sum,
)
from heulag import extrapolant, momentrec
from heulag.extrapolant import (_T_extra, _beta_sum, _delta_raw, _fp_kernel_values,
                                _tail_coefficients)
from heulag.momentrec import _density_taylor
from conftest import printed_match, rel_err
from fp_cutoff_oracle import KernelDescriptor, exp_kernel, fp_canonical_oracle
import stieltjes_reference
import strong_field_limit


# ---------------------------------------------------------------------------
# Finite-part kernel table M[j] = FP int_0^inf e^{-x/2} x^{-j} dx, j = -d..jmax.
# ---------------------------------------------------------------------------

def _kernel_table(d: int, jmax: int, ctx: PrecisionContext) -> dict[int, mpf]:
    with ctx.work():
        pairs = _fp_kernel_values(d, jmax, mp.prec)
        return dict(zip(range(-d, jmax + 1), (mpf(pair) for pair in pairs)))


def _reference_kernel(d: int, jmax: int) -> list[mpf]:
    """The kernel table as a loop over mpf objects at ambient precision, in the
    same order of operations as the libmp table."""
    out = [mpf(factorial(n) << (n + 1)) for n in range(d, -1, -1)]
    gamma = +mp.euler
    ln_half = -log(mpf(2))
    harmonic = mpf(0)  # H_{j-1}
    inv_fact = mpf(1)  # 1/(j-1)!
    power = mpf(1)  # (1/2)^{j-1}
    for j in range(1, jmax + 1):
        psi_j = -gamma + harmonic
        out.append((-1) ** j * power * inv_fact * (ln_half - psi_j))
        harmonic += mpf(1) / j
        power /= 2
        inv_fact /= j
    return out


def test_kernel_k0_l0_is_ln2_minus_gamma(ctx60):
    v = _kernel_table(0, 1, ctx60)[1]
    with mp.workdps(80):
        assert abs(v - (log(2) - euler())) < mpf("1e-55")


def test_kernel_matches_fp_exp(ctx60):
    # the divergent orders j >= 1 are the closed formula for FP e^{-bx}/x^j
    M = _kernel_table(3, 9, ctx60)
    with mp.workdps(80):
        for j in range(1, 10):
            rhs = fp_exp_over_xm(Fraction(1, 2), j, ctx60)
            assert abs(M[j] - rhs) < mpf("1e-55") * max(1, abs(rhs)), j


def test_kernel_k0_against_canonical_oracle(ctx50):
    v = _kernel_table(0, 1, ctx50)[1]
    o = fp_canonical_oracle(exp_kernel(Fraction(1, 2), 6), 1, ctx50)
    with mp.workdps(70):
        assert abs(v - o) < mpf("1e-20")


def test_kernel_convergent_orders_are_exact(ctx60):
    # j <= 0 converges: int_0^inf e^{-x/2} x^n dx = n! 2^{n+1}, n = -j
    M = _kernel_table(30, 1, ctx60)
    for n in range(31):
        assert M[-n] == factorial(n) * 2 ** (n + 1), n


@pytest.mark.parametrize("d", [19, 49, 199])
def test_kernel_table_matches_the_mpf_loop(d):
    for ctx in (PrecisionContext(30), PrecisionContext(45), PrecisionContext(200)):
        M = _kernel_table(d, 4 * d + 1, ctx)
        with ctx.work():
            ref = _reference_kernel(d, 4 * d + 1)
        assert [M[j]._mpf_ for j in range(-d, 4 * d + 2)] == [r._mpf_ for r in ref], ctx


# ---------------------------------------------------------------------------
# The tail coefficients T_k as finite-part integrals of the density factor.
# ---------------------------------------------------------------------------

def _reference_tail(g, K: int) -> tuple[tuple[mpf, ...], int]:
    """(T, digits lost) through mpf objects: each g_l by mp.fdiv of its integer
    numerator and denominator, the mpf kernel loop, and mpf_mul/mpf_sum."""
    (N, D), d = g, len(g[0]) - 1
    prec, rnd = mp._prec_rounding
    gl = [mp.fdiv(n, D)._mpf_ for n in N]
    M = [m._mpf_ for m in _reference_kernel(d, 2 * K + 1)]
    T, lost_bits = [], 0
    for k in range(K + 1):
        terms = [mpf_mul(a, M[2 * k + 1 - l + d]) for l, a in enumerate(gl)]
        t = mpf_sum(terms, prec, rnd)
        T.append(mp.make_mpf(t))
        if t[1]:
            top = max(exp + bc for _, man, exp, bc in terms if man)
            lost_bits = max(lost_bits, top - (t[2] + t[3]))
    return tuple(T), math.ceil(lost_bits * math.log10(2))


def _exact_c(rec) -> list[Fraction]:
    """The dyadic coefficients c_m as exact signed rationals."""
    return [Fraction(*to_rational(cm._mpf_)) for cm in rec.c]


def _binomial_sums(rec) -> tuple[tuple[int, ...], int]:
    """(N, D) with D = d! 2^max(-e, 0) and N_l = (-1)^l (d!/l!) 2^max(e, 0) G_l,
    where G_l 2^e = sum_m c_m C(m, l) and e is the least exponent of the c_m,
    so that every G_l is an integer."""
    d, e = rec.d, min(cm.man_exp[1] for cm in rec.c if cm)
    x = [cm / Fraction(2) ** e for cm in _exact_c(rec)]
    G = [sum(x[m] * comb(m, l) for m in range(l, d + 1)) for l in range(d + 1)]
    N = tuple((-1) ** l * (factorial(d) // factorial(l) << max(e, 0)) * G[l]
              for l in range(d + 1))
    return N, factorial(d) << max(-e, 0)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("d", [0, 9, 49])
def test_density_taylor_is_the_binomial_sum(model, d, reconstruct):
    rec = reconstruct(model, d + 1, 60)
    assert _density_taylor(rec) == _binomial_sums(rec)


@pytest.mark.parametrize("moments", [160, 200])
def test_density_taylor_keeps_the_sign_of_negative_coefficients(moments, reconstruct):
    # spin0 is the model with negative c_m at these sizes (18 at 160 moments)
    rec = reconstruct(ModelId.SPIN0, moments, 200)
    assert any(cm < 0 for cm in rec.c)
    assert _density_taylor(rec) == _binomial_sums(rec)


def test_weak_field_digits_at_200_moments(reconstruct):
    # with the signs of spin0's negative c_m kept, 13.9 digits at beta = 0.01
    ctx = PrecisionContext(200)
    rec = reconstruct(ModelId.SPIN0, 200, 200)
    value = extrapolate(ModelId.SPIN0, rec, "0.01", None, ctx).value
    assert -log10(rel_err(value, closed_form(ModelId.SPIN0, "0.01", ctx))) >= 13


def _bits(T) -> list[tuple]:
    return [t._mpf_ for t in T]


def _with_zeros(g):
    """g with every third entry from l = 0 on, and the last, set to zero."""
    (N, D), d = g, len(g[0]) - 1
    return tuple(0 if l % 3 == 0 or l == d else n for l, n in enumerate(N)), D


@pytest.mark.parametrize("model, moments, digits, zeros", [
    *((model, moments, digits, False) for model in ModelId
      for moments, digits in [(10, 30), (50, 60), (100, 100)]),
    (ModelId.SPIN0, 50, 60, True),
])
def test_integer_T_matches_the_mpf_reference(model, moments, digits, zeros, reconstruct):
    # the exact integer sums round to the mpf route's bits and lose as much,
    # at workdps and at the raised precision T is held at; a zero g_l takes
    # no part in the sums or in the loss
    ctx = PrecisionContext(digits)
    g = _density_taylor(reconstruct(model, moments, digits))
    if zeros:
        g = _with_zeros(g)
    K = 2 * (moments - 1)
    with ctx.work():
        T, lost = _tail_coefficients(g, K)
        ref, ref_lost = _reference_tail(g, K)
    assert (_bits(T), lost) == (_bits(ref), ref_lost)
    with ctx.work(lost + 5):
        (T, raised_lost), (ref, ref_raised_lost) = _tail_coefficients(g, K), _reference_tail(g, K)
    assert (_bits(T), raised_lost) == (_bits(ref), ref_raised_lost)


def _density_factor(rec, order: int) -> KernelDescriptor:
    """g(x) = e^{-x/2} sum_m c_m L_m(x) with `order` exact Taylor coefficients,
    taken from the dyadic coefficients c_m and the explicit Laguerre sums."""
    c = _exact_c(rec)
    poly = [sum(c[m] * comb(m, l) for m in range(l, rec.d + 1)) * (-1) ** l / factorial(l)
            for l in range(rec.d + 1)]
    taylor = [sum(poly[l] * Fraction(-1, 2) ** (i - l) / factorial(i - l)
                  for l in range(min(i, rec.d) + 1)) for i in range(order)]
    return KernelDescriptor(
        func=lambda x: exp(-x / 2) * polyval([mpf(p.numerator) / p.denominator for p in reversed(poly)], x),
        taylor=taylor, decay=Fraction(1, 2))


@pytest.mark.parametrize("k", [0, 1])
def test_tail_coefficient_is_canonical_finite_part(k, reconstruct):
    # T_k = FP int g(x) x^{-(2k+1)} dx, convergent orders (l > 2k) included
    ctx = PrecisionContext(40)
    rec = reconstruct(ModelId.SPIN0, 10, 40)
    T = Extrapolant.build(rec, 1, ctx).T
    oracle = fp_canonical_oracle(_density_factor(rec, 2 * k + 1), 2 * k + 1, ctx)
    assert rel_err(T[k], oracle) < mpf("1e-30")


@pytest.mark.parametrize("beta", ["1", "126.311", "8.40597e+06", "1e7", "1e18", "1e30"])
def test_tail_keeps_digits_beyond_the_guard(beta, reconstruct):
    # at d = 199 the T_k sums cancel 19-20 digits, past the 20 guard digits
    # less 5: the sum must run higher, with T held there or rebuilt
    rec = reconstruct(ModelId.SPIN0, 200, 200)
    ext = Extrapolant.build(rec, None, PrecisionContext(200))
    assert ext.lost_T > ext.ctx.guard - 5
    short = tail_sum(ext, beta)
    long = tail_sum(Extrapolant.build(rec, None, PrecisionContext(300)), beta)
    with mp.workdps(220):
        assert short == long or -log10(abs(short - long) / abs(long)) >= mpf("199.5")


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("beta", ["1e-4", "1e-3", "126.311", "8.40597e+06", "1e30"])
def test_tail_keeps_digits_where_the_beta_sum_cancels(model, beta, reconstruct):
    # at d = 49 the beta sum alone cancels ~27 digits at 1e-4 and ~11 at 1e-3;
    # at large beta it keeps only the first few terms
    short = tail_sum(Extrapolant.build(reconstruct(model, 50, 60), 98, PrecisionContext(60)), beta)
    long = tail_sum(Extrapolant.build(reconstruct(model, 50, 160), 98, PrecisionContext(160)),
                    beta)
    assert rel_err(short, long) < 10 ** mpf("-59.5")


def _reference_beta_sum(T, beta, p: int) -> tuple[mpf, int]:
    """(sum_k (-1)^k beta^{p-k} T_k, digits lost) in power form: every term
    formed with its own power of beta and summed left to right, and the loss
    read as mp.mag of the largest term less mp.mag of the sum."""
    terms = [(-1) ** k * beta ** (p - k) * t for k, t in enumerate(T)]
    total = sum(terms, mpf(0))
    lost = max(map(mp.mag, terms)) - mp.mag(total) if total else 0
    return total, math.ceil(max(0, lost) * math.log10(2))


@pytest.mark.parametrize("model", list(ModelId))
@settings(max_examples=50, deadline=None)
@given(log10_beta=st.floats(min_value=-6, max_value=30))
def test_beta_sum_agrees_with_the_power_form(model, log10_beta, reconstruct):
    # within 8 units in the last place of the largest term at workdps, the
    # unit that bounds both sums' rounding, and the same loss within a digit
    ctx = PrecisionContext(60)
    ext = Extrapolant.build(reconstruct(model, 50, 60), None, ctx)
    p = model.series_prefactor_power - 1
    with ctx.work():
        beta = mpf(10) ** log10_beta
        total, lost = _beta_sum(ext.T, beta, p)
        ref, ref_lost = _reference_beta_sum(ext.T, beta, p)
        top = max(mp.mag(beta ** (p - k) * t) for k, t in enumerate(ext.T))
        assert abs(total - ref) <= 8 * mpf(2) ** (top - mp.prec)
    assert abs(lost - ref_lost) <= 1


@pytest.mark.parametrize("p", [-1, 2])
@pytest.mark.parametrize("beta", ["0.0131237", "1.31955", "8.40597e+06"])
def test_beta_sum_takes_any_leading_power(p, beta, reconstruct):
    # the models use p = 0 and 1; the sum's contract holds for every integer p
    ctx = PrecisionContext(60)
    ext = Extrapolant.build(reconstruct(ModelId.SPIN0, 50, 60), None, ctx)
    with ctx.work():
        b = mpf(beta)
        total, lost = _beta_sum(ext.T, b, p)
        ref, ref_lost = _reference_beta_sum(ext.T, b, p)
        top = max(mp.mag(b ** (p - k) * t) for k, t in enumerate(ext.T))
        assert abs(total - ref) <= 8 * mpf(2) ** (top - mp.prec)
    assert abs(lost - ref_lost) <= 1


def test_beta_sum_reads_no_long_mantissa_as_a_float(monkeypatch, reconstruct):
    # with the gmpy2 backend a mantissa is an mpz, which math.log2 converts
    # through float() and so overflows past 1023 bits; 0.01 at 320 digits
    # has a 1063-bit mantissa
    ctx = PrecisionContext(300)
    ext = Extrapolant.build(reconstruct(ModelId.SPIN0, 10, 300), None, ctx)
    with ctx.work():
        beta = mpf("0.01")
        assert beta.bc > 1023
        expected = _beta_sum(ext.T, beta, 1)
        monkeypatch.setattr("heulag.extrapolant.log2", lambda n: math.log2(float(n)))
        assert _beta_sum(ext.T, beta, 1) == expected


@pytest.mark.parametrize("model", list(ModelId))
def test_fewer_digits_than_moments_keep_every_digit(model, reconstruct):
    # 100 moments at 30 digits against the same run at 90 digits
    ctx30, ctx90 = PrecisionContext(30), PrecisionContext(90)
    rec30, rec90 = reconstruct(model, 100, 30), reconstruct(model, 100, 90)
    for beta in ("0.01", "1", "1e7", "1e18"):
        r = extrapolate(model, rec30, beta, None, ctx30)
        ref = extrapolate(model, rec90, beta, None, ctx90)
        assert rel_err(r.tail, ref.tail) < mpf("1e-30")
        assert rel_err(r.delta, ref.delta) < mpf("1e-30")


@pytest.mark.parametrize("moments, digits", [(50, 60), (200, 200)], ids=["d49", "d199"])
@pytest.mark.parametrize("model", list(ModelId))
def test_one_build_evaluates_like_fresh_calls(model, moments, digits, reconstruct):
    # d = 199 takes the raised-precision paths, the held T's and a per-beta
    # rebuild's; reuse carries no state
    rec, ctx = reconstruct(model, moments, digits), PrecisionContext(digits)
    ext = Extrapolant.build(rec, None, ctx)
    for beta in ("1e-4", "0.01", "1", "1e7", "1e20"):
        assert ext.evaluate(beta) == extrapolate(model, rec, beta, None, ctx)
    # T is held higher only where its own loss needs it
    assert (_T_extra(ext.lost_T, ctx) > 0) == (moments == 200)


@pytest.mark.parametrize("model", list(ModelId))
def test_held_T_serves_betas_whose_sum_loses_at_most_the_guard(model, reconstruct, monkeypatch):
    # at d = 199 build holds T lost_T + 5 digits higher; a beta sum that
    # loses at most guard digits there leaves the digits asked for, so no
    # beta rebuilds T
    rec, ctx = reconstruct(model, 200, 200), PrecisionContext(200)
    builds = []
    monkeypatch.setattr(extrapolant, "_tail_coefficients",
                        lambda *a: builds.append(a) or _tail_coefficients(*a))
    ext = Extrapolant.build(rec, None, ctx)
    assert len(builds) == 2
    for beta in ("0.01", "0.1", "1"):
        with ctx.work(_T_extra(ext.lost_T, ctx)):
            assert _beta_sum(ext.T, mpf(beta), model.series_prefactor_power - 1)[1] <= ctx.guard
        ext.evaluate(beta)
    assert len(builds) == 2


def test_one_shot_calls_share_the_kernel_table(reconstruct):
    rec = reconstruct(ModelId.SPIN0, 50, 60)
    _fp_kernel_values.cache_clear()
    for beta in ("1", "1e7"):
        extrapolate(ModelId.SPIN0, rec, beta, None, PrecisionContext(60))
    assert _fp_kernel_values.cache_info().misses == 1


def test_kernel_cache_stays_bounded(reconstruct):
    # at d = 49 these betas' sums cancel 19 and 30 digits, so each raises the
    # precision by its own amount and asks for its own table
    rec = reconstruct(ModelId.SPIN0, 50, 60)
    ctx = PrecisionContext(60)
    _fp_kernel_values.cache_clear()
    for beta in ("3e-4", "1e-4"):
        extrapolate(ModelId.SPIN0, rec, beta, None, ctx)
    info = _fp_kernel_values.cache_info()
    assert info.misses > 1 and info.maxsize is not None and info.currsize <= info.maxsize


def _closed_form_T(g, K: int) -> list[mpf]:
    """T_0..T_K at ambient precision from Q(x) = sum_l G_l 2^l C(x, l), with
    G_l = (-1)^l l! N_l for (N, D) = g:

        T_k = 2^(-2k)/((2k)! D) [(ln 2 - gamma + H_2k) Q(2k) - Q'(2k)].

    The orders l <= 2k of the convolution give (ln 2 - gamma + H_2k) Q(2k)
    less the terms l <= 2k of Q'(2k); the convergent orders l > 2k give the
    terms l > 2k of -Q'(2k).
    Q and L Q', L = lcm(1..d), are stepped in exact integers by forward
    differences: Q's binomial coefficients are q_l = G_l 2^l, and Q''s are
    q'_i = sum_{m>=1} (-1)^(m-1) q_{i+m}/m (d/dx = ln(1 + forward
    difference)). Each T_k takes one rounding of ln 2 - gamma, 100 bits above
    the ambient precision, and is rounded once at the end."""
    (N, D), d = g, len(g[0]) - 1
    q = [(-1) ** l * factorial(l) * n << l for l, n in enumerate(N)]
    L = math.lcm(*range(1, d + 1))
    dq = [sum((-1) ** (m - 1) * q[i + m] * (L // m) for m in range(1, d + 1 - i))
          for i in range(d + 1)]
    T, harmonic = [], Fraction(0)  # H_n
    with mp.workprec(mp.prec + 100):
        c = mp.ln2 - mp.euler
        for n in range(2 * K + 1):
            if n % 2 == 0:
                rest = harmonic * q[0] - Fraction(dq[0], L)
                v = (c * q[0] + mpf(rest.numerator) / rest.denominator) * mpf(2) ** -n / D
                T.append(v / factorial(n))
            for row in (q, dq):  # row[i] = i-th forward difference at n + 1
                for i in range(d):
                    row[i] += row[i + 1]
            harmonic += Fraction(1, n + 1)
    return [+t for t in T]


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("moments, digits", [(50, 60), (100, 100), (200, 200)])
def test_exact_build_T_within_its_cancellation(model, moments, digits, reconstruct):
    # every T_k within 10^(lost_T + 1) units in its last place of the closed
    # form over Q, which cancels nothing
    ctx = PrecisionContext(digits)
    ext = Extrapolant.build(reconstruct(model, moments, digits), None, ctx)
    with ctx.work():
        for t, r in zip(ext.T, _closed_form_T(ext.g, ext.K), strict=True):
            ulp = mpf(2) ** (mp.mag(t) - mp.prec)
            assert abs(t - r) <= 10 ** (ext.lost_T + 1) * ulp


# ---------------------------------------------------------------------------
# Decomposition identities and diagnostics.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", ["0.01", "1", "1e7"])
def test_value_is_exact_sum_of_tail_and_delta(beta, ctx100, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 100, 100)
    r = extrapolate(ModelId.SPIN0, rec, beta, None, ctx100)
    assert mp.fadd(r.tail, r.delta, exact=True) == r.value
    with ctx100.work():
        assert r.value == r.tail + r.delta


def _complex_rho(g, z, ctx: PrecisionContext):
    """rho(z) = z e^{-z/2} sum_l g_l z^l in complex arithmetic: one exact
    Horner pass over the integers N_l of g = (N, D) at the dyadic z, divided
    once by D at the working precision and rounded to ctx.digits."""
    N, D = g
    with ctx.work():
        z = mp.mpc(z)
        acc = mpf(0)
        for n in reversed(N):
            acc = mp.fadd(mp.fmul(acc, z, exact=True), n, exact=True)
        v = z * exp(-z / 2) * mp.fdiv(acc, D)
    return ctx.round(v)


def _complex_pair_delta(model, g, beta: mpf, ctx: PrecisionContext):
    """Delta from rho at +i/sqrt(b) and at -i/sqrt(b), two complex density
    evaluations combined as complex numbers, at ambient precision."""
    rb = mp.sqrt(beta)
    rho_plus, rho_minus = (_complex_rho(g, mp.mpc(0, v / rb), ctx) for v in (1, -1))
    raw = (mp.pi * rb / 4) * (rho_plus + rho_minus) \
        + (rb * mp.ln(beta) / (4 * mp.mpc(0, 1))) * (rho_plus - rho_minus)
    return raw if model is ModelId.SELF_DUAL else beta * raw


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("moments, digits", [(10, 60), (50, 60), (100, 100), (200, 200)])
def test_delta_matches_the_complex_pair_formula(model, moments, digits, reconstruct):
    # the real pole-axis read gives the complex-pair Delta bit for bit at the
    # working precision, and the pair's imaginary part is exactly zero
    ctx = PrecisionContext(digits)
    ext = Extrapolant.build(reconstruct(model, moments, digits), 1, ctx)
    for beta in ("1e-6", "0.01", "1", "1e7", "1e30"):
        with ctx.work():
            b = mpf(beta)
            pair = _complex_pair_delta(model, ext.g, b, ctx)
            assert pair.imag == 0
            assert _delta_raw(ext, b) == pair.real


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("moments", [10, 50])
def test_density_on_the_pole_axis_is_conjugate_symmetric(model, moments, ctx60, reconstruct):
    # Delta takes rho(-i/sqrt(b)) as the conjugate of rho(i/sqrt(b)): bit for bit
    g = _density_taylor(reconstruct(model, moments, 60))
    for beta in ("1e-6", "0.01", "1", "1e7", "1e30"):
        with ctx60.work():
            y = 1 / mp.sqrt(mpf(beta))
            (re_plus, im_plus), (re_minus, im_minus) = (rho_eval(g, v, ctx60) for v in (y, -y))
        assert re_minus == re_plus
        assert im_minus == mp.fneg(im_plus, exact=True)  # unary minus would round


def test_evaluate_takes_no_factorial(monkeypatch, reconstruct):
    # the density's integers and their one denominator are made at build;
    # the pole read at each beta divides by the held D
    ext = Extrapolant.build(reconstruct(ModelId.SPIN0, 50, 60), None, PrecisionContext(60))
    calls = []
    monkeypatch.setattr(momentrec, "factorial", lambda n: calls.append(n) or factorial(n))
    for beta in ("1", "1e7"):
        ext.evaluate(beta)
    assert calls == []


def test_default_truncation_is_2d(ctx100, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 100, 100)
    r = extrapolate(ModelId.SPIN0, rec, "1", None, ctx100)
    assert r.K == 2 * rec.d


def test_truncation_beyond_2d_is_a_plain_truncation(ctx60, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 20, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = extrapolate(ModelId.SPIN0, rec, "1", 2 * rec.d + 5, ctx60)
    assert r.K == 2 * rec.d + 5


def test_model_mismatch_rejected(ctx60, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 20, 60)
    with pytest.raises(DomainError):
        extrapolate(ModelId.SPIN_HALF, rec, "1", None, ctx60)


def test_tail_sum_requires_positive_K(ctx60, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 20, 60)
    with ctx60.work():
        with pytest.raises(DomainError):
            tail_sum(Extrapolant.build(rec, 0, ctx60), mpf(1))


# ---------------------------------------------------------------------------
# A second route to tail + Delta: the Stieltjes integral as an exact rational
# part plus the auxiliary functions f and g (tests/stieltjes_reference.py).
# ---------------------------------------------------------------------------

_ITEM_11 = pytest.mark.xfail(strict=True, reason="ROADMAP item 11: weak-field extrapolate "
                                                 "with few moments returns wrong digits")
# (moments, beta, least agreeing digits of a 60-digit extrapolate): the
# strong-field cells keep about every digit. The short cells sit at their
# measured floor less 0.5: 50 and 200 moments at 0.01 and below, where the
# value loses digits at weak field (ROADMAP items 13 and 14; at 200 moments
# 1e-4 and 1e-3 keep 28-48 of 60, what is left after tail and Delta cancel,
# see test_weak_field_loss_is_the_cancellation_of_tail_and_delta), 10
# moments at 1 (the K = 2d truncation of item 11) and at 0.01, and 200
# moments at strong field. Item 11's weak-field cells are not even of the right size
# (floor 0); their strict xfails fail once they are.
_REFERENCE_CELLS = [
    *((50, beta, 59) for beta in ("1", "3", "1e7", "1e12", "1e20", "1e30")),
    *((10, beta, 57.5) for beta in ("3", "1e7", "1e12", "1e20", "1e30")),
    (50, "0.01", 55.5), (50, "1e-3", 49.5), (10, "1", 48.4), (10, "0.01", 8.7),
    (200, "1e-4", 27.4), (200, "1e-3", 44.3), (200, "0.01", 53.4), (200, "1", 58.9),
    (200, "3", 60), (200, "1e7", 60.5), (200, "1e12", 60.5), (200, "1e20", 60.4),
    (200, "1e30", 60.8),
    *(pytest.param(moments, beta, 0, marks=_ITEM_11)
      for moments, beta in ((50, "1e-4"), (10, "1e-4"), (10, "1e-3"),
                            *((m, b) for m in (10, 50, 200) for b in ("1e-10", "1e-6")))),
]
_STIELTJES = stieltjes_reference.DATASET.load()


@pytest.fixture(scope="module")
def built_at_60(reconstruct):
    """(model, moments) -> the one 60-digit Extrapolant that every beta reads,
    built on the reconstruction whose density the frozen values integrate."""
    return lru_cache(maxsize=None)(lambda model, moments: Extrapolant.build(
        reconstruct(model, moments, stieltjes_reference.RECONSTRUCTION_DIGITS), None,
        PrecisionContext(60)))


@pytest.fixture(scope="module")
def built_at_160(reconstruct):
    """(model, moments) -> a 160-digit Extrapolant on the density that
    built_at_60 reads."""
    return lru_cache(maxsize=None)(lambda model, moments: Extrapolant.build(
        reconstruct(model, moments, stieltjes_reference.RECONSTRUCTION_DIGITS), None,
        PrecisionContext(160)))


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("moments, beta, floor", _REFERENCE_CELLS)
def test_extrapolate_agrees_with_the_stieltjes_reference(model, moments, beta, floor,
                                                         built_at_60):
    value = built_at_60(model, moments).evaluate(beta).value
    with mp.workdps(120):
        ref = mpf(_STIELTJES[model.value][str(moments)][beta])
        assert -log10(abs(value - ref) / abs(ref)) >= floor


@pytest.mark.parametrize("beta", ["1e-4", "1e-3", "0.01"])
@pytest.mark.parametrize("model", list(ModelId))
def test_weak_field_loss_is_the_cancellation_of_tail_and_delta(model, beta, built_at_60,
                                                               built_at_160):
    # At 200 moments tail and Delta each keep every digit of a 160-digit build
    # on the same density (measured 60.9-62.8), but they cancel by c digits
    # (32.2-33.3 at 1e-4, 15.3-16.5 at 1e-3, 6.8-7.6 at 0.01), and value
    # keeps the 60 - c that are left (27.9-29.9, 44.8-47.7, 53.9-55.6).
    got, high = built_at_60(model, 200).evaluate(beta), built_at_160(model, 200).evaluate(beta)
    with mp.workdps(200):
        def digits(x, y):
            return -log10(abs(x - y) / abs(y))
        assert digits(got.tail, high.tail) >= 60
        assert digits(got.delta, high.delta) >= 60
        c = log10(max(abs(high.tail), abs(high.delta)) / abs(high.value))
        ref = mpf(_STIELTJES[model.value]["200"][beta])
        assert digits(got.value, ref) >= 60 - c - 1


@pytest.mark.parametrize("beta, tol", [("1e20", "1e-10"), ("1e30", "1e-15")])
@pytest.mark.parametrize("moments", stieltjes_reference.MOMENTS)
@pytest.mark.parametrize("model", list(ModelId))
def test_strong_field_limit_is_two_exact_numbers(model, moments, beta, tol, built_at_60):
    # As beta -> oo the extrapolant tends to beta^{s-1} [g0 (ln beta/2 + ln 2
    # - gamma) + C0], exact g0 = N_0/D and C0 = sum_{l>=1} N_l (l-1)! 2^l / D
    # from the build's g = (N, D) of _density_taylor, with a relative error
    # O(beta^{-1/2}) (measured at most 3.1e-11 at 1e20, 2.0e-16 at 1e30 and
    # 5.5e-7 at 1e12)
    ext = built_at_60(model, moments)
    (N, D), value = ext.g, ext.evaluate(beta).value
    C0 = Fraction(sum(n * factorial(l - 1) << l for l, n in enumerate(N) if l), D)
    with mp.workdps(80):
        b = mpf(beta)
        limit = b ** (model.series_prefactor_power - 1) * (
            mpf(N[0]) / D * (log(b) / 2 + log(2) - euler) + mpf(C0.numerator) / C0.denominator)
        assert abs(value - limit) <= mpf(tol) * abs(limit)


@pytest.mark.parametrize("moments", [m for m in strong_field_limit.MOMENTS if m <= 200])
@pytest.mark.parametrize("model", list(ModelId))
def test_frozen_strong_field_limits_match_a_fresh_computation(model, moments):
    # g0 and g0 (ln 2 - gamma) + C0 near their true limits slowly and not
    # monotonically (spin0's g0: 2.33 digits at 100 moments, 1.47 at 200); the
    # 400-moment rows take about 0.9 s each and are left to
    # `strong_field_limit.py --check`
    frozen_row = strong_field_limit.DATASET.load()[model.value][str(moments)]
    assert strong_field_limit.limit_row(model, moments) == frozen_row


@pytest.mark.parametrize("moments", [10, 50])
@pytest.mark.parametrize("model", list(ModelId))
def test_frozen_stieltjes_values_match_a_fresh_reference(model, moments):
    # digit for digit on today's density; the 200-moment rows take about 0.8 s
    # each and are left to `stieltjes_reference.py --check`
    frozen_row = _STIELTJES[model.value][str(moments)]
    assert stieltjes_reference.stieltjes_row(model, moments) == frozen_row


@pytest.mark.parametrize("beta", ["1e-10", "1e-6"])
@pytest.mark.parametrize("moments", [50, 200])
@pytest.mark.parametrize("model", list(ModelId))
def test_frozen_weak_field_stieltjes_values_match_the_series(model, moments, beta):
    # 40 terms of the exact weak-field series leave less than 1e-100 at these
    # betas, and the density reproduces them (measured 99.6-101.4 digits); a
    # reference that summed its cancelling parts too low reads noise here
    b, p = Fraction(beta), model.series_prefactor_power
    series = b ** p * sum(a * (-b) ** j for j, a in enumerate(coefficients(model, 40).a))
    with mp.workdps(120):
        value = mpf(series.numerator) / series.denominator
        ref = mpf(_STIELTJES[model.value][str(moments)][beta])
        assert -log10(abs(ref - value) / abs(value)) >= 99


# ---------------------------------------------------------------------------
# K-convergence: K = d and K = 2d agree below current accuracy.
# ---------------------------------------------------------------------------

def test_K_convergence(ctx100, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 100, 100)
    for beta in ("1", "1e7"):
        r1 = extrapolate(ModelId.SPIN0, rec, beta, rec.d, ctx100)
        r2 = extrapolate(ModelId.SPIN0, rec, beta, 2 * rec.d, ctx100)
        exact = closed_form(ModelId.SPIN0, beta, ctx100)
        with mp.workdps(120):
            current_accuracy = abs(r2.value - exact)
            assert abs(r1.value - r2.value) <= current_accuracy / 100 + mpf("1e-80")


# ---------------------------------------------------------------------------
# End-to-end accuracy and frozen regression rows.
# ---------------------------------------------------------------------------

def test_weak_field_accuracy_d59(ctx60, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 60, 60)
    r = extrapolate(ModelId.SPIN0, rec, "0.01", None, ctx60)
    exact = closed_form(ModelId.SPIN0, "0.01", ctx60)
    assert rel_err(r.value, exact) < mpf("1e-6")


def test_frozen_rows_spin0_d99(ctx100, reconstruct):
    rec = reconstruct(ModelId.SPIN0, 100, 100)
    r1 = extrapolate(ModelId.SPIN0, rec, "1", None, ctx100)
    assert printed_match(r1.value, "0.0139582784224")
    assert printed_match(r1.tail, "-0.100738126")
    assert printed_match(r1.delta, "0.1146964044")
    r7 = extrapolate(ModelId.SPIN0, rec, "1e7", None, ctx100)
    assert printed_match(r7.value, "10786863.7858")
    exact7 = closed_form(ModelId.SPIN0, "1e7", ctx100)
    assert rel_err(r7.value, exact7) < mpf("0.01")


def test_frozen_rows_spinhalf_and_sd_d99(ctx100, reconstruct):
    rh = reconstruct(ModelId.SPIN_HALF, 100, 100)
    r = extrapolate(ModelId.SPIN_HALF, rh, "1", None, ctx100)
    assert printed_match(r.value, "0.01639458995")
    rsd = reconstruct(ModelId.SELF_DUAL, 100, 100)
    r7 = extrapolate(ModelId.SELF_DUAL, rsd, "1e7", None, ctx100)
    assert printed_match(r7.value, "0.40507431")
    r18 = extrapolate(ModelId.SELF_DUAL, rsd, "1e18", None, ctx100)
    assert printed_match(r18.value, "1.2298876")


def test_accuracy_improves_with_moments(ctx100, reconstruct):
    # more moments push the extrapolant closer to the closed form at fixed beta
    exact = closed_form(ModelId.SPIN0, "4", ctx100)
    errs = []
    for moments, digits in ((30, 100), (60, 100), (100, 100)):
        rec = reconstruct(ModelId.SPIN0, moments, digits)
        r = extrapolate(ModelId.SPIN0, rec, "4", None, PrecisionContext(digits))
        errs.append(rel_err(r.value, exact))
    assert errs[0] > errs[1] > errs[2]
