"""Acceptance gate: nine criteria, one test (one pass/fail line under
pytest -v) per criterion, each at its stated tolerance."""
import time
from fractions import Fraction

from mpmath import mp, mpf

from heulag import (
    ModelId,
    PrecisionContext,
    build_P_exact,
    closed_form,
    coefficients,
    direct_integral_oracle,
    extrapolate,
    finite_part_assembly,
    fp_exp_over_xm,
    moments_from_coeffs,
    pade_eval,
    partial_sum,
    strong_field_leading,
    weniger_delta,
)
from conftest import _reconstruct, printed_match, rel_err, residual
from fp_cutoff_oracle import exp_kernel, fp_canonical_oracle


def test_criterion_01_closed_forms_match_every_printed_digit(ctx60):
    rows = [
        (ModelId.SPIN0, "0.01", "1.93238479692775525e-6"),
        (ModelId.SPIN0, "0.1", "1.83994677220e-4"),
        (ModelId.SPIN0, "0.2", "7.0356826048e-4"),
        (ModelId.SPIN_HALF, "1", "1.645989388e-2"),
        (ModelId.SPIN_HALF, "4", "0.1827035"),
        (ModelId.SELF_DUAL, "0.01", "4.1568145496490179111196e-5"),
    ]
    for model, beta, printed in rows:
        t0 = time.perf_counter()
        v = closed_form(model, beta, ctx60)
        elapsed = time.perf_counter() - t0
        assert printed_match(v, printed), (model, beta)
        assert elapsed < 1.0, (model, beta, elapsed)


def test_criterion_02_oracle_triangle(ctx60):
    t0 = time.perf_counter()
    tol = mpf("1e-25")
    for model in ModelId:
        for beta in ("0.01", "1", "100"):
            c = closed_form(model, beta, ctx60)
            q = direct_integral_oracle(model, beta, ctx60)
            a = finite_part_assembly(model, beta, ctx60)
            assert rel_err(q, c) < tol, (model, beta, "quad vs closed")
            assert rel_err(a, c) < tol, (model, beta, "assembly vs closed")
            assert rel_err(a, q) < tol, (model, beta, "assembly vs quad")
    assert time.perf_counter() - t0 < 60


def test_criterion_03_partial_sum_rows(ctx60):
    assert printed_match(partial_sum(ModelId.SPIN0, "0.01", 9, ctx60),
                         "1.932384796847e-6")
    assert printed_match(partial_sum(ModelId.SELF_DUAL, "0.01", 20, ctx60),
                         "4.156814549649017911120e-5")


def test_criterion_04_weak_field_reconstruction_100_moments():
    ctx = PrecisionContext(100)
    rec = _reconstruct(ModelId.SPIN0, 100, 100)
    r = extrapolate(ModelId.SPIN0, rec, "0.01", None, ctx)
    exact = closed_form(ModelId.SPIN0, "0.01", ctx)
    assert rel_err(r.value, exact) < mpf("1e-10")  # >= 10 significant digits
    assert printed_match(r.value, "1.93238479685e-6")


def test_criterion_05_strong_field_reconstruction():
    ctx100 = PrecisionContext(100)
    rec = _reconstruct(ModelId.SPIN0, 100, 100)
    r = extrapolate(ModelId.SPIN0, rec, "1e7", None, ctx100)
    exact = closed_form(ModelId.SPIN0, "1e7", ctx100)
    assert rel_err(r.value, exact) < mpf("0.01")  # < 1%; measured 0.16%
    assert printed_match(r.value, "1.0787e7")

    ctx200 = PrecisionContext(200)
    rec_sd = _reconstruct(ModelId.SELF_DUAL, 200, 200)
    r_sd = extrapolate(ModelId.SELF_DUAL, rec_sd, "1e18", None, ctx200)
    exact_sd = closed_form(ModelId.SELF_DUAL, "1e18", ctx200)
    assert rel_err(r_sd.value, exact_sd) < mpf("0.05")  # < 5%; measured 2.3%
    assert printed_match(r_sd.value, "1.59769")


def test_criterion_06_comparator_baselines():
    ctx300 = PrecisionContext(300)
    s0 = coefficients(ModelId.SPIN0, 100)
    v = pade_eval(s0, 49, 50, "0.01", ctx300)
    assert printed_match(v, "1.93238479692775524980520558841700571e-6")

    ctx60 = PrecisionContext(60)
    s37 = coefficients(ModelId.SPIN0, 37)
    d35 = weniger_delta(s37, 35, "0.01", ctx60)
    exact = closed_form(ModelId.SPIN0, "0.01", ctx60)
    assert rel_err(d35, exact) < mpf("1e-30")  # >= 30 significant digits

    sh = coefficients(ModelId.SPIN_HALF, 32)
    assert printed_match(weniger_delta(sh, 30, "1", ctx60), "1.645989388e-2")


def test_criterion_07_finite_part_oracle_equivalence(ctx50):
    for b in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for m in (1, 2, 3):
            closed = fp_exp_over_xm(b, m, ctx50)
            oracle = fp_canonical_oracle(exp_kernel(b, m + 4), m, ctx50)
            with mp.workdps(70):
                assert abs(closed - oracle) < mpf("1e-20"), (b, m)


def test_criterion_08_moment_round_trip(ctx60):
    rec = _reconstruct(ModelId.SPIN0, 51, 60)  # degree d = 50
    assert residual(rec) < mpf("1e-50") * mpf("1e10")
    # analytic re-moments: sum_m c_m P(k,m) reproduces every input moment
    P = build_P_exact(50)
    s = coefficients(ModelId.SPIN0, 52)
    mu = moments_from_coeffs(s, 50)
    with mp.workdps(250):
        for k in range(51):
            acc = mpf(0)
            for m in range(51):
                acc += rec.c[m] * P[k][m]
            target = mpf(mu.mu[k].numerator) / mu.mu[k].denominator
            assert abs(acc - target) < mpf("1e-40") * max(1, abs(target)), k


def test_criterion_09_property_suite_150_moments():
    digits = 150
    ctx = PrecisionContext(digits)
    rec = _reconstruct(ModelId.SPIN0, 150, digits)

    # (a) decomposition identity
    for beta in ("0.1", "10", "1e9"):
        r = extrapolate(ModelId.SPIN0, rec, beta, None, ctx)
        assert mp.fadd(r.tail, r.delta, exact=True) == r.value

    # (b) K-convergence: halving the truncation changes nothing at current accuracy
    for beta in ("1", "1e9"):
        r1 = extrapolate(ModelId.SPIN0, rec, beta, rec.d, ctx)
        r2 = extrapolate(ModelId.SPIN0, rec, beta, 2 * rec.d, ctx)
        exact = closed_form(ModelId.SPIN0, beta, ctx)
        with mp.workdps(digits + 20):
            assert abs(r1.value - r2.value) <= abs(r2.value - exact) / 100 \
                + mpf(10) ** (-digits)

    # (c) strong-field ratio: |r - 1| falls monotonically, below 1e-8 at 1e18
    for model in ModelId:
        gaps = []
        for beta in ("1e6", "1e9", "1e12", "1e15", "1e18"):
            with ctx.work():
                gaps.append(abs(closed_form(model, beta, ctx)
                                / strong_field_leading(model, beta, ctx) - 1))
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])), model
        assert gaps[-1] < mpf("1e-8"), model
