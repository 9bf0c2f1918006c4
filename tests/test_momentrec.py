"""Moment layer: exact moment vectors, the P matrix, the linear solve and its
backward residual, and evaluation of the reconstructed density."""
import math
import random
import warnings
from fractions import Fraction

import pytest
from mpmath import mp, mpf, nstr
from mpmath.libmp import to_rational

from heulag import (
    ConsistencyError,
    DomainError,
    Extrapolant,
    ModelId,
    MomentVector,
    PrecisionContext,
    build_P_exact,
    coefficients,
    extrapolate,
    moments_from_coeffs,
    residual_norm_of,
    rho_eval,
    solve_coeffs,
)
from heulag import extrapolant, momentrec
from heulag.momentrec import _density_taylor, _magnitude_digits
from heulag.specfun import _to_mpf


# ---------------------------------------------------------------------------
# Moment vectors.
# ---------------------------------------------------------------------------

def test_moments_are_reduced_series_coefficients():
    s = coefficients(ModelId.SPIN0, 5)
    mu = moments_from_coeffs(s, 2)
    assert mu.mu == (Fraction(7, 360), Fraction(31, 2520), Fraction(127, 5040))
    s_sd = coefficients(ModelId.SELF_DUAL, 5)
    mu_sd = moments_from_coeffs(s_sd, 2)
    assert mu_sd.mu == (Fraction(1, 240), Fraction(1, 1008), Fraction(1, 1440))


def test_moment_vector_rejects_nonpositive():
    with pytest.raises(ConsistencyError):
        MomentVector(model=ModelId.SPIN0, mu=(Fraction(1, 2), Fraction(-1, 3)))


def test_moments_from_coeffs_requires_enough_terms():
    s = coefficients(ModelId.SPIN0, 3)
    with pytest.raises(DomainError):
        moments_from_coeffs(s, 10)


# ---------------------------------------------------------------------------
# The P matrix (moments of the Laguerre basis densities).
# ---------------------------------------------------------------------------

def test_P_corner_entries():
    P = build_P_exact(1)
    assert P[0][0] == 4
    assert P[0][1] == -12
    assert P[1][0] == 96


def genfun_entry(n: int, m: int) -> int:
    # Independent positive-sum route through the generating function:
    # P(n,m) = (-1)^m (2n+1)! 2^{2n+2} sum_i C(2n+1,i) C(2n+1+m-i, m-i)
    total = sum(math.comb(2 * n + 1, i) * math.comb(2 * n + 1 + m - i, m - i)
                for i in range(min(2 * n + 1, m) + 1))
    return (-1) ** m * math.factorial(2 * n + 1) * 2 ** (2 * n + 2) * total


def test_P_against_generating_function_oracle():
    for d in (12, 49):
        P = build_P_exact(d)
        for n in range(d + 1):
            for m in range(d + 1):
                assert P[n][m] == genfun_entry(n, m), (d, n, m)


def defining_sum_entry(n: int, m: int) -> int:
    # P(n,m) = m! 2^{2n+2} sum_k (-2)^k (2n+k+1)!/((k!)^2 (m-k)!), term by term
    total = sum(Fraction((-2) ** k * math.factorial(2 * n + k + 1),
                         math.factorial(k) ** 2 * math.factorial(m - k)) for k in range(m + 1))
    return math.factorial(m) * 2 ** (2 * n + 2) * total


def test_P_matches_its_defining_sum():
    assert build_P_exact(0) == ((4,),)
    for d in range(16):
        assert build_P_exact(d) == tuple(
            tuple(defining_sum_entry(n, m) for m in range(d + 1)) for n in range(d + 1)), d


@pytest.mark.parametrize("d", [19, 49, 99, 199])
def test_P_corner_is_the_unique_largest_entry(d):
    # so P's magnitude span is read from P(d, d) alone
    P = build_P_exact(d)
    corner = abs(P[d][d])
    assert sum(abs(x) >= corner for row in P for x in row) == 1


def test_P_alternating_signs_along_rows():
    P = build_P_exact(6)
    for n in range(7):
        for m in range(7):
            assert (P[n][m] > 0) == (m % 2 == 0)


# ---------------------------------------------------------------------------
# Solving for the basis coefficients.
# ---------------------------------------------------------------------------

def elimination_solve(d: int, model: ModelId):
    """Exact Gaussian elimination over the rationals on the dense P;
    independent of the structured factorisation solve_coeffs uses."""
    s = coefficients(model, d + 2)
    mu = list(moments_from_coeffs(s, d).mu)
    A = [[Fraction(x) for x in row] for row in build_P_exact(d)]
    n = d + 1
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        mu[col], mu[piv] = mu[piv], mu[col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col] / A[col][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
                mu[r] -= f * mu[col]
    return [mu[i] / A[i][i] for i in range(n)]


@pytest.mark.parametrize("d", [0, 1, 4, 8, 20])
@pytest.mark.parametrize("model", [ModelId.SPIN0, ModelId.SPIN_HALF, ModelId.SELF_DUAL])
def test_solve_matches_exact_elimination(d, model, ctx60):
    # the solve is exact and rounds once, so c is the elimination result
    # correctly rounded at the span-boosted solve precision, bit for bit
    s = coefficients(model, d + 2)
    mu = moments_from_coeffs(s, d)
    P = build_P_exact(d)
    rec = solve_coeffs(P, mu, ctx60)
    exact = elimination_solve(d, model)
    with mp.workdps(ctx60.workdps + _magnitude_digits(P) + 10):
        assert rec.c == tuple(mp.fdiv(ce.numerator, ce.denominator) for ce in exact)


def test_solve_d0_is_mu0_over_4(ctx60):
    s = coefficients(ModelId.SPIN0, 3)
    mu = moments_from_coeffs(s, 0)
    rec = solve_coeffs(build_P_exact(0), mu, ctx60)
    with mp.workdps(80):
        want = mpf(7) / 360 / 4
        assert abs(rec.c[0] - want) < mpf("1e-55")


def test_residual_meets_invariant_d50(ctx60, reconstruct):
    # The exact ||P c - mu|| / ||mu|| of the dyadic c, in rationals, and the
    # derived float residual both meet the tolerance; they may differ by
    # more than 10x from each other.
    P = build_P_exact(50)
    bound = Fraction(1, 10 ** (ctx60.digits - 10))
    for model in ModelId:
        rec = reconstruct(model, 51, 60)  # 51 moments -> degree d = 50
        mu = moments_from_coeffs(coefficients(model, 51), 50).mu
        c = [Fraction(*to_rational(x._mpf_)) for x in rec.c]
        num = sum((sum(p * cm for p, cm in zip(row, c)) - m) ** 2 for row, m in zip(P, mu))
        assert num / sum(m * m for m in mu) < bound ** 2, model
        assert rec.residual_norm < mpf(bound.numerator) / bound.denominator, model


def test_residual_is_computed_once_and_only_when_read(monkeypatch):
    calls = []
    residual = momentrec._residual
    monkeypatch.setattr(momentrec, "_residual", lambda *a: calls.append(a) or residual(*a))
    ctx = PrecisionContext(40)
    rec = momentrec.reconstruct(ModelId.SPIN0, 20, ctx)
    Extrapolant.build(rec, None, ctx).evaluate("1")
    assert calls == []
    assert rec.residual_norm is rec.residual_norm
    assert len(calls) == 1


@pytest.mark.parametrize("model, moments, digits, residual", [
    (ModelId.SELF_DUAL, 6, 30, "3.3905584e-66"),
    (ModelId.SPIN0, 50, 60, "2.3276665e-223"),
    (ModelId.SPIN_HALF, 100, 100, "2.449674e-453"),
])
def test_residual_norm_frozen(model, moments, digits, residual, reconstruct):
    assert nstr(reconstruct(model, moments, digits).residual_norm, 8) == residual


def test_fewer_digits_than_moments_emits_no_warning():
    # digits and moments are independent; accuracy is checked in
    # test_extrapolant.test_fewer_digits_than_moments_keep_every_digit
    s = coefficients(ModelId.SPIN0, 41)
    mu = moments_from_coeffs(s, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = solve_coeffs(build_P_exact(40), mu, PrecisionContext(30))
    assert rec.digits == 30 and rec.residual_norm < mpf("1e-20")


def test_solve_rejects_shape_mismatch(ctx60):
    s = coefficients(ModelId.SPIN0, 6)
    mu = moments_from_coeffs(s, 4)
    with pytest.raises(DomainError):
        solve_coeffs(build_P_exact(3), mu, ctx60)


def test_build_P_rejects_a_negative_degree():
    with pytest.raises(DomainError, match="d >= 0"):
        build_P_exact(-1)


def test_residual_norm_rejects_a_degree_mismatch(ctx60, reconstruct):
    mu = moments_from_coeffs(coefficients(ModelId.SPIN0, 6), 4)
    with pytest.raises(DomainError, match="does not match"):
        residual_norm_of(reconstruct(ModelId.SPIN0, 10, 60), mu, ctx60)


# ---------------------------------------------------------------------------
# Density evaluation.
# ---------------------------------------------------------------------------

def test_rho_at_zero_vanishes(ctx60, reconstruct):
    g = _density_taylor(reconstruct(ModelId.SPIN0, 20, 60))
    assert rho_eval(g, mpf(0), ctx60) == (0, 0)


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_rho_rejects_a_non_finite_y(y, ctx60, reconstruct):
    g = _density_taylor(reconstruct(ModelId.SPIN0, 20, 60))
    with pytest.raises(DomainError):
        rho_eval(g, mpf(y), ctx60)


def _laguerre_rho(rec, z, dps: int):
    """z e^{-z/2} sum_m c_m L_m(z) by the three-term recurrence
    (k+1) L_{k+1} = (2k+1-z) L_k - k L_{k-1}, at dps digits."""
    with mp.workdps(dps):
        acc, lag, prev = mpf(0), mpf(1), mpf(0)
        for k, cm in enumerate(rec.c):
            acc += cm * lag
            lag, prev = ((2 * k + 1 - z) * lag - k * prev) / (k + 1), lag
        return z * mp.exp(-z / 2) * acc


@pytest.mark.parametrize("model, moments, digits", [
    *((m, n, d) for n, d in ((50, 60), (100, 100), (200, 200)) for m in ModelId),
])
def test_rho_matches_the_laguerre_recurrence_higher_up(model, moments, digits, reconstruct):
    # rho at the poles i/sqrt(b) against the recurrence 60 digits above the
    # working precision
    ctx = PrecisionContext(digits)
    rec = reconstruct(model, moments, digits)
    g = _density_taylor(rec)
    with ctx.work():
        points = [mp.mpc(0, 1 / mp.sqrt(mpf(b))) for b in ("1e-4", "1", "1e20")]
    for z in points:
        ref = _laguerre_rho(rec, z, ctx.workdps + 60)
        with mp.workdps(ctx.workdps + 60):
            rho = mp.mpc(*rho_eval(g, z.imag, ctx))
            assert abs(rho - ref) <= mpf(10) ** -digits * abs(ref), z


def _reference_rho_eval(g, y, ctx: PrecisionContext):
    """rho_eval as two exact Horner passes in -y^2, whose integers grow by
    bitlen(y^2) at every step, each sum divided once at the working
    precision."""
    N, D = g
    with ctx.work():
        y = _to_mpf(y)
        t = mp.fneg(mp.fmul(y, y, exact=True), exact=True)
        s = [mpf(0), mpf(0)]  # E and O/y
        for l in range(len(N) - 1, -1, -1):
            s[l % 2] = mp.fadd(mp.fmul(s[l % 2], t, exact=True), N[l], exact=True)
        E, O = mp.fdiv(s[0], D), mp.fdiv(mp.fmul(y, s[1], exact=True), D)
        cos, sin = mp.cos_sin(y / 2)
        A, B = y * sin, y * cos
        re = mp.fsub(mp.fmul(A, E, exact=True), mp.fmul(B, O, exact=True))
        im = mp.fadd(mp.fmul(A, O, exact=True), mp.fmul(B, E, exact=True))
    return ctx.round(re), ctx.round(im)


def _bits(pair):
    return tuple(v._mpf_ for v in pair)


def _pole_ys(ctx: PrecisionContext):
    """y = 1/sqrt(beta) from weak to strong field, y = 0, a negative y, and
    y = 2^20 (beta = 2^-40), whose binary exponent is positive."""
    with ctx.work():
        ys = [1 / mp.sqrt(mpf(b))
              for b in ("1e-30", "1e-6", "1e-4", "0.01", "0.3", "1", "4", "1e7", "1e30")]
        return [*ys, mpf(0), -ys[4], mpf(2) ** 20]


@pytest.mark.parametrize("d", [0, 1, 9, 49, 199])
@pytest.mark.parametrize("model", list(ModelId))
def test_rho_is_the_exact_passes_to_the_bit(model, d, reconstruct):
    for digits in (30, 60, 200):
        ctx = PrecisionContext(digits)
        g = _density_taylor(reconstruct(model, d + 1, digits))
        for y in _pole_ys(ctx):
            assert _bits(rho_eval(g, y, ctx)) == _bits(_reference_rho_eval(g, y, ctx)), \
                (digits, y)


def test_cut_horner_bounds_its_error():
    # the exact sum lies within E 2^x of S 2^x, and with P above every
    # partial sum's length nothing is cut: E = 0
    rng = random.Random(30)
    for _ in range(2000):
        a = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 400))
             for _ in range(rng.randint(0, 30))]
        U, ex = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 300)), rng.randint(-400, 60)
        for P in (rng.randint(1, 300), 10 ** 5):
            S, E, x = momentrec._cut_horner(a, U, ex, P)
            s = Fraction(0)
            for c in a:
                s = s * U * Fraction(2) ** ex + c
            assert abs(s - S * Fraction(2) ** x) <= E * Fraction(2) ** x
            assert E == 0 or P < 10 ** 5


def test_rho_accepts_its_first_pass_and_grows_when_it_must(reconstruct, monkeypatch):
    # at strong field each parity's first cut pass rounds alike; with no
    # guard bits it cannot, and the cut width grows until it does
    ctx = PrecisionContext(60)
    g = _density_taylor(reconstruct(ModelId.SPIN0, 50, 60))
    with ctx.work():
        y, wp = 1 / mp.sqrt(mpf("1e7")), mp.prec
    want = _bits(_reference_rho_eval(g, y, ctx))
    widths, cut = [], momentrec._cut_horner

    def counted(a, U, ex, P):
        widths.append(P)
        return cut(a, U, ex, P)

    monkeypatch.setattr(momentrec, "_cut_horner", counted)
    assert _bits(rho_eval(g, y, ctx)) == want
    assert widths == [wp + 40, wp + 40]
    widths.clear()
    monkeypatch.setattr(momentrec, "_RHO_GUARD", 0)
    assert _bits(rho_eval(g, y, ctx)) == want
    assert len(widths) > 2 and widths.count(wp) == 2 and widths[0] == wp
    assert all(b > a for a, b in zip(widths, widths[1:]) if b != wp)


def test_density_readers_cache_nothing_on_the_record(ctx60):
    # anything stored on a record stays alive with it
    rec = momentrec.reconstruct(ModelId.SPIN0, 20, ctx60)
    before = dict(vars(rec))
    Extrapolant.build(rec, None, ctx60).evaluate("1")
    extrapolate(ModelId.SPIN0, rec, "1", None, ctx60)
    assert vars(rec) == before


def test_one_extrapolate_call_builds_g_once(ctx60, reconstruct, monkeypatch):
    rec = reconstruct(ModelId.SPIN0, 20, 60)
    calls = []

    def counted(r):
        calls.append(r)
        return _density_taylor(r)

    for module in (momentrec, extrapolant):
        monkeypatch.setattr(module, "_density_taylor", counted)
    extrapolate(ModelId.SPIN0, rec, "1", None, ctx60)
    assert calls == [rec]


def test_rho_reproduces_moments_through_P(ctx60, reconstruct):
    # int x^{2k+1} e^{-x/2} L_m(x)... folded into P: mu_k == sum_m c_m P(k,m)
    d = 12
    rec = reconstruct(ModelId.SPIN0, d + 1, 60)
    P = build_P_exact(d)
    s = coefficients(ModelId.SPIN0, d + 2)
    mu = moments_from_coeffs(s, d)
    with mp.workdps(150):
        for k in range(d + 1):
            acc = mpf(0)
            for m in range(d + 1):
                acc += rec.c[m] * P[k][m]
            target = mpf(mu.mu[k].numerator) / mu.mu[k].denominator
            assert abs(acc - target) < mpf("1e-45") * max(1, abs(target))


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("moments, digits", [(9, 30), (50, 60), (200, 200)])
def test_density_taylor_gives_the_moments(model, moments, digits, reconstruct):
    # mu_k = int_0^inf x^{2k} rho(x) dx = sum_l g_l (2k+1+l)! 2^{2k+2+l}, with
    # g_l = N_l / D: an exact integer sum over D
    N, D = _density_taylor(reconstruct(model, moments, digits))
    mu = moments_from_coeffs(coefficients(model, moments), moments - 1).mu
    for k, target in enumerate(mu):
        total, r = 0, math.factorial(2 * k + 1)  # r = (2k+1+l)!
        for l, n in enumerate(N):
            total += n * r << 2 * k + 2 + l
            r *= 2 * k + 2 + l
        got = Fraction(total, D)
        assert abs(got - target) <= Fraction(1, 10 ** digits) * target, k
