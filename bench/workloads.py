"""The three benchmark workloads: inputs from a seed, set-up, operations, checks.

A workload builds a fixed list of operations (one "pass"). The runner times
passes in a closed loop on one thread: each operation starts when the
previous one has finished. Outputs are checked after the timed phase against
the references in ``references``.

Why these workloads (see NOTES.md for the layer -> metric table):

- reconstruct: cold reconstruction jobs at growing degree. The dense moment
  solve dominates and grows as O(d^3), and each reconstruction is evaluated
  at a single beta, so per-reconstruction precompute is paid here as well.
- sweep: stored reconstructions read back and evaluated at many betas. The
  per-beta tail sum dominates and no solve runs in the timed phase.
- baselines: closed forms, oracles and comparators. Never touches momentrec
  or extrapolant; covers the 1000-digit precision edge.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from mpmath import mp

from heulag import cli, comparators, extrapolant, models, momentrec
from heulag.errors import HeulagError
from heulag.models import ModelId
from heulag.specfun import PrecisionContext

import references as ref

MODELS = tuple(m.value for m in ModelId)


def stratified_betas(rng: random.Random, lo: float, hi: float, n: int) -> list[str]:
    """n log-uniform betas in [10^lo, 10^hi], one per equal stratum of log10(beta),
    as 6-significant-digit decimal strings."""
    width = (hi - lo) / n
    return [f"{10 ** (lo + width * (k + rng.random())):.6g}" for k in range(n)]


@dataclass
class Op:
    """One timed call: a closure plus what the checks need to know about it."""
    kind: str
    model: str
    digits: int
    fn: Callable[[], Any]
    beta: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    agree: float | None = None  # digits agreeing with the reference, capped
    note: str = ""


def _failed(out) -> Verdict | None:
    if isinstance(out, Exception):
        return Verdict(False, None, f"{type(out).__name__}: {out}")
    return None


def _sum_identity(r) -> bool:
    """The extrapolant's value is exactly the sum of its reported parts."""
    return mp.fadd(r.tail, r.delta, exact=True) == r.value


def _series(model: str, d: int):
    """Exact moments mu_0..mu_d as Fractions (checks only, outside timing)."""
    return momentrec.moments_from_coeffs(models.coefficients(ModelId(model), d + 1), d).mu


class Workload:
    name = ""
    # Constructor keyword arguments; a set-up child process rebuilds the
    # workload from (name, seed, params).
    params: dict

    def setup(self, workdir: str) -> None:
        """Work a user pays before the timed operations (done in a fresh
        interpreter so it is cold each time)."""

    def ops(self, workdir: str) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], outputs: list) -> list[Verdict]:
        raise NotImplementedError

    def known_defect(self, op: Op) -> bool:
        return False


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

# (degree d, digits) grid; every model at each size, degree-major so jobs of
# one size share build_P_exact's cache as a batch would.
RECONSTRUCT_JOBS = [(m, d, digits) for d, digits in ((19, 30), (29, 30), (39, 40), (49, 60))
                    for m in MODELS]
# Strong field, where the extrapolant is the method of choice and its
# agreement with the closed form is flat in beta.
RECONSTRUCT_BETA_EXP = (10, 20)


class Reconstruct(Workload):
    name = "reconstruct"

    def __init__(self, seed: int, jobs=RECONSTRUCT_JOBS):
        self.params = {"jobs": [list(j) for j in jobs]}
        rng = random.Random(f"{self.name}-{seed}")
        self.jobs = [(m, d, digits, stratified_betas(rng, *RECONSTRUCT_BETA_EXP, 1)[0])
                     for m, d, digits in jobs]

    def ops(self, workdir: str) -> list[Op]:
        out = []
        for i, (model, d, digits, beta) in enumerate(self.jobs):
            path = os.path.join(workdir, f"job{i}.cache")

            def job(model=ModelId(model), d=d, ctx=PrecisionContext(digits), beta=beta,
                    path=path):
                series = models.coefficients(model, d + 1)
                mu = momentrec.moments_from_coeffs(series, d)
                rec = momentrec.solve_coeffs(momentrec.build_P_exact(d), mu, ctx)
                cli.write_cache(path, rec)
                return rec, extrapolant.extrapolate(model, rec, beta, None, ctx)

            out.append(Op("reconstruct", model, digits, job, beta, {"d": d, "path": path}))
        return out

    def check(self, ops, outputs):
        matrices: dict[int, list] = {}
        verdicts = []
        for op, out in zip(ops, outputs):
            bad = _failed(out)
            if bad:
                verdicts.append(bad)
                continue
            rec, r = out
            d = op.extra["d"]
            if d not in matrices:
                matrices[d] = ref.moment_matrix(d)
            res = ref.residual_digits(matrices[d], rec.c, _series(op.model, d))
            loaded, _ = cli.load_cache(op.extra["path"])
            round_trip = len(loaded.c) == len(rec.c) and all(
                ref.agree_digits(x, y, op.digits) >= op.digits
                for x, y in zip(loaded.c, rec.c) if y != 0)
            agree = ref.agree_digits(r.value, ref.closed_form(op.model, op.beta, op.digits),
                                     op.digits)
            problems = [msg for ok, msg in (
                (res >= op.digits, f"residual 1e-{res:.1f} above 1e-{op.digits}"),
                (round_trip, "cache round trip changed the coefficients"),
                (_sum_identity(r), "value != tail + delta")) if not ok]
            verdicts.append(Verdict(not problems, agree, "; ".join(problems)))
        return verdicts


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_BETA_EXP = (-2, 20)


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int, d: int = 49, digits: int = 60, betas_per_model: int = 18):
        self.params = {"d": d, "digits": digits, "betas_per_model": betas_per_model}
        self.d, self.digits = d, digits
        rng = random.Random(f"{self.name}-{seed}")
        self.betas = {m: stratified_betas(rng, *SWEEP_BETA_EXP, betas_per_model)
                      for m in MODELS}

    @staticmethod
    def _path(workdir: str, model: str) -> str:
        return os.path.join(workdir, f"{model}.cache")

    def setup(self, workdir: str) -> None:
        ctx = PrecisionContext(self.digits)
        for m in MODELS:
            series = models.coefficients(ModelId(m), self.d + 1)
            mu = momentrec.moments_from_coeffs(series, self.d)
            rec = momentrec.solve_coeffs(momentrec.build_P_exact(self.d), mu, ctx)
            cli.write_cache(self._path(workdir, m), rec)

    def ops(self, workdir: str) -> list[Op]:
        ctx = PrecisionContext(self.digits)
        loaded: dict[str, Any] = {}
        out = []
        for m in MODELS:
            # The `extrapolate --cache` read path: parse, then re-verify the residual.
            # Each pass loads afresh; a failed load leaves nothing to evaluate.
            def load(model=ModelId(m), path=self._path(workdir, m)):
                loaded.pop(model, None)
                rec, stored = cli.load_cache(path)
                series = models.coefficients(model, rec.d + 1)
                mu = momentrec.moments_from_coeffs(series, rec.d)
                fresh = momentrec.residual_norm_of(rec, mu, ctx)
                loaded[model] = rec
                return rec, stored, fresh

            out.append(Op("load", m, self.digits, load))
            for b in self.betas[m]:
                def ev(model=ModelId(m), b=b):
                    if model not in loaded:
                        raise HeulagError(f"no reconstruction loaded for {model.value}")
                    return extrapolant.extrapolate(model, loaded[model], b, None, ctx)
                out.append(Op("extrapolate", m, self.digits, ev, b))
        return out

    def check(self, ops, outputs):
        P = ref.moment_matrix(self.d)
        verdicts = []
        for op, out in zip(ops, outputs):
            bad = _failed(out)
            if bad:
                verdicts.append(bad)
            elif op.kind == "load":
                rec, stored, fresh = out
                res = ref.residual_digits(P, rec.c, _series(op.model, self.d))
                with mp.workdps(30):
                    window = stored / 10 <= fresh <= stored * 10
                problems = [msg for ok, msg in (
                    (res >= op.digits, f"residual 1e-{res:.1f} above 1e-{op.digits}"),
                    (window, f"re-verified residual {fresh} vs stored {stored}"))
                    if not ok]
                verdicts.append(Verdict(not problems, None, "; ".join(problems)))
            else:
                agree = ref.agree_digits(
                    out.value, ref.closed_form(op.model, op.beta, op.digits), op.digits)
                ok = _sum_identity(out)
                verdicts.append(Verdict(ok, agree, "" if ok else "value != tail + delta"))
        return verdicts


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

TRIANGLE_TOL = 25  # oracle triangle: pairwise relative agreement within 1e-25
BASELINES_BETA_EXP = (-2, 7)
PARTIAL_BETAS = ("0.01", "0.1")  # weak field, where the truncated series is usable


class Baselines(Workload):
    name = "baselines"

    def __init__(self, seed: int, betas_per_model: int = 6, heavy_every: int = 6,
                 pade=(49, 50), delta_n: int = 30, partial_d: int = 20,
                 high_digits: int = 1000):
        self.params = {"betas_per_model": betas_per_model, "heavy_every": heavy_every,
                       "pade": list(pade), "delta_n": delta_n, "partial_d": partial_d,
                       "high_digits": high_digits}
        # Pade [49/50] and quadrature cost ~0.5-1.5 s a call, 30-100x the other
        # operations: they run in every `heavy_every`-th stratum only, so a
        # pass stays short enough to repeat within the run.
        self.heavy = range(heavy_every // 2, betas_per_model, heavy_every)
        self.pade, self.delta_n = tuple(pade), delta_n
        self.partial_d, self.high_digits = partial_d, high_digits
        rng = random.Random(f"{self.name}-{seed}")
        self.betas = {m: stratified_betas(rng, *BASELINES_BETA_EXP, betas_per_model)
                      for m in MODELS}
        self.high_beta = stratified_betas(rng, *BASELINES_BETA_EXP, 1)[0]

    def ops(self, workdir: str) -> list[Op]:
        N, M = self.pade
        n = self.delta_n
        out = []
        for m in MODELS:
            model = ModelId(m)
            for i, b in enumerate(self.betas[m]):
                c60, c100, c300 = (PrecisionContext(x) for x in (60, 100, 300))
                out += [
                    Op("closed_form", m, 100, lambda model=model, b=b, c=c100:
                       models.closed_form(model, b, c), b),
                    Op("closed_form", m, 300, lambda model=model, b=b, c=c300:
                       models.closed_form(model, b, c), b),
                    Op("delta", m, 100, lambda model=model, b=b, c=c100: comparators.weniger_delta(
                        models.coefficients(model, n + 2), n, b, c), b),
                    Op("assembly", m, 60, lambda model=model, b=b, c=c60:
                       models.finite_part_assembly(model, b, c), b),
                ]
                if i in self.heavy:
                    out += [
                        Op("pade", m, 100, lambda model=model, b=b, c=c100: comparators.pade_eval(
                            models.coefficients(model, N + M + 1), N, M, b, c), b),
                        Op("quadrature", m, 60, lambda model=model, b=b, c=c60:
                           models.direct_integral_oracle(model, b, c), b),
                    ]
            for b in PARTIAL_BETAS:
                out.append(Op("partial_sum", m, 100,
                              lambda model=model, b=b, c=PrecisionContext(100):
                              models.partial_sum(model, b, self.partial_d, c), b))
        out.append(Op("closed_form", "spin0", self.high_digits, lambda: models.closed_form(
            ModelId.SPIN0, self.high_beta, PrecisionContext(self.high_digits)), self.high_beta))
        return out

    def check(self, ops, outputs):
        N, M = self.pade
        truths = {}  # (model, beta) -> mpmath-builtin closed form at 300 digits
        pades = {}
        verdicts = []
        for op, out in zip(ops, outputs):
            bad = _failed(out)
            if bad:
                verdicts.append(bad)
                continue
            key = (op.model, op.beta)
            if op.kind in ("closed_form", "quadrature", "assembly"):
                if op.digits > 300:
                    truth = ref.closed_form(op.model, op.beta, op.digits + 10)
                else:
                    if key not in truths:
                        truths[key] = ref.closed_form(op.model, op.beta, 300 + 10)
                    truth = truths[key]
                agree = ref.agree_digits(out, truth, op.digits)
                if op.kind == "closed_form":
                    ok = agree >= op.digits - 1
                    note = "" if ok else f"agrees with mpmath to {agree:.0f} of {op.digits} digits"
                else:
                    # Oracle triangle: both oracles and closed_form pairwise at this beta.
                    pair = {"quadrature": "assembly", "assembly": "quadrature"}[op.kind]
                    partners = [o for p, o in zip(ops, outputs) if (p.model, p.beta) == key
                                and (p.kind == pair or p.kind == "closed_form" and p.digits == 100)]
                    ok = all(isinstance(x, mp.mpf) and ref.agree_digits(out, x, 60) >= TRIANGLE_TOL
                             for x in partners)
                    note = "" if ok else "oracle triangle broken at 1e-25"
                verdicts.append(Verdict(ok, agree, note))
                continue
            model = ModelId(op.model)
            p = model.series_prefactor_power
            if op.kind == "pade":
                if op.model not in pades:
                    a = models.coefficients(model, N + M + 1).a
                    pades[op.model] = ref.PadeReference(a, p, N, M, op.digits)
                truth = pades[op.model](op.beta)
            elif op.kind == "delta":
                a = models.coefficients(model, self.delta_n + 2).a
                truth = ref.fraction_value(
                    ref.delta_transform(a, p, op.beta, self.delta_n), op.digits + 30)
            else:  # partial_sum
                a = models.coefficients(model, self.partial_d + 1).a
                truth = ref.fraction_value(
                    ref.partial_sum(a, p, op.beta, self.partial_d), op.digits + 30)
            agree = ref.agree_digits(out, truth, op.digits)
            ok = agree >= op.digits - 1
            verdicts.append(Verdict(ok, agree, "" if ok else
                                    f"agrees with the reference to {agree:.0f} digits"))
        return verdicts

    def known_defect(self, op: Op) -> bool:
        """closed_form above ~850 digits returns silently truncated digits
        (Euler-Maclaurin correction cap in specfun). Such failures still count
        in `failed`; they do not make the run incorrect until fixed."""
        return op.kind == "closed_form" and op.digits >= 850


WORKLOADS = {w.name: w for w in (Reconstruct, Sweep, Baselines)}
