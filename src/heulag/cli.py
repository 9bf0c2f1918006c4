"""Command-line surface: model evaluation, reconstruction with persistence,
extrapolation, method comparison, and desk-scale table reproduction.

All numeric output is serialized as decimal strings (JSON numbers are never
used for high-precision values), beta rows appear in input order, and cache
files are written atomically (temp file + rename). Exit codes: 0 success,
2 domain error, 3 conditioning error, 4 cache mismatch.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

from mpmath import mp, mpf, nstr

from .comparators import pade_eval, weniger_delta
from .errors import (
    CacheMismatchError,
    ConditioningError,
    DomainError,
    HeulagError,
)
from .extrapolant import ExtrapolationResult, extrapolate
from .models import (
    ModelId,
    closed_form,
    coefficients,
    direct_integral_oracle,
    partial_sum,
)
from .momentrec import (
    GENERATOR_VERSION,
    ReconstructionCoefficients,
    build_P_exact,
    moments_from_coeffs,
    residual_norm_of,
    solve_coeffs,
)
from .specfun import PrecisionContext, _to_beta

PRINT_DIGITS = 21  # table/report cells carry this many significant digits


@dataclass
class RunConfig:
    model: ModelId
    digits: int
    moments: int | None
    truncation: int | None
    betas: list[str]
    fmt: str
    cache: str | None
    force: bool
    oracle: bool = False
    pade: tuple[int, int] | None = None
    delta: int | None = None


# ---------------------------------------------------------------------------
# Formatting helpers.
# ---------------------------------------------------------------------------

def _fmt(v, digits: int = PRINT_DIGITS) -> str:
    return nstr(v, digits)


def _agree_digits(value: mpf, exact: mpf) -> int:
    """Number of agreeing leading significant digits (capped at PRINT_DIGITS)."""
    with mp.workdps(PRINT_DIGITS + 10):
        if exact == 0:
            return PRINT_DIGITS if value == 0 else 0
        rel = abs(value - exact) / abs(exact)
        if rel == 0:
            return PRINT_DIGITS
        from mpmath import log10 as _log10
        n = int(-_log10(rel))
        return max(0, min(PRINT_DIGITS, n))


def _bracket(value_str: str, agree: int) -> str:
    """Mark the agreeing significant-digit prefix: [1.9323]84... style."""
    if agree <= 0:
        return value_str
    seen = 0
    close_at = len(value_str)
    for i, ch in enumerate(value_str):
        if ch in "eE":
            close_at = i
            break
        if ch.isdigit():
            if seen == 0 and ch == "0":
                continue  # skip leading zeros; they carry no significance
            seen += 1
            if seen == agree:
                close_at = i + 1
                break
    return "[" + value_str[:close_at] + "]" + value_str[close_at:]


def _emit(command: str, config: RunConfig, columns: Sequence[str],
          rows: list[dict[str, str]]) -> str:
    if config.fmt == "json":
        doc = {
            "command": command,
            "model": config.model.value,
            "digits": config.digits,
            "rows": [{c: r.get(c, "") for c in columns} for r in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    if config.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([r.get(c, "") for c in columns])
        return buf.getvalue()
    # markdown
    lines = [f"## {command} model={config.model.value} digits={config.digits}", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for r in rows:
        lines.append("| " + " | ".join(r.get(c, "") for c in columns) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cache file handling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientCacheFile:
    """In-memory image of a coefficient cache file: the identifying header
    fields plus the coefficient body as full-precision decimal strings."""
    model: ModelId
    d: int
    digits: int
    generator: str
    residual_norm: str
    coefficients: tuple[str, ...]

    @classmethod
    def from_reconstruction(cls, rec: ReconstructionCoefficients) -> "CoefficientCacheFile":
        body = []
        for c in rec.c:
            bc = c._mpf_[3] if c else 0
            body.append(nstr(c, max(rec.digits, int(abs(bc) * 0.30103) + 5)))
        return cls(model=rec.model, d=rec.d, digits=rec.digits,
                   generator=GENERATOR_VERSION,
                   residual_norm=_fmt(rec.residual_norm, 8),
                   coefficients=tuple(body))

    @classmethod
    def parse(cls, text: str) -> "CoefficientCacheFile":
        header: dict[str, str] = {}
        coeff_strings: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                stripped = line.lstrip("#").strip()
                if ":" in stripped:
                    key, _, val = stripped.partition(":")
                    header[key.strip()] = val.strip()
            else:
                coeff_strings.append(line)
        if header.get("generator") != GENERATOR_VERSION:
            raise CacheMismatchError("generator", GENERATOR_VERSION, header.get("generator"))
        for key in ("model", "d", "digits", "residual_norm"):
            if key not in header:
                raise CacheMismatchError(key, "present", "missing")
        d = int(header["d"])
        if len(coeff_strings) != d + 1:
            raise CacheMismatchError("coefficient count", d + 1, len(coeff_strings))
        try:
            model = ModelId(header["model"])
        except ValueError:
            raise CacheMismatchError(
                "model", "/".join(m.value for m in ModelId), header["model"]) from None
        return cls(model=model, d=d, digits=int(header["digits"]),
                   generator=header["generator"],
                   residual_norm=header["residual_norm"],
                   coefficients=tuple(coeff_strings))

    def render(self) -> str:
        lines = [
            "# heulag coefficient cache",
            f"# model: {self.model.value}",
            f"# d: {self.d}",
            f"# digits: {self.digits}",
            f"# generator: {self.generator}",
            f"# residual_norm: {self.residual_norm}",
        ]
        lines.extend(self.coefficients)
        return "\n".join(lines) + "\n"

    def to_reconstruction(self) -> tuple[ReconstructionCoefficients, mpf]:
        maxlen = max(len(s) for s in self.coefficients)
        with mp.workdps(maxlen + 10):
            c = tuple(mpf(s) for s in self.coefficients)
            stored_residual = mpf(self.residual_norm)
        rec = ReconstructionCoefficients(
            model=self.model, d=self.d, c=c, digits=self.digits,
            residual_norm=stored_residual)
        return rec, stored_residual


def write_cache(path: str, rec: ReconstructionCoefficients) -> None:
    """Write coefficients atomically; no partial file is ever left behind."""
    text = CoefficientCacheFile.from_reconstruction(rec).render()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".heulag-cache-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cache(path: str) -> tuple[ReconstructionCoefficients, mpf]:
    """Parse a cache file; returns (coefficients, stored residual_norm)."""
    with open(path, encoding="utf-8") as fh:
        return CoefficientCacheFile.parse(fh.read()).to_reconstruction()


# ---------------------------------------------------------------------------
# Reconstruction plumbing shared by subcommands.
# ---------------------------------------------------------------------------

def _reconstruct(config: RunConfig) -> ReconstructionCoefficients:
    if config.moments is None:
        raise DomainError("this command requires --moments")
    if config.moments < 1:
        raise DomainError(f"--moments must be >= 1, got {config.moments}")
    if config.digits < config.moments and not config.force:
        raise DomainError(
            f"digits={config.digits} below moments={config.moments} violates the "
            "precision rule (working digits = number of moments); pass --force to override")
    d = config.moments - 1
    ctx = PrecisionContext(config.digits)
    series = coefficients(config.model, config.moments)
    mu = moments_from_coeffs(series, d)
    return solve_coeffs(build_P_exact(d), mu, ctx)


def _verify_cache(rec: ReconstructionCoefficients, stored_residual: mpf,
                  config: RunConfig) -> None:
    if rec.model is not config.model:
        raise CacheMismatchError("model", config.model.value, rec.model.value)
    if config.moments is not None and rec.d != config.moments - 1:
        raise CacheMismatchError("d", config.moments - 1, rec.d)
    if rec.digits < config.digits:
        raise CacheMismatchError("digits", f">= {config.digits}", rec.digits)
    ctx = PrecisionContext(rec.digits)
    series = coefficients(rec.model, rec.d + 1)
    mu = moments_from_coeffs(series, rec.d)
    fresh = residual_norm_of(rec, mu, ctx)
    with mp.workdps(30):
        lo, hi = stored_residual / 10, stored_residual * 10
        if not (lo <= fresh <= hi) and abs(fresh - stored_residual) > mpf("1e-300"):
            raise CacheMismatchError("residual_norm", str(stored_residual), str(fresh))


def _obtain_reconstruction(config: RunConfig) -> ReconstructionCoefficients:
    if config.cache and os.path.exists(config.cache):
        rec, stored = load_cache(config.cache)
        _verify_cache(rec, stored, config)
        return rec
    rec = _reconstruct(config)
    if config.cache:
        write_cache(config.cache, rec)
    return rec


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_exact(config: RunConfig, out) -> int:
    ctx = PrecisionContext(config.digits)
    columns = ["beta", "exact"] + (["oracle"] if config.oracle else [])
    rows = []
    for b in config.betas:
        row = {"beta": b, "exact": _fmt(closed_form(config.model, b, ctx), config.digits)}
        if config.oracle:
            row["oracle"] = _fmt(direct_integral_oracle(config.model, b, ctx), config.digits)
        rows.append(row)
    out.write(_emit("exact", config, columns, rows))
    return 0


def cmd_series(config: RunConfig, out) -> int:
    if config.truncation is None:
        raise DomainError("series requires --truncation (the partial-sum order d)")
    ctx = PrecisionContext(config.digits)
    d = config.truncation
    rows = [{"beta": b, "d": str(d),
             "partial_sum": _fmt(partial_sum(config.model, b, d, ctx), config.digits)}
            for b in config.betas]
    out.write(_emit("series", config, ["beta", "d", "partial_sum"], rows))
    return 0


def cmd_reconstruct(config: RunConfig, out) -> int:
    if not config.cache:
        raise DomainError("reconstruct requires --cache PATH to persist coefficients")
    rec = _reconstruct(config)
    write_cache(config.cache, rec)
    out.write(f"residual_norm: {_fmt(rec.residual_norm, 8)}\n")
    out.write(f"coefficients: {rec.d + 1} -> {config.cache}\n")
    return 0


def cmd_extrapolate(config: RunConfig, out) -> int:
    rec = _obtain_reconstruction(config)
    ctx = PrecisionContext(config.digits)
    K = config.truncation
    columns = ["beta", "value", "tail", "delta", "K", "im_residual"]
    rows = []
    for b in config.betas:
        r: ExtrapolationResult = extrapolate(config.model, rec, b, K, ctx)
        rows.append({
            "beta": b,
            "value": _fmt(r.value, config.digits),
            "tail": _fmt(r.tail, config.digits),
            "delta": _fmt(r.delta, config.digits),
            "K": str(r.K),
            "im_residual": _fmt(r.im_residual, 5),
        })
    out.write(_emit("extrapolate", config, columns, rows))
    return 0


def _compare_columns(config: RunConfig) -> list[tuple[str, Callable]]:
    """Ordered (name, evaluator(beta_str, ctx)) pairs for the comparison grid."""
    cols: list[tuple[str, Callable]] = []
    order = config.truncation if config.truncation is not None else (
        config.moments - 1 if config.moments else None)
    if order is not None:
        cols.append((f"partial_d{order}",
                     lambda b, ctx, _d=order: partial_sum(config.model, b, _d, ctx)))
    if config.pade is not None:
        n_deg, m_deg = config.pade
        series = coefficients(config.model, n_deg + m_deg + 1)
        cols.append((f"pade_{n_deg}_{m_deg}",
                     lambda b, ctx, _s=series: pade_eval(_s, n_deg, m_deg, b, ctx)))
    if config.delta is not None:
        series_d = coefficients(config.model, config.delta + 2)
        cols.append((f"delta_{config.delta}",
                     lambda b, ctx, _s=series_d: weniger_delta(_s, config.delta, b, ctx)))
    if config.moments is not None:
        rec = _obtain_reconstruction(config)
        cols.append((f"extrap_d{rec.d}",
                     lambda b, ctx, _r=rec: extrapolate(config.model, _r, b, None, ctx).value))
    return cols


def cmd_compare(config: RunConfig, out) -> int:
    ctx = PrecisionContext(config.digits)
    methods = _compare_columns(config)
    columns = ["beta"] + [name for name, _ in methods] + ["exact"]
    if config.fmt != "markdown":
        columns += [f"{name}_agree" for name, _ in methods]
    rows = []
    for b in config.betas:
        exact = closed_form(config.model, b, ctx)
        row = {"beta": b, "exact": _fmt(exact)}
        for name, fn in methods:
            try:
                v = fn(b, ctx)
            except HeulagError as e:
                row[name] = f"ERR({type(e).__name__})"
                row[f"{name}_agree"] = ""
                continue
            agree = _agree_digits(v, exact)
            text = _fmt(v)
            row[name] = _bracket(text, agree) if config.fmt == "markdown" else text
            row[f"{name}_agree"] = str(agree)
        rows.append(row)
    out.write(_emit("compare", config, columns, rows))
    return 0


# ---------------------------------------------------------------------------
# Desk-scale table reproduction.
# ---------------------------------------------------------------------------

_PARTIAL_ORDERS = list(range(1, 11)) + [20, 50]


def _table_partial(config: RunConfig, model: ModelId, betas: list[str], out) -> int:
    ctx = PrecisionContext(config.digits)
    columns = ["d"] + [f"beta={b}" for b in betas]
    rows = []
    exacts = {b: closed_form(model, b, ctx) for b in betas}
    for d in _PARTIAL_ORDERS:
        row = {"d": str(d)}
        for b in betas:
            v = partial_sum(model, b, d, ctx)
            text = _fmt(v)
            if config.fmt == "markdown":
                text = _bracket(text, _agree_digits(v, exacts[b]))
            row[f"beta={b}"] = text
        rows.append(row)
    rows.append({"d": "exact", **{f"beta={b}": _fmt(exacts[b]) for b in betas}})
    out.write(_emit("table", config, columns, rows))
    return 0


def _table_methods(config: RunConfig, model: ModelId, betas: list[str],
                   method_rows: list[tuple[str, Callable]], out) -> int:
    ctx = PrecisionContext(config.digits)
    columns = ["method"] + [f"beta={b}" for b in betas]
    exacts = {b: closed_form(model, b, ctx) for b in betas}
    rows = []
    for name, fn in method_rows:
        row = {"method": name}
        for b in betas:
            try:
                v = fn(b)
            except HeulagError as e:
                row[f"beta={b}"] = f"ERR({type(e).__name__})"
                continue
            text = _fmt(v)
            if config.fmt == "markdown":
                text = _bracket(text, _agree_digits(v, exacts[b]))
            row[f"beta={b}"] = text
        rows.append(row)
    rows.append({"method": "exact", **{f"beta={b}": _fmt(exacts[b]) for b in betas}})
    out.write(_emit("table", config, columns, rows))
    return 0


def _rec_for(model: ModelId, moments: int, digits: int) -> ReconstructionCoefficients:
    cfg = RunConfig(model=model, digits=digits, moments=moments, truncation=None,
                    betas=[], fmt="markdown", cache=None, force=False)
    return _reconstruct(cfg)


def cmd_table(config: RunConfig, number: int, out) -> int:
    if number == 1:
        config.model = ModelId.SPIN0
        return _table_partial(config, ModelId.SPIN0, ["0.01", "0.1", "0.2"], out)
    if number == 4:
        config.model = ModelId.SELF_DUAL
        return _table_partial(config, ModelId.SELF_DUAL, ["0.01", "0.1", "0.2"], out)
    if number == 2:
        model = ModelId.SPIN0
        betas = ["0.01", "0.1", "0.2", "1", "4", "10", "100", "1e4", "1e7", "1e12", "1e18"]
        digits = max(config.digits, 100)
        ctx = PrecisionContext(digits)
        rec10 = _rec_for(model, 10, 30)
        rec100 = _rec_for(model, 100, digits)
        series = coefficients(model, 102)
        delta_order = {"0.01": 35, "0.1": 25, "0.2": 25}
        rows = [
            ("extrap_d9", lambda b: extrapolate(model, rec10, b, None, PrecisionContext(30)).value),
            ("extrap_d99", lambda b: extrapolate(model, rec100, b, None, ctx).value),
            ("delta_n", lambda b: weniger_delta(
                series, delta_order.get(b, 100), b, ctx)),
            ("pade_49_50", lambda b: pade_eval(series, 49, 50, b, ctx)),
        ]
        config.digits = digits
        config.model = model
        return _table_methods(config, model, betas, rows, out)
    if number == 3:
        model = ModelId.SPIN_HALF
        betas = ["1", "4", "10", "100", "1e4", "1e7"]
        digits = max(config.digits, 100)
        ctx = PrecisionContext(digits)
        rec100 = _rec_for(model, 100, digits)
        series = coefficients(model, 101)
        rows = [
            ("extrap_d99", lambda b: extrapolate(model, rec100, b, None, ctx).value),
            ("delta_30", lambda b: weniger_delta(series, 30, b, ctx)),
            ("pade_49_50", lambda b: pade_eval(series, 49, 50, b, ctx)),
        ]
        config.digits = digits
        config.model = model
        return _table_methods(config, model, betas, rows, out)
    if number == 5:
        model = ModelId.SPIN0
        betas = ["0.01", "0.1", "1", "4", "10", "100", "1e4", "1e7", "1e12", "1e18"]
        digits = max(config.digits, 100)
        ctx = PrecisionContext(digits)
        rec100 = _rec_for(model, 100, digits)
        columns = ["beta", "tail", "delta", "sum", "exact"]
        rows = []
        for b in betas:
            r = extrapolate(model, rec100, b, None, ctx)
            rows.append({
                "beta": b, "tail": _fmt(r.tail), "delta": _fmt(r.delta),
                "sum": _fmt(r.value),
                "exact": _fmt(closed_form(model, b, ctx)),
            })
        config.digits = digits
        config.model = model
        out.write(_emit("table", config, columns, rows))
        return 0
    if number == 6:
        model = ModelId.SELF_DUAL
        betas = ["1e7", "1e13", "1e18", "1e19", "1e20"]
        digits = max(config.digits, 100)
        ctx = PrecisionContext(digits)
        ctx200 = PrecisionContext(max(digits, 200))
        rec100 = _rec_for(model, 100, digits)
        rec200 = _rec_for(model, 200, max(digits, 200))
        series = coefficients(model, 102)
        rows = [
            ("extrap_d99", lambda b: extrapolate(model, rec100, b, None, ctx).value),
            ("extrap_d199", lambda b: extrapolate(model, rec200, b, None, ctx200).value),
            ("delta_100", lambda b: weniger_delta(series, 100, b, ctx)),
            ("pade_49_50", lambda b: pade_eval(series, 49, 50, b, ctx)),
        ]
        config.digits = digits
        config.model = model
        return _table_methods(config, model, betas, rows, out)
    raise DomainError(f"table number must be 1..6, got {number}")


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

def _parse_betas(text: str | None) -> list[str]:
    if not text:
        return []
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        _to_beta(piece)
        out.append(piece)
    return out


def _parse_pade(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        n_str, m_str = text.split(",")
        return int(n_str), int(m_str)
    except ValueError:
        raise DomainError(f"--pade expects N,M integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heulag",
        description="Arbitrary-precision Heisenberg-Euler functions and "
                    "divergent-series resummation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, betas=True):
        p.add_argument("--model", choices=["spin0", "spin12", "sd"], default="spin0")
        p.add_argument("--digits", type=int, default=60)
        p.add_argument("--moments", type=int, default=None)
        p.add_argument("--truncation", type=int, default=None)
        if betas:
            p.add_argument("--beta", type=str, default="")
        p.add_argument("--format", choices=["csv", "json", "markdown"],
                       default="markdown", dest="fmt")
        p.add_argument("--cache", type=str, default=None)
        p.add_argument("--force", action="store_true")

    p_exact = sub.add_parser("exact", help="closed-form values")
    common(p_exact)
    p_exact.add_argument("--oracle", action="store_true",
                         help="also run the direct-quadrature oracle")

    p_series = sub.add_parser("series", help="partial sums of the weak-field series")
    common(p_series)

    p_rec = sub.add_parser("reconstruct", help="solve the moment problem, write cache")
    common(p_rec, betas=False)

    p_ext = sub.add_parser("extrapolate", help="strong-field extrapolant rows")
    common(p_ext)

    p_cmp = sub.add_parser("compare", help="method-comparison grid")
    common(p_cmp)
    p_cmp.add_argument("--pade", type=str, default=None, help="N,M degrees")
    p_cmp.add_argument("--delta", type=int, default=None, help="delta order n")

    p_tab = sub.add_parser("table", help="desk-scale reproduction of tables 1-6")
    p_tab.add_argument("number", type=int)
    common(p_tab, betas=False)

    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        model=ModelId(args.model),
        digits=args.digits,
        moments=args.moments,
        truncation=args.truncation,
        betas=_parse_betas(getattr(args, "beta", "")),
        fmt=args.fmt,
        cache=args.cache,
        force=args.force,
        oracle=getattr(args, "oracle", False),
        pade=_parse_pade(getattr(args, "pade", None)),
        delta=getattr(args, "delta", None),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        out = sys.stdout
        if args.command == "exact":
            return cmd_exact(config, out)
        if args.command == "series":
            return cmd_series(config, out)
        if args.command == "reconstruct":
            return cmd_reconstruct(config, out)
        if args.command == "extrapolate":
            return cmd_extrapolate(config, out)
        if args.command == "compare":
            return cmd_compare(config, out)
        if args.command == "table":
            return cmd_table(config, args.number, out)
        raise DomainError(f"unknown command {args.command!r}")
    except CacheMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ConditioningError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except HeulagError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
