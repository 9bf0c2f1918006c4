"""Command-line surface: model evaluation, extrapolation, method comparison,
and desk-scale table reproduction.

Each reference table is data: its model, beta columns, digit floor and
method rows (partial sums, extrapolation, delta, Pade). One grid layout
builds every table but table 5's per-beta decomposition. `compare` takes
its columns from the same method specs, and every method cell of a table
or of `compare` goes through one evaluator (_cells).

All numeric output is serialized as decimal strings (JSON numbers are never
used for high-precision values), and beta rows appear in input order. Every
run recomputes its reconstruction. Exit codes: 0 success, 2 domain error
(any HeulagError, or an OSError).
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
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Sequence

from mpmath import mpf, nstr
from mpmath.libmp import to_rational

from .comparators import _pade, weniger_delta
from .errors import CacheMismatchError, DomainError, HeulagError
from .extrapolant import Extrapolant, ExtrapolationResult
from .models import (
    ModelId,
    closed_form,
    coefficients,
    direct_integral_oracle,
    partial_sum,
)
from .momentrec import (ReconstructionCoefficients, moments_from_coeffs, reconstruct,
                        residual_norm_of)
from .specfun import PrecisionContext, _to_beta

PRINT_DIGITS = 21  # table/report cells carry this many significant digits
# Bump when coefficient-generating code changes; persisted in cache headers.
GENERATOR_VERSION = "2"

Row = dict[str, str]  # one output row: column name -> cell text


# ---------------------------------------------------------------------------
# Formatting helpers.
# ---------------------------------------------------------------------------

def _fmt(v, digits: int = PRINT_DIGITS) -> str:
    return nstr(v, digits)


def _agree_digits(value: mpf, exact: mpf) -> int:
    """Number of agreeing leading significant digits: the largest n <=
    PRINT_DIGITS with |value - exact| 10^n <= |exact|, else 0, on the two
    values' exact rationals."""
    v, e = (Fraction(*to_rational(x._mpf_)) for x in (value, exact))
    err, scale = abs(v - e), abs(e)
    return next((n for n in range(PRINT_DIGITS, 0, -1) if err * 10 ** n <= scale), 0)


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


def _emit(command: str, fmt: str, model: ModelId, digits: int,
          columns: Sequence[str], rows: list[Row]) -> str:
    if fmt == "json":
        doc = {
            "command": command,
            "model": model.value,
            "digits": digits,
            "rows": [{c: r.get(c, "") for c in columns} for r in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([r.get(c, "") for c in columns])
        return buf.getvalue()
    # markdown
    lines = [f"## {command} model={model.value} digits={digits}", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in columns) + "|")
    for r in rows:
        lines.append("| " + " | ".join(r.get(c, "") for c in columns) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cache file handling.
# ---------------------------------------------------------------------------

def write_cache(path: str, rec: ReconstructionCoefficients) -> None:
    """Write the header, with the record's residual_norm_of, and each
    coefficient to full precision, atomically; no partial file is ever left
    behind."""
    mu = moments_from_coeffs(coefficients(rec.model, rec.d + 1), rec.d)
    residual = residual_norm_of(rec, mu, PrecisionContext(rec.digits))
    lines = ["# heulag coefficient cache",
             f"# model: {rec.model.value}",
             f"# d: {rec.d}",
             f"# digits: {rec.digits}",
             f"# generator: {GENERATOR_VERSION}",
             f"# residual_norm: {_fmt(residual, 8)}"]
    # a mantissa of bc bits needs about 0.30103 bc digits
    lines += (nstr(c, max(rec.digits, int(c._mpf_[3] * 0.30103) + 5)) for c in rec.c)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".heulag-cache-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_field(field: str, convert, text: str, expected: str):
    """convert(text), or a CacheMismatchError naming the field."""
    try:
        return convert(text)
    except ValueError:
        raise CacheMismatchError(field, expected, text) from None


def load_cache(path: str) -> tuple[ReconstructionCoefficients, mpf]:
    """Parse a cache file; returns (coefficients, stored residual_norm). A file
    not in UTF-8 or a stale, missing or malformed field raises
    CacheMismatchError naming it."""
    header: dict[str, str] = {}
    body: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(filter(None, map(str.strip, fh)))
    except UnicodeDecodeError as e:
        raise CacheMismatchError("encoding", "UTF-8", f"byte {e.object[e.start]:#04x}") from None
    for line in lines:
        if not line.startswith("#"):
            body.append(line)
        elif ":" in line:
            key, _, val = line.lstrip("#").partition(":")
            header[key.strip()] = val.strip()
    if header.get("generator") != GENERATOR_VERSION:
        raise CacheMismatchError("generator", GENERATOR_VERSION, header.get("generator"))
    for key in ("model", "d", "digits", "residual_norm"):
        if key not in header:
            raise CacheMismatchError(key, "present", "missing")
    d = _cache_field("d", int, header["d"], "an integer")
    if d < 0:
        raise CacheMismatchError("d", ">= 0", d)
    if len(body) != d + 1:
        raise CacheMismatchError("coefficient count", d + 1, len(body))
    model = _cache_field("model", ModelId, header["model"], "/".join(m.value for m in ModelId))
    digits = _cache_field("digits", int, header["digits"], "an integer")
    parse = partial(mpf, dps=max(map(len, body)) + 10)  # at the longest value's digits
    c = tuple(_cache_field("coefficients", parse, v, "a decimal number") for v in body)
    stored = _cache_field("residual_norm", parse, header["residual_norm"], "a decimal number")
    return ReconstructionCoefficients(model, c, digits), stored


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _moments(args: argparse.Namespace) -> int:
    """The --moments a command requires, checked."""
    if args.moments is None:
        raise DomainError("this command requires --moments")
    if args.moments < 1:
        raise DomainError(f"--moments must be >= 1, got {args.moments}")
    return args.moments


def cmd_exact(args: argparse.Namespace, out) -> None:
    ctx = PrecisionContext(args.digits)
    columns = ["beta", "exact"] + (["oracle"] if args.oracle else [])
    rows = []
    for b in args.betas:
        row = {"beta": b, "exact": _fmt(closed_form(args.model, b, ctx), args.digits)}
        if args.oracle:
            row["oracle"] = _fmt(direct_integral_oracle(args.model, b, ctx), args.digits)
        rows.append(row)
    out.write(_emit("exact", args.fmt, args.model, args.digits, columns, rows))


def cmd_series(args: argparse.Namespace, out) -> None:
    if args.truncation is None:
        raise DomainError("series requires --truncation (the partial-sum order d)")
    ctx = PrecisionContext(args.digits)
    d = args.truncation
    rows = [{"beta": b, "d": str(d),
             "partial_sum": _fmt(partial_sum(args.model, b, d, ctx), args.digits)}
            for b in args.betas]
    out.write(_emit("series", args.fmt, args.model, args.digits,
                    ["beta", "d", "partial_sum"], rows))


def cmd_extrapolate(args: argparse.Namespace, out) -> None:
    result = _Extrap(_moments(args), args.truncation).results(args.model, args.digits)
    columns = ["beta", "value", "tail", "delta", "K"]
    rows = []
    for b in args.betas:
        r: ExtrapolationResult = result(b)
        rows.append({
            "beta": b,
            "value": _fmt(r.value, args.digits),
            "tail": _fmt(r.tail, args.digits),
            "delta": _fmt(r.delta, args.digits),
            "K": str(r.K),
        })
    out.write(_emit("extrapolate", args.fmt, args.model, args.digits, columns, rows))


# ---------------------------------------------------------------------------
# Methods compared against the closed form, and the one cell evaluator.
# ---------------------------------------------------------------------------

Method = tuple[str, Callable[[str], mpf]]  # (row or column label, value at a beta)


@dataclass(frozen=True)
class _Partials:
    """The partial sums of the given orders, labelled by the order after
    `prefix`."""

    orders: tuple[int, ...] = (*range(1, 11), 20, 50)
    prefix: str = ""

    def methods(self, model: ModelId, digits: int) -> list[Method]:
        ctx = PrecisionContext(digits)
        return [(f"{self.prefix}{d}", lambda b, d=d: partial_sum(model, b, d, ctx))
                for d in self.orders]


@dataclass(frozen=True)
class _Extrap:
    """The extrapolant from `moments` moments at the given digits, truncated
    at `truncation` (K = 2d when None). It is reconstructed and built on the
    first beta, so a run with no beta builds nothing, and a build that
    raises runs and raises again at every beta. The digits need not cover
    the moments: the solve is exact and rounds c with P's span on top, and
    the tail raises T's precision, once or per beta, when its sums cancel."""

    moments: int
    truncation: int | None = None

    def results(self, model: ModelId, digits: int) -> Callable[[str], ExtrapolationResult]:
        ctx = PrecisionContext(digits)
        ext = cache(lambda: Extrapolant.build(reconstruct(model, self.moments, ctx),
                                              self.truncation, ctx))
        return lambda b: ext().evaluate(b)

    def methods(self, model: ModelId, digits: int) -> list[Method]:
        result = self.results(model, digits)
        return [(f"extrap_d{self.moments - 1}", lambda b: result(b).value)]


@dataclass(frozen=True)
class _Delta:
    """The delta transformation of order `order`, or of the orders `at` gives
    per beta string (`order` for the rest)."""

    order: int
    at: tuple[tuple[str, int], ...] = ()

    def methods(self, model: ModelId, digits: int) -> list[Method]:
        ctx = PrecisionContext(digits)
        orders = dict(self.at)
        series = coefficients(model, max([self.order, *orders.values()]) + 2)
        return [("delta_n" if orders else f"delta_{self.order}",
                 lambda b: weniger_delta(series, orders.get(b, self.order), b, ctx))]


@dataclass(frozen=True)
class _Pade:
    """The [n/m] Pade approximant. Its qd table is built once per column, on
    the first beta; a build that raises runs and raises again at every beta,
    so each cell still shows the error."""

    n: int
    m: int

    def methods(self, model: ModelId, digits: int) -> list[Method]:
        ctx = PrecisionContext(digits)
        series = coefficients(model, self.n + self.m + 1)
        approximant = cache(lambda: _pade(series, self.n, self.m, ctx))
        return [(f"pade_{self.n}_{self.m}", lambda b: approximant()(b))]


_Spec = _Partials | _Extrap | _Delta | _Pade


def _cells(specs: Sequence[_Spec], model: ModelId, digits: int, betas: Sequence[str],
           fmt: str) -> tuple[list[mpf], list[tuple[str, list[tuple[str, str]]]]]:
    """The closed form at each beta, and each method's label with its (text,
    agreeing digits) at each beta. Markdown brackets the digits that agree
    with the closed form; a HeulagError becomes ERR(<name>) with no
    agreement, and the rest of the grid still runs."""
    ctx = PrecisionContext(digits)
    exacts = [closed_form(model, b, ctx) for b in betas]

    def cell(method: Callable[[str], mpf], beta: str, exact: mpf) -> tuple[str, str]:
        try:
            v = method(beta)
        except HeulagError as e:
            return f"ERR({type(e).__name__})", ""
        agree = _agree_digits(v, exact)
        return (_bracket(_fmt(v), agree) if fmt == "markdown" else _fmt(v)), str(agree)

    return exacts, [(label, [cell(method, b, e) for b, e in zip(betas, exacts)])
                    for spec in specs for label, method in spec.methods(model, digits)]


def cmd_compare(args: argparse.Namespace, out) -> None:
    order = args.truncation if args.truncation is not None else (
        args.moments - 1 if args.moments else None)
    specs = []
    if order is not None:
        specs.append(_Partials((order,), "partial_d"))
    if args.pade is not None:
        specs.append(_Pade(*args.pade))
    if args.delta is not None:
        specs.append(_Delta(args.delta))
    if args.moments is not None:
        specs.append(_Extrap(_moments(args)))
    exacts, cells = _cells(specs, args.model, args.digits, args.betas, args.fmt)
    columns = ["beta", *(name for name, _ in cells), "exact"]
    if args.fmt != "markdown":
        columns += [f"{name}_agree" for name, _ in cells]
    rows = []
    for i, (b, exact) in enumerate(zip(args.betas, exacts)):
        row = {"beta": b, "exact": _fmt(exact)}
        for name, column in cells:
            row[name], row[f"{name}_agree"] = column[i]
        rows.append(row)
    out.write(_emit("compare", args.fmt, args.model, args.digits, columns, rows))


# ---------------------------------------------------------------------------
# Desk-scale table reproduction: each table is data, built by one layout.
# ---------------------------------------------------------------------------

def _grid(table: "_Table", digits: int, fmt: str) -> tuple[list[str], list[Row]]:
    """One row per method, one column per beta, then the exact row."""
    exacts, cells = _cells(table.methods, table.model, digits, table.betas, fmt)
    columns = [table.key] + [f"beta={b}" for b in table.betas]
    rows = [dict(zip(columns, [label, *(text for text, _ in row)])) for label, row in cells]
    rows.append(dict(zip(columns, ["exact", *map(_fmt, exacts)])))
    return columns, rows


def _decomposition(table: "_Table", digits: int, fmt: str) -> tuple[list[str], list[Row]]:
    """One row per beta: the extrapolant's tail, pole term, their sum, and
    the exact value."""
    ctx = PrecisionContext(digits)
    (spec,) = table.methods
    result = spec.results(table.model, digits)
    rows = []
    for b in table.betas:
        r = result(b)
        rows.append({"beta": b, "tail": _fmt(r.tail), "delta": _fmt(r.delta),
                     "sum": _fmt(r.value), "exact": _fmt(closed_form(table.model, b, ctx))})
    return ["beta", "tail", "delta", "sum", "exact"], rows


@dataclass(frozen=True)
class _Table:
    """A reference table: its model, beta columns and method rows, run at
    the requested digits raised to at least `floor`. `key` heads the label
    column; `layout` turns the table into (columns, rows)."""

    model: ModelId
    betas: tuple[str, ...]
    methods: tuple[_Spec, ...]
    floor: int = 0
    key: str = "method"
    layout: Callable[["_Table", int, str], tuple[list[str], list[Row]]] = _grid


_WEAK_BETAS = ("0.01", "0.1", "0.2")

_TABLES = {
    1: _Table(ModelId.SPIN0, _WEAK_BETAS, (_Partials(),), key="d"),
    2: _Table(ModelId.SPIN0,
              _WEAK_BETAS + ("1", "4", "10", "100", "1e4", "1e7", "1e12", "1e18"),
              (_Extrap(10), _Extrap(100),
               _Delta(100, at=(("0.01", 35), ("0.1", 25), ("0.2", 25))), _Pade(49, 50)),
              floor=100),
    3: _Table(ModelId.SPIN_HALF, ("1", "4", "10", "100", "1e4", "1e7"),
              (_Extrap(100), _Delta(30), _Pade(49, 50)), floor=100),
    4: _Table(ModelId.SELF_DUAL, _WEAK_BETAS, (_Partials(),), key="d"),
    5: _Table(ModelId.SPIN0,
              ("0.01", "0.1", "1", "4", "10", "100", "1e4", "1e7", "1e12", "1e18"),
              (_Extrap(100),), floor=100, layout=_decomposition),
    6: _Table(ModelId.SELF_DUAL, ("1e7", "1e13", "1e18", "1e19", "1e20"),
              (_Extrap(100), _Extrap(200), _Delta(100), _Pade(49, 50)),
              floor=100),
}


def cmd_table(args: argparse.Namespace, out) -> None:
    table = _TABLES.get(args.number)
    if table is None:
        raise DomainError(f"table number must be 1..{len(_TABLES)}, got {args.number}")
    digits = max(args.digits, table.floor)
    columns, rows = table.layout(table, digits, args.fmt)
    out.write(_emit("table", args.fmt, table.model, digits, columns, rows))


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


_FLAGS = {
    "--model": dict(choices=["spin0", "spin12", "sd"], default="spin0"),
    "--digits": dict(type=int, default=60),
    "--moments": dict(type=int, default=None),
    "--truncation": dict(type=int, default=None),
    "--beta": dict(type=str, default=""),
    "--format": dict(choices=["csv", "json", "markdown"], default="markdown", dest="fmt"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags it reads and the
    function that runs it."""
    parser = argparse.ArgumentParser(
        prog="heulag",
        description="Arbitrary-precision Heisenberg-Euler functions and "
                    "divergent-series resummation")
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag a command does not take keeps its default in the namespace.
    parser.set_defaults(oracle=False, pade=None, delta=None,
                        **{spec.get("dest", flag[2:]): spec["default"]
                           for flag, spec in _FLAGS.items()})

    def command(name, help, run, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p_exact = command("exact", "closed-form values", cmd_exact,
                      "--model", "--digits", "--beta", "--format")
    p_exact.add_argument("--oracle", action="store_true",
                         help="also run the direct-quadrature oracle")
    command("series", "partial sums of the weak-field series", cmd_series,
            "--model", "--digits", "--truncation", "--beta", "--format")
    command("extrapolate", "strong-field extrapolant rows", cmd_extrapolate, *_FLAGS)
    p_cmp = command("compare", "method-comparison grid", cmd_compare, *_FLAGS)
    p_cmp.add_argument("--pade", type=str, default=None, help="N,M degrees, N >= M - 1")
    p_cmp.add_argument("--delta", type=int, default=None, help="delta order n")
    p_tab = command("table", "desk-scale reproduction of tables 1-6", cmd_table,
                    "--digits", "--format")
    p_tab.add_argument("number", type=int)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.model = ModelId(args.model)
        args.betas = _parse_betas(args.beta)
        args.pade = _parse_pade(args.pade)
        args.run(args, sys.stdout)
        return 0
    except (HeulagError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
