"""Spans recorded around calls into heulag's public functions.

The tracer replaces each listed function, in every heulag module that binds
it, with a wrapper that records one span per call: name, start, end, parent
span and operation id. Spans stay in memory until the run ends. No heulag
source is changed; the wrappers are removed after each traced pass.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Layer -> public functions on the workloads' call paths. No public specfun
# function is called by these paths; its time shows in the callers' self time.
TRACED = {
    "models": ("coefficients", "closed_form", "partial_sum",
               "direct_integral_oracle", "finite_part_assembly"),
    "finitepart": ("fp_csch", "fp_coth", "fp_sinh2", "fp_exp_over_xm"),
    "momentrec": ("moments_from_coeffs", "build_P_exact", "solve_coeffs",
                  "residual_norm_of", "rho_eval"),
    "extrapolant": ("extrapolate", "tail_sum"),
    "comparators": ("pade_eval", "weniger_delta"),
    "cli": ("write_cache", "load_cache"),
}
TRACED_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None = None


class Tracer:
    """Single-threaded span recorder; the open spans form a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function wherever a heulag module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "heulag" or n.startswith("heulag."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"heulag.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                d = asdict(s)
                d["start"] -= t0
                d["end"] -= t0
                fh.write(json.dumps(d) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, busy_s, self_s and failed per span name."""
    totals: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
        t["calls"] += 1
        t["busy_s"] += s.end - s.start
        t["self_s"] += own
        t["failed"] += s.error is not None
    return totals
