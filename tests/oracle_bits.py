"""Frozen bits of the quadrature oracle and of the Pade qd rows.

For each case the file data/oracle_bits.json holds the exact libmp value
(sign, mantissa in hex, exponent) that `direct_integral_oracle` returns, or
"raises" where it raises `OracleFailureError`, and the S-fraction
coefficients alpha_1.. of the [49/50] Pade approximant at 100 digits for each
model. A change that must keep these values bit-identical records them
before it and checks against them after; regenerate with

    PYTHONPATH=src python tests/oracle_bits.py

(about 25 s). pytest does not collect this file (its name does not start
with test_); test_models.py and test_comparators.py check every entry.
"""
import json
from pathlib import Path

from heulag.comparators import _qd_row, _span_digits
from heulag.errors import OracleFailureError
from heulag.models import ModelId, coefficients, direct_integral_oracle
from heulag.specfun import PrecisionContext, _to_mpf

PATH = Path(__file__).resolve().parent / "data" / "oracle_bits.json"
# The benchmark's quadrature betas among powers of ten, at three precisions,
# for every model; then each precision's return/raise edges and tiny betas.
GRID_BETAS = ("0.01", "0.1", "1", "10", "452.513", "1484.03", "1e4", "1e5", "1e7", "1e10")
GRID = tuple((digits, beta) for digits in (30, 60, 150) for beta in GRID_BETAS)
EDGES = (*((60, b) for b in ("1e-50", "1e-30", "1e13", "1e14", "1e16", "1e17", "1e30")),
         (150, "1e22"), (150, "1e23"), (300, "1"))
CASES = GRID + EDGES
PADE = (49, 50, 100)  # [N/M] and the digits of the qd rows


def key(model: ModelId, digits: int, beta: str) -> str:
    return f"{model.value} {digits} {beta}"


def _bits(v) -> list:
    sign, man, exp, _ = v._mpf_
    return [sign, hex(man), exp]


def oracle_bits(model: ModelId, digits: int, beta: str):
    """[sign, hex mantissa, exponent] of the oracle's value, or "raises"."""
    try:
        return _bits(direct_integral_oracle(model, beta, PrecisionContext(digits)))
    except OracleFailureError:
        return "raises"


def qd_bits(model: ModelId) -> list:
    """The alpha row of the [N/M] Pade approximant, as pade_eval builds it."""
    N, M, digits = PADE
    need, L = N + M + 1, N - M + 1
    series = coefficients(model, need)
    with PrecisionContext(digits).work(_span_digits(series, need) + 10):
        return [_bits(v) for v in _qd_row([_to_mpf(f) for f in series.a], L)]


def load() -> dict:
    """{"oracle": {key: bits or "raises"}, "qd": {model: [bits, ...]}}."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def main() -> None:
    data = {"oracle": {key(m, d, b): oracle_bits(m, d, b) for m in ModelId for d, b in CASES},
            "qd": {m.value: qd_bits(m) for m in ModelId}}
    PATH.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
