"""Shared fixtures: precision contexts, memoized reconstructions and
memoized quadrature-oracle results.

High-order moment solves and oracle calls are reused across tests; they are
deterministic, so session-scope caching only trades time, not coverage.
"""
import re
from functools import lru_cache

import pytest
from mpmath import mp, mpf

import heulag
from heulag import ModelId, OracleFailureError, PrecisionContext


@lru_cache(maxsize=None)
def _reconstruct(model: ModelId, moments: int, digits: int):
    # heulag.reconstruct: the fixture below shadows the bare name
    return heulag.reconstruct(model, moments, PrecisionContext(digits))


@lru_cache(maxsize=None)
def _oracle_outcome(model: ModelId, beta: str, digits: int):
    try:
        return heulag.direct_integral_oracle(model, beta, PrecisionContext(digits)), None
    except OracleFailureError as e:
        return None, e.args


def oracle(model: ModelId, beta: str, digits: int):
    """direct_integral_oracle(model, beta, PrecisionContext(digits)), memoized
    with its OracleFailureError: a repeated failing call raises it afresh.
    Tests that patch or time the oracle call it directly."""
    value, failure = _oracle_outcome(model, beta, digits)
    if failure is not None:
        raise OracleFailureError(*failure)
    return value


@pytest.fixture(scope="session")
def reconstruct():
    return _reconstruct


@pytest.fixture(scope="session")
def ctx50():
    return PrecisionContext(50)


@pytest.fixture(scope="session")
def ctx60():
    return PrecisionContext(60)


@pytest.fixture(scope="session")
def ctx100():
    return PrecisionContext(100)


def printed_match(value, printed: str) -> bool:
    """True when every digit of the printed decimal literal is correct, i.e.
    the value lies within one unit in the last printed place (covers tables
    that truncate as well as ones that round)."""
    with mp.workdps(len(printed) + 25):
        t = mpf(printed)
        mantissa = re.sub(r"[eE].*$", "", printed).replace("-", "").replace(".", "")
        sig = len(mantissa.lstrip("0"))
        ulp = mpf(10) ** (int(mp.floor(mp.log10(abs(t)))) - sig + 1)
        return abs(value - t) <= ulp


def residual(rec) -> mpf:
    """residual_norm_of the record against its model's own moments, at its
    digits: the residual a cache header records."""
    mu = heulag.moments_from_coeffs(heulag.coefficients(rec.model, rec.d + 1), rec.d)
    return heulag.residual_norm_of(rec, mu, PrecisionContext(rec.digits))


def rel_err(value, target) -> mpf:
    with mp.workdps(mp.dps + 30):
        return abs(value - target) / abs(target)
