"""Exception hierarchy shared across the package."""

__all__ = [
    "HeulagError",
    "DomainError",
    "DegeneracyError",
    "ConsistencyError",
    "OracleFailureError",
    "CacheMismatchError",
]


class HeulagError(Exception):
    """Base class for all package errors."""


class DomainError(HeulagError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegeneracyError(HeulagError):
    """A linear system required by a transformation is singular."""


class ConsistencyError(HeulagError):
    """An internal cross-check failed (moments of an alternating Stieltjes
    series that are not all positive)."""


class OracleFailureError(HeulagError):
    """A numerical oracle (quadrature or extrapolation) did not converge."""


class CacheMismatchError(HeulagError):
    """A coefficient cache file that cli.load_cache cannot read: not UTF-8,
    or a stale, missing or malformed field, which `field` names."""

    def __init__(self, field: str, expected, found):
        self.field = field
        self.expected = expected
        self.found = found
        super().__init__(
            f"cache mismatch on '{field}': expected {expected!r}, found {found!r}"
        )
