"""Shared exception and warning types, and the argument checks that the
entry points and the config schemas share: each raises ``ValueError`` with
a message that starts with the argument's name, and rejects inf and NaN.

The integer rule lives in :func:`_check_int` alone: a value is an integer
if it has ``__index__`` (Python and numpy integers do, a float such as 3.0
does not) and is not a bool (Python's ``bool`` has ``__index__``, numpy's
does not), and it must lie in [lo, hi].  Every size, depth, count, seed and
stream label goes through it.
"""

_INF = float("inf")


class LmeLabError(Exception):
    """Base class for package-specific errors."""


class ConfigError(LmeLabError):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


class ContractViolation(LmeLabError):
    """A numerical contract failed: bracket failure, negative denominator,
    projection-distance breach and the like (CLI exit code 3)."""


class QuadratureWarning(UserWarning):
    """Adaptive quadrature did not certify the requested tolerance."""


def _check_gt0(name: str, value) -> None:
    if not 0.0 < value < _INF:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_ge0(name: str, value) -> None:
    if not 0.0 <= value < _INF:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_q(q) -> None:
    if not 0.5 < q < _INF:
        raise ValueError(f"q must exceed 1/2 and be finite, got {q}")


def _check_q_below_one(q) -> None:
    # the Laplace route and the factorial bound hold for q in (1/2, 1) only
    if not 0.5 < q < 1.0:
        raise ValueError(f"q in (1/2, 1) is required, got {q}")


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    integer = hasattr(value, "__index__") and not isinstance(value, bool)
    if not (integer and lo <= value and (hi is None or value <= hi)):
        rule = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {rule}, got {value}")


def _check_count(name: str, value) -> None:
    _check_int(name, value, 1)


def _check_distinct(name: str, values) -> None:
    # each value keys a run's record (lme powers, chain q's): a repeat
    # would record it twice
    if not all(-_INF < v < _INF for v in values):
        raise ValueError(f"{name} must be finite, got {tuple(values)}")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} has a repeated value in {tuple(values)}")
