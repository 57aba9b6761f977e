"""Exception types shared across the package, and the argument checks that raise ValueError.

Public constructors and once-per-run entry points check their arguments with these;
per-call code keeps its own inline checks.  A bool is neither an integer nor a real here.
"""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """A value lies outside its domain.

    Raised for a time or log-SNR value outside the schedule's domain (a table's
    ``lam_range`` included), for a sampler state with non-finite entries, and
    for statistics whose integral table has non-finite entries.
    """


class ConvergenceError(RuntimeError):
    """The adaptive reference integrator failed to reach the requested tolerance.

    Raised when a row's step falls below ten spacings of the floats at its
    lambda, when a row hits the step cap, and when a state or right-hand
    side turns non-finite.
    """


class TableFormatError(ValueError):
    """A statistics-table file is malformed or inconsistent."""


class UnsupportedVersionError(TableFormatError):
    """A statistics-table file declares a version this code does not read."""


def _a(noun: str) -> str:
    return f"{'an' if noun[:1] in 'AEIOUaeiou' else 'a'} {noun}"


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_int(value, name: str, lo: int, hi: int | None = None):
    """``value``, unless it is not an integer >= ``lo`` (and <= ``hi``, when given)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and lo <= value and (hi is None or value <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def check_real(value, name: str):
    """``value``, unless it is not a finite real number."""
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and real, got {value!r}")
    return value


def check_floats(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, unless numpy cannot read it as numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of real numbers, got {value!r}") from None


def check_span(value, name: str) -> tuple:
    """``value`` as a tuple ``(lo, hi)``, unless it is not two finite reals with lo < hi."""
    pair = tuple(value) if isinstance(value, (tuple, list, np.ndarray)) else ()
    if not (len(pair) == 2 and all(map(_is_real, pair))):
        raise ValueError(f"{name} must be a pair of real numbers, got {value!r}")
    if not all(map(math.isfinite, pair)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not pair[0] < pair[1]:
        raise ValueError(f"{name} must be increasing, got {value!r}")
    return pair


def check_items(value, name: str, length: int | None = None) -> tuple:
    """``value`` as a tuple, unless it is not a tuple or list (of ``length`` items, when given)."""
    sequence = isinstance(value, (tuple, list))
    if not (sequence and length in (None, len(value))):
        count = "" if length is None else f" of {length} items"
        got = _a(type(value).__name__) + (f" of {len(value)}" if sequence else "")
        raise ValueError(f"{name} must be a tuple or list{count}, got {got}")
    return tuple(value)


def check_members(value, what: str, methods, attributes=()) -> None:
    """Raise unless ``value`` has callable ``methods`` and ``attributes``, so a delegate passes."""
    missing = [name for name in methods if not callable(getattr(value, name, None))]
    missing += [name for name in attributes if not hasattr(value, name)]
    if missing:
        raise ValueError(f"expected {_a(what)}, got {_a(type(value).__name__)} without {missing}")


def check_instance(value, cls: type, name: str | None = None):
    """``value``, unless it is not a ``cls``; the message names the argument when given ``name``."""
    if not isinstance(value, cls):
        head = f"{name} must be" if name else "expected"
        raise ValueError(f"{head} {_a(cls.__name__)}, got {_a(type(value).__name__)}")
    return value
