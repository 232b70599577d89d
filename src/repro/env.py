"""Typed readers for the ``CHIMERA_*`` environment knobs.

Every numeric knob is read the same way: unset or blank means the
default; anything else must parse as the type and sit inside the bounds,
or a :class:`~repro.errors.ConfigError` names the variable (chaining the
``ValueError`` of a failed parse).
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TypeVar

from repro.errors import ConfigError

__all__ = ["env_float", "env_int"]

N = TypeVar("N", int, float)


def _env_number(name: str, default: N, parse: Callable[[str], N], noun: str,
                minimum: Optional[N], maximum: Optional[N],
                above: Optional[N]) -> N:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} must be {noun}, got {raw!r}") from exc
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum:g}")
    if above is not None and value <= above:
        raise ConfigError(f"{name} must be > {above:g}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum:g}")
    return value


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """Integer knob ``name`` (``default`` when unset), ``>= minimum``."""
    return _env_number(name, default, int, "an integer", minimum, None, None)


def env_float(name: str, default: float, minimum: Optional[float] = None,
              maximum: Optional[float] = None,
              above: Optional[float] = None) -> float:
    """Float knob ``name`` (``default`` when unset), within
    ``[minimum, maximum]`` and strictly greater than ``above``."""
    return _env_number(name, default, float, "a number", minimum, maximum,
                       above)
