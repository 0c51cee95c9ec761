"""Exact-arithmetic workbench for the asymptotic couple of logarithmic transseries.

``harness`` and ``subspace`` load on first use, as ``logcouple.harness`` or
through ``import logcouple.harness``, which works as before.
"""

import importlib

from .gamma import (
    INF,
    ZERO,
    DomainError,
    ExtendedElement,
    GammaElement,
    Infinity,
    derivative,
    first_non_one_index,
    format_element,
    in_conv_psi,
    in_negative_derivatives,
    in_positive_derivatives,
    integrate,
    predecessor,
    psi,
    psi_element,
    psi_level,
    successor,
    unit,
)
from .lang import ElementError, parse_element

__version__ = "0.1.0"


def __getattr__(name: str) -> object:  # PEP 562
    if name in ("harness", "subspace"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
