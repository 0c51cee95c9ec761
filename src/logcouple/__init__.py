"""Exact-arithmetic workbench for the asymptotic couple of logarithmic transseries."""

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
