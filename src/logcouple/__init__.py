"""Exact-arithmetic workbench for the asymptotic couple of logarithmic transseries."""

from .gamma import (
    EQ,
    GT,
    INF,
    LT,
    ZERO,
    DomainError,
    ElementError,
    ExtendedElement,
    GammaElement,
    Infinity,
    arch_class_compare,
    derivative,
    first_non_one_index,
    format_element,
    in_conv_psi,
    in_negative_derivatives,
    in_positive_derivatives,
    integrate,
    parse_element,
    predecessor,
    psi,
    psi_element,
    psi_level,
    successor,
    unit,
)

__version__ = "0.1.0"
