"""Simulator and security harness for multiparty quantum private comparison
with two mutually watching third parties."""

from .ghz import (
    Basis,
    GhzRegister,
    GhzSpec,
    OracleRegister,
    ProductRegister,
    ghz_from_index,
    pair_xor,
    x_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "GhzRegister",
    "GhzSpec",
    "OracleRegister",
    "ProductRegister",
    "ghz_from_index",
    "pair_xor",
    "x_expansion",
    "__version__",
]
