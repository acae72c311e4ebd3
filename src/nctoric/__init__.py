"""Exact-arithmetic toolkit for noncommutative toric charts built from
free-group words over a fan, the invertible sheaves and twisted sections
they carry, and matrix-point morphisms into them."""

__version__ = "0.1.0"
