"""Exact desk-scale computations with spaces with labelled partitions.

The structure of a space is its difference oracle: a map returning, for any
two points, the finitely supported vector of label-value differences.  The
package provides the oracle algebra (``core``), group machinery including
amalgam normal forms (``groups``), atomic measured walls (``walls``), the
construction combinators (``constructions``), trees of coset spaces for
amalgamated free products (``amalgam``), concrete model spaces and the
cocycle bridge (``examples``), and a config-driven command line (``cli``).
"""

from .core import (
    Action,
    CheckReport,
    DomainError,
    InvalidInput,
    NormSpec,
    PointUniverse,
    SUP,
    Space,
    SparseVec,
    check_equivariance,
    check_homomorphism,
    check_pseudo_metric,
    dist,
    pair_energy,
    q_energy,
    relabel,
    sep,
)

__all__ = [
    "Action",
    "CheckReport",
    "DomainError",
    "InvalidInput",
    "NormSpec",
    "PointUniverse",
    "SUP",
    "Space",
    "SparseVec",
    "check_equivariance",
    "check_homomorphism",
    "check_pseudo_metric",
    "dist",
    "pair_energy",
    "q_energy",
    "relabel",
    "sep",
]
