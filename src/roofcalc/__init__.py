"""Exact-arithmetic calculator for homogeneous-bundle cohomology on
Grassmannians: Schur calculus, Borel-Weil-Bott, Hodge diamonds of zero loci,
roof classification from marked Dynkin diagrams, and tilting vanishing
checks."""

__version__ = "0.1.0"

from .bwb import BottResult, bott, gl_dimension
from .hodge import (
    HodgeDiamond,
    ZeroLocusSpec,
    ambient_diamond,
    check_pair_theorem,
    hodge_numbers,
    v_cohomology,
)
from .lr import SchurSum, lr_double_product, lr_product
from .motive import EPoly, derive_b2, verify_lemma_leq
from .roofs import MarkedDynkin, RoofRecord, classify
from .weights import BoxSet, DoubleWeight, bar_move, enumerate_box
from .windows import (
    Collection,
    VanishingReport,
    bar_moved_collection,
    check_tilting_minus,
    check_tilting_plus,
    kapranov_collection,
)

__all__ = [
    "BottResult",
    "BoxSet",
    "Collection",
    "DoubleWeight",
    "EPoly",
    "HodgeDiamond",
    "MarkedDynkin",
    "RoofRecord",
    "SchurSum",
    "VanishingReport",
    "ZeroLocusSpec",
    "ambient_diamond",
    "bar_move",
    "bar_moved_collection",
    "bott",
    "check_pair_theorem",
    "check_tilting_minus",
    "check_tilting_plus",
    "classify",
    "derive_b2",
    "enumerate_box",
    "gl_dimension",
    "hodge_numbers",
    "kapranov_collection",
    "lr_double_product",
    "lr_product",
    "v_cohomology",
    "verify_lemma_leq",
    "__version__",
]
