"""Exact fusion classification for tensor squares and wreath products of
strongly regular graph association schemes.

The package decides, entirely in exact arithmetic, which of the 4140
partitions of the eight non-identity classes of a tensor-square scheme give
fusions: thirteen hold for every rank-3 table algebra, a catalogued list of
parameter families (imprimitive, conference, and several one-parameter
families, plus two sporadic small tables) admit special-case fusions, and
every remaining partition carries a machine-checkable infeasibility
certificate.  A brute-force adjacency-matrix oracle independently confirms
positive verdicts on concrete graphs.
"""

__version__ = "0.1.0"

from .exact import (
    MultiPoly,
    MixedField,
    MissingSymbol,
    NonzeroCertificate,
    QuadraticValue,
    ZeroInput,
    default_sieve_set,
    quad,
)
from .scheme import (
    CharTable,
    EigenData,
    FeasibilityReport,
    InfeasibleParams,
    NonIntegralMultiplicity,
    SrgParams,
    char_table,
    eigen_from_params,
    eigen_from_values,
    feasibility,
    imprimitive_eigen,
    regular_matrices,
)
from .partitions import (
    SetPartition,
    bell_number,
    coarsenings,
    enumerate_partitions,
    hasse_edges,
    parse,
    refines,
)
from .products import (
    FLIP,
    IndexPermutation,
    SWITCH,
    act,
    single_index,
    tensor_square_table,
    wreath_partition,
    wreath_table,
)
from .fusion import (
    FusionVerdict,
    IndexMismatch,
    NotAFusion,
    bm_check,
    fused_table,
    scan_all,
)
from .catalogue import (
    ClassificationRecord,
    FamilySpec,
    family_catalog,
    family_match,
    guaranteed_partition_strings,
    potential_equality_graph,
    symbolic_tensor_table,
)
from .checker import verify_record

# the prover loads on first use, so importing the checker loads none of it
_PROVER = ("classify_all", "classify_partition", "classify_wreath")
# so does the matrix oracle, and NumPy with it
_ORACLE = ("BadSpec", "Graph01", "IntersectionTensor", "NotStronglyRegular",
           "SchemeMatrices", "build_graph", "cross_check", "scheme_matrices",
           "srg_params", "tensor_fuse", "verify_scheme")


def __getattr__(name):
    if name in _PROVER:
        from . import classifier
        return getattr(classifier, name)
    if name == "oracle" or name in _ORACLE:
        # import_module, as ``from . import oracle`` would call back here
        import importlib
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["oracle", *_ORACLE]) + list(_PROVER)
