"""Shift operators induced by index self-maps on square-summable families.

The library represents index sets (finite {1..n} or all positive integers),
total self-maps with exact fiber oracles, and finitely supported complex
vectors, then answers every structural question about the induced operator
(boundedness, norm, injectivity, surjectivity, isometry, natural domain,
compactness) with certificates, cross-checked by a dense brute-force oracle
at small sizes. The oracle, and numpy with it, is imported on first use.
"""

from .errors import (
    ConstructionError,
    DomainError,
    GenShiftError,
    IntegrityError,
    ParseError,
    SearchExhaustedError,
    UnsupportedError,
)
from .index_domain import (
    COUNTABLE,
    DEFAULT_WINDOW,
    SEARCH_CAP,
    FiberReport,
    IndexMap,
    IndexSet,
    SymbolicRule,
    WindowOnly,
    fiber_report,
    make_finite_map,
    map_to_json,
    parse_map,
    symbolic_map,
)
from .sparse_vec import (
    SparseVector,
    from_entries,
    norm_sq,
    parse_vector,
    vector_to_json,
)
from .gen_shift import (
    ClassificationReport,
    NotInL2,
    apply,
    apply_norm_sq,
    classify,
    operator_norm,
    solve,
)
from .domain_analysis import (
    DivergenceWitness,
    DomainReport,
    divergence_witness,
    domain_report,
    fiber_records,
    in_domain,
)
from .compact_witness import WitnessSequence, witness_sequence

__version__ = "0.1.0"

# The dense oracle needs numpy, so its names are resolved on first use (PEP 562).
_DENSE_ORACLE = frozenset((
    "EXHAUSTIVE_CAP", "DenseOperator", "MapAgreement", "StructuralReport", "check_map_agreement",
    "exhaustive_maps", "random_tables", "spectral_norm", "structural_check", "sweep", "to_dense"))


def __getattr__(name: str):
    if name in _DENSE_ORACLE:
        from . import dense_oracle
        return getattr(dense_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
