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
    BUILTIN_RULES,
    COUNTABLE,
    DEFAULT_WINDOW,
    SEARCH_CAP,
    FiberReport,
    IndexMap,
    IndexSet,
    SymbolicRule,
    WindowOnly,
    block_rule,
    clamp_pred_rule,
    compose_finite,
    doubling_rule,
    fiber_report,
    make_finite_map,
    make_symbolic_map,
    map_to_json,
    odd_collapse_rule,
    parse_map,
    successor_rule,
    symbolic_map,
    triangular_rule,
    verify_fiber_soundness,
)
from .sparse_vec import (
    SparseVector,
    add,
    from_entries,
    inner,
    norm,
    norm_sq,
    parse_vector,
    scale,
    unit_vector,
    vector_to_json,
    zero,
)
from .gen_shift import (
    ClassificationReport,
    NotInL2,
    apply,
    apply_norm_sq,
    classify,
    operator_norm,
    phi_injective,
    phi_surjective,
    solve,
)
from .domain_analysis import (
    DivergenceWitness,
    DomainReport,
    MDescription,
    divergence_witness,
    domain_closed,
    domain_report,
    fiber_records,
    in_domain,
    m_set,
)
from .compact_witness import WitnessSequence, is_compact, witness_sequence

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
