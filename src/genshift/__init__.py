"""Shift operators induced by index self-maps on square-summable families.

The library represents index sets (finite {1..n} or all positive integers),
total self-maps with exact fiber oracles, and finitely supported complex
vectors, then answers every structural question about the induced operator
(boundedness, norm, injectivity, surjectivity, isometry, natural domain,
compactness) with certificates, cross-checked by a dense brute-force oracle
at small sizes. That oracle needs numpy, so the package leaves it out: import
``genshift.dense_oracle`` to use it.
"""

from .errors import (
    GenShiftError,
    IntegrityError,
    NotInL2,
    ParseError,
    UnsupportedError,
)
from .index_domain import (
    COUNTABLE,
    DEFAULT_WINDOW,
    SEARCH_CAP,
    IndexMap,
    IndexSet,
    SymbolicRule,
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
    apply,
    apply_norm_sq,
    classify,
    solve,
)
from .domain_analysis import (
    DivergenceWitness,
    divergence_witness,
    fiber_records,
    in_domain,
)
from .compact_witness import WitnessSequence, witness_sequence

__version__ = "0.1.0"
