"""Lower-bound constructions: TRIBES reductions and bound formulas."""

from .bounds import (
    BoundReport,
    bcq_bounds,
    faq_bounds,
    steiner_term,
    structure_parameters,
    table1_gap_budget,
)
from .cut_simulation import (
    CutAccountingError,
    CutTranscript,
    cut_transcript,
    implied_round_lower_bound,
    predicted_crossing_bits,
    verify_cut_accounting,
)
from .core_embedding import (
    core_embedding_capacity,
    embed_tribes_in_core,
    find_disjoint_cycles,
    greedy_independent_set,
)
from .forest_embedding import (
    TribesEmbedding,
    embed_tribes_in_forest,
    embedding_capacity,
)
from .hypergraph_embedding import (
    embed_tribes_in_hypergraph,
    strong_independent_set,
)
from .tribes import (
    TribesInstance,
    hard_tribes,
    random_tribes,
    tribes_round_lower_bound,
)

__all__ = [
    "CutTranscript",
    "CutAccountingError",
    "cut_transcript",
    "verify_cut_accounting",
    "implied_round_lower_bound",
    "predicted_crossing_bits",
    "TribesInstance",
    "random_tribes",
    "hard_tribes",
    "tribes_round_lower_bound",
    "TribesEmbedding",
    "embed_tribes_in_forest",
    "embedding_capacity",
    "embed_tribes_in_core",
    "core_embedding_capacity",
    "find_disjoint_cycles",
    "greedy_independent_set",
    "embed_tribes_in_hypergraph",
    "strong_independent_set",
    "BoundReport",
    "bcq_bounds",
    "faq_bounds",
    "steiner_term",
    "structure_parameters",
    "table1_gap_budget",
]
