"""Exact graded Betti tables of monomial ideals: closed formula for
stable ideals, an independent homology oracle, the classical ideal
constructions, exhaustive search, and the decision procedure for
prescribed extremal Betti numbers."""

from .betti import (
    BettiTable,
    betti_from_counts,
    ek_betti,
    extremal_corners,
    render,
    table_to_json,
)
from .constructions import (
    GreedyResult,
    MatrixCheck,
    check_matrix_lexsegment,
    check_matrix_necessary,
    is_lexsegment_count_vector,
    lexsegment_count_vector,
    lexsegment_ideal,
    piecewise_lexsegment,
    realize_matrix_greedy,
    strongly_stable_with_counts,
    subring_lexsegment_ideal,
)
from .enumeration import (
    SearchOutcome,
    count_strongly_stable,
    enumerate_strongly_stable,
    random_strongly_stable,
    search_extremal_profile,
    search_matrix,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    InfeasibleProfileError,
    MalformedInputError,
    NotStableError,
    StableBettiError,
    UnitIdealError,
)
from .extremal import (
    ExtremalProfile,
    ProfileCheck,
    check_profile,
    forced_counts,
    nested_lex_ideal,
    verify_profile,
    witness_count_vector,
)
from .ideals import (
    GeneratorMatrix,
    MonomialIdeal,
    count_vector,
    counts_to_matrix,
    generator_matrix,
    graded_component,
    hilbert_function,
    is_lexsegment,
    is_piecewise_lex_up_to,
    is_stable,
    is_strongly_stable,
    minimalize,
    times_maximal,
)
from .macaulay import (
    MacaulayRep,
    binom,
    cumsum,
    is_o_sequence,
    iterated_cumsum_last,
    macaulay_rep,
    macaulay_shift,
    min_shift_preimage,
)
from .monomials import (
    deglex_key,
    enumerate_degree,
    max_index,
    monomials_with_max_index,
)
from .oracle import integer_matrix_rank, oracle_betti

__version__ = "0.1.0"
