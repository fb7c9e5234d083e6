"""Polyhedral clinching auctions for budget-constrained bidders.

Exact-rational implementation of the ascending clinching auction over
polymatroidal environments (multi-unit, sponsored search, matroid and
network-cut markets), together with verifiers for its Pareto, truthfulness
and feasibility properties and executable reproductions of the known
counterexamples.
"""

from .auction import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    Outcome,
    TraceSnapshot,
    UNBOUNDED,
    bidder,
    clinch_generic_2player,
    demand,
    fast_residual_max,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    run_scaled,
)
from .environments import (
    AdWordsInstance,
    CapacitatedNetwork,
    adwords_oracle,
    decompose,
    graphic_oracle,
    multi_unit_oracle,
    single_keyword_oracle,
    vod_cut_oracle,
)
from .errors import (
    ClinchError,
    DivergenceError,
    DomainError,
    ParseError,
    PreconditionError,
    SizeError,
)
from .submodular import (
    ResidualOracle,
    SubmodularOracle,
    clinch_amounts,
    greedy_vertex,
    membership,
    min_constrained,
    residual,
    verify_submodular,
)
from .verify import (
    VerificationReport,
    check_dominated_direction,
    check_outcome,
    curve_deviation_grid,
    demo_appendix_d,
    demo_impossibility,
    fuzz_truthfulness,
    run_with_monitors,
    validate_trace,
    value_deviation_grid,
)

__version__ = "0.1.0"
