"""Revenue-optimal placement of substitutable products over display locations.

Customers first browse a random subset of locations, then pick at most one
of the products displayed there according to a discrete choice model. The
library evaluates placements exactly or by sampling, solves for good
placements with oracle-driven and greedy algorithms, and ships brute-force
baselines plus worst-case instance generators for verification.
"""

from .browsing import (
    BrowsingDistribution,
    ExplicitBrowsing,
    LineBrowsing,
    SamplerBrowsing,
    browsing_from_spec,
    full_support,
    singleton_uniform,
)
from .choice import (
    ChoiceModel,
    MarkovModel,
    MmnlModel,
    MnlModel,
    RankedListModel,
    check_weak_rationality,
    expected_revenue,
    markov_from_mnl,
    model_from_spec,
    no_purchase_prob,
)
from .core import (
    EMPTY_SLOT,
    EnumerationUnsupportedError,
    Instance,
    SizeGuardError,
    canon,
    products_at,
    substream,
)
from .estimation import EstimationPlan, estimate_w, sample_size
from .instances import (
    from_json,
    gen_coverage_mmnl,
    gen_first_slot_only,
    gen_heavy_tail_line,
    gen_random,
    gen_uniform_line,
    heavy_tail_single_id,
    heavy_tail_single_placement,
    heavy_tail_tier_ids,
    heavy_tail_tier_placement,
    instance_from_dict,
    instance_to_dict,
    to_json,
)
from .oracle import (
    AssortmentOracle,
    BruteForceOracle,
    GreedyUniformOracle,
    MnlExactOracle,
    exact_oracle,
)
from .solvers import (
    SolveReport,
    WEstimate,
    WEvaluator,
    best_of_many_line,
    brute_force_placement,
    check_pair_objective_properties,
    check_restricted_revenue_properties,
    evaluate_exact,
    fill_empty,
    markov_deterministic_placement,
    pair_objective_values,
    randomized_placement,
    sample_average_placement,
    uniform_price_matroid_greedy,
)

__version__ = "0.1.0"
