"""Rainbow d-out subgraph machinery for randomly coloured random graphs.

Library layout:
  graphs    -- coloured random graph/digraph sampling and transforms
  flow      -- the colour/vertex flow network, extraction, cut condition
  coupling  -- binomial-truncation coupling of d-out with arc-probability models
  bounds    -- closed-form thresholds and failure bounds, in log space
  targets   -- target graph families, density profiles, gamma
  search    -- exact rainbow copy / rainbow spanning tree search
  harness   -- seeded Monte Carlo experiments, JSONL/CSV output
  cli       -- command-line entry points over all of the above
"""

from .bounds import (
    BoundReport,
    RiordanReport,
    ThresholdReport,
    alon_furedi_threshold,
    chernoff_bound,
    log_L,
    riordan_condition,
    theorem1_threshold,
    theta,
)
from .coupling import CouplingOutcome, chernoff_success_estimate, couple
from .flow import (
    FlowNetwork,
    HallWitness,
    RainbowDOut,
    build_network,
    check_hall_bruteforce,
    extract_rainbow_dout,
    extract_via_permutation,
    max_flow,
)
from .graphs import (
    ColouredDigraph,
    ColouredGraph,
    PermutationFamily,
    ProbabilitySplit,
    apply_permutations,
    coalesce_orientation,
    identity_permutation_family,
    random_permutation_family,
    sample_coloured_digraph,
    sample_coloured_graph,
    sample_d_out,
    split_probability,
)
from .harness import ExperimentConfig, SweepResult, TrialRecord, run_sweep, run_trials
from .rng import substream
from .search import (
    RainbowEmbedding,
    find_rainbow_copy_exact,
    find_rainbow_spanning_tree,
    max_rainbow_forest,
    verify_embedding,
)
from .targets import (
    DensityProfile,
    TargetGraph,
    density_profile,
    make_cycle,
    make_grid,
    make_hypercube,
    make_matching,
    make_path,
    random_tree,
)

__version__ = "0.1.0"
