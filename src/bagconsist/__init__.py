"""Consistency of bag (multiset) databases.

Decides pairwise and global consistency, builds small witnesses over
acyclic schemas by chaining northwest-corner two-bag witnesses, classifies
schema hypergraphs, and generates counterexample and hardness-reduction
instances. Two independent references back the tests: an exact max-flow
characterisation of two-bag consistency (``KERNEL`` names its Dinic kernel,
always ``"python"``) and a brute-force integer-feasibility oracle.
"""
from .bags import (
    Bag,
    BagFormatError,
    SchemaMismatchError,
    SizeNorms,
    make_schema,
    project_row,
)
from .consistency import (
    BagDatabase,
    ConsistencyReport,
    CyclicHypergraphError,
    DatabaseError,
    OracleExhaustedError,
    acyclic_global_witness,
    clique_hardness_lift,
    cycle_hardness_lift,
    encode_3dct,
    global_consistent,
    inconsistent_pairs,
    k_wise_consistent,
    lift_collection,
    minimal_two_bag_witness,
    pairwise_consistent,
    tseitin_counterexample,
    two_bag_witness,
)
from .flow import (
    KERNEL,
    Flow,
    FlowError,
    FlowNetwork,
    build_network,
    is_saturated,
    max_flow,
    suppress_middle_arc,
)
from .hypergraph import (
    BadWitness,
    Hypergraph,
    HypergraphError,
    JoinTree,
    SafeDeletionOp,
    apply_safe_deletion,
    clique_complement_hypergraph,
    cycle_hypergraph,
    find_bad_witness,
    path_hypergraph,
    replay_ops,
)
from .oracle import (
    EXHAUSTED,
    BoundsReport,
    OracleBudget,
    check_witness,
    enumerate_witnesses,
    solve_feasibility,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Bag", "BagFormatError", "SchemaMismatchError", "SizeNorms",
    "make_schema", "project_row",
    "BagDatabase", "ConsistencyReport", "CyclicHypergraphError",
    "DatabaseError", "OracleExhaustedError", "acyclic_global_witness",
    "clique_hardness_lift", "cycle_hardness_lift", "encode_3dct",
    "global_consistent", "inconsistent_pairs", "k_wise_consistent",
    "lift_collection", "minimal_two_bag_witness", "pairwise_consistent",
    "tseitin_counterexample", "two_bag_witness",
    "KERNEL", "Flow", "FlowError", "FlowNetwork", "build_network",
    "is_saturated", "max_flow", "suppress_middle_arc",
    "BadWitness", "Hypergraph", "HypergraphError", "JoinTree",
    "SafeDeletionOp", "apply_safe_deletion", "clique_complement_hypergraph",
    "cycle_hypergraph", "find_bad_witness", "path_hypergraph", "replay_ops",
    "EXHAUSTED", "BoundsReport", "OracleBudget", "check_witness",
    "enumerate_witnesses", "solve_feasibility", "verify_bounds",
    "__version__",
]
