"""Consistency of bag (multiset) databases.

Decides pairwise and global consistency (on acyclic schemas, by the join
tree's parent links), builds small witnesses over acyclic schemas by gluing
northwest-corner two-bag witnesses, classifies schema hypergraphs, and
generates counterexample and hardness-reduction instances. A brute-force
integer-feasibility oracle decides small cyclic instances and cross-checks
the rest. The max-flow characterisation of two-bag consistency is a test
reference in ``bagconsist.flow``; only ``KERNEL``, the name of its Dinic
kernel (always ``"python"``), is re-exported here.
"""
from .bags import (
    Bag,
    BagFormatError,
    SchemaMismatchError,
    SizeNorms,
    make_schema,
)
from .consistency import (
    BagDatabase,
    ConsistencyReport,
    CyclicHypergraphError,
    DatabaseError,
    acyclic_global_witness,
    clique_hardness_lift,
    cycle_hardness_lift,
    encode_3dct,
    global_consistent,
    inconsistent_pairs,
    lift_collection,
    minimal_two_bag_witness,
    pairwise_consistent,
    tseitin_counterexample,
)
from .flow import KERNEL
from .hypergraph import (
    BadWitness,
    Hypergraph,
    HypergraphError,
    JoinTree,
    SafeDeletionOp,
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
    "make_schema",
    "BagDatabase", "ConsistencyReport", "CyclicHypergraphError",
    "DatabaseError", "acyclic_global_witness",
    "clique_hardness_lift", "cycle_hardness_lift", "encode_3dct",
    "global_consistent", "inconsistent_pairs", "lift_collection",
    "minimal_two_bag_witness", "pairwise_consistent",
    "tseitin_counterexample", "KERNEL",
    "BadWitness", "Hypergraph", "HypergraphError", "JoinTree",
    "SafeDeletionOp", "clique_complement_hypergraph", "cycle_hypergraph",
    "find_bad_witness", "path_hypergraph", "replay_ops",
    "EXHAUSTED", "BoundsReport", "OracleBudget", "check_witness",
    "enumerate_witnesses", "solve_feasibility", "verify_bounds",
    "__version__",
]
