"""Consistency of bag (multiset) databases.

Decides pairwise consistency, and global consistency through one decider,
``global_consistent``: one GYO ear peel splits the schema into ears, each
checked against its cover, and a core that a brute-force oracle decides,
within its budget, when it is cyclic; the ears are glued onto the core's
witness.
Also classifies schema hypergraphs and generates counterexample and
hardness-reduction instances. The max-flow characterisation of two-bag
consistency is a test reference in ``bagconsist.flow``; only ``KERNEL``,
the name of its Dinic kernel (always ``"python"``), is re-exported here.
The other checkers that only the tests call (join-tree validity, the edge
maximum-cardinality search, the sub-hypergraph on a vertex set, the
witness-size bounds) live in ``tests/reference.py``.
"""
from .bags import (
    Bag,
    BagFormatError,
    SchemaMismatchError,
    make_schema,
)
from .consistency import (
    BagDatabase,
    ConsistencyReport,
    DatabaseError,
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
)
from .oracle import (
    EXHAUSTED,
    OracleBudget,
    check_witness,
    enumerate_witnesses,
    solve_feasibility,
)

__version__ = "0.1.0"

__all__ = [
    "Bag", "BagFormatError", "SchemaMismatchError", "make_schema",
    "BagDatabase", "ConsistencyReport", "DatabaseError",
    "clique_hardness_lift", "cycle_hardness_lift", "encode_3dct",
    "global_consistent", "inconsistent_pairs", "lift_collection",
    "minimal_two_bag_witness", "pairwise_consistent",
    "tseitin_counterexample", "KERNEL",
    "BadWitness", "Hypergraph", "HypergraphError", "JoinTree",
    "SafeDeletionOp", "clique_complement_hypergraph", "cycle_hypergraph",
    "find_bad_witness",
    "EXHAUSTED", "OracleBudget", "check_witness", "enumerate_witnesses",
    "solve_feasibility",
    "__version__",
]
