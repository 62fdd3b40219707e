"""Constructive Ramsey toolkit for dense graphs.

Graph and coloring primitives, log2-domain bound evaluators, a greedy
bi-dense embedder, randomized samplers with certified partitions, the
constructive red-H-or-blue-clique search, and exact desk-scale oracles.
"""

from .bounds import (
    BoundReport,
    bound_base_case,
    bound_clique_dense,
    bound_clique_maxdeg,
    bound_edges_form,
    bound_induction_step,
    bound_main_dense,
    bound_random_graph,
    lower_bounds,
)
from .embedder import (
    BiDensityWitness,
    Certified,
    EmbedResult,
    TooLarge,
    check_bidense_exact,
    embed_greedy,
    find_sparse_pair_heuristic,
    lemma_min_host_size,
    lemma_sigma,
)
from .graphs import (
    BLUE,
    RED,
    Coloring,
    Embedding,
    Graph,
    GraphFormatError,
    parse_coloring,
    parse_graph,
    serialize_coloring,
    serialize_graph,
)
from .oracle import (
    OracleRefusal,
    RamseyCertificate,
    find_clique_exact,
    find_mono_subgraph_exact,
    lower_bound_certificate_random,
    ramsey_number_exact,
    verify_embedding,
)
from .patterns import load_pattern, named_graph
from .randomlab import (
    GENERATOR_VERSION,
    PartitionCertificate,
    SpreadReport,
    chernoff_tail,
    judicious_partition,
    max_degree_tail_check,
    sample_coloring,
    sample_gnp,
    verify_degree_spread,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    find_mono_H,
    find_random_graph_mono,
    find_red_H_or_blue_clique,
    neighborhood_chase,
)

__version__ = "0.1.0"
