"""Joint function placement and multipath stream mapping for DAG workloads
running on heterogeneous edge networks.

The embedding engine minimizes a workload's makespan by choosing, per
function, a hosting server, and per data stream, a division across every
simple path between the hosting servers. Baselines (upward-rank list
scheduling and a placement-only variant), an exhaustive oracle, and a
seeded benchmark harness round out the package.
"""

from .baselines import (
    heft_schedule,
    passive_routes,
    placement_only_embed,
)
from .bench import (
    DagRecord,
    ReportBundle,
    WorkloadSpec,
    emit_report,
    generate_dag_records,
    generate_network,
    load_dag_records,
    load_network,
    network_fingerprint,
    run_benchmark,
    write_workload,
)
from .embedder import (
    EdgeMapping,
    EmbeddingResult,
    brute_force_embed,
    dpe_embed,
    embedding_to_json,
    simulate_embedding,
)
from .errors import (
    EdgeEmbedError,
    PathExplosionError,
    ValidationError,
)
from .model import (
    FunctionNode,
    Link,
    Server,
    StreamEdge,
    WorkloadDag,
    augment_dummy_tail,
    canonical_json,
    dag_from_json,
    dag_to_json,
    make_network,
    network_from_json,
    network_to_json,
    validate_dag,
    validate_network,
)
from .pathfind import (
    PathCatalog,
    SimplePath,
    build_catalog,
    enumerate_simple_paths,
    resolve_path_cap,
)
from .splitter import (
    SplitProblem,
    bisection_oracle,
    optimal_split,
)

__version__ = "0.1.0"

__all__ = [
    "DagRecord",
    "EdgeEmbedError",
    "EdgeMapping",
    "EmbeddingResult",
    "FunctionNode",
    "Link",
    "PathCatalog",
    "PathExplosionError",
    "ReportBundle",
    "Server",
    "SimplePath",
    "SplitProblem",
    "StreamEdge",
    "ValidationError",
    "WorkloadDag",
    "WorkloadSpec",
    "augment_dummy_tail",
    "bisection_oracle",
    "brute_force_embed",
    "build_catalog",
    "canonical_json",
    "dag_from_json",
    "dag_to_json",
    "dpe_embed",
    "embedding_to_json",
    "emit_report",
    "enumerate_simple_paths",
    "generate_dag_records",
    "generate_network",
    "heft_schedule",
    "load_dag_records",
    "load_network",
    "make_network",
    "network_fingerprint",
    "network_from_json",
    "network_to_json",
    "optimal_split",
    "passive_routes",
    "placement_only_embed",
    "resolve_path_cap",
    "run_benchmark",
    "simulate_embedding",
    "validate_dag",
    "validate_network",
    "write_workload",
]
