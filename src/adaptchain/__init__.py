"""Loss analysis and optimal chain search for lossy interface adapters."""

from .document import load_fixture, parse_document, serialize_graph
from .errors import AdapterChainError
from .generator import GenParams, random_instance
from .model import (
    BOT,
    AbstractDomain,
    Adapter,
    AdapterGraph,
    AvailabilityVector,
    Interface,
    MethodSpec,
    build_adapter,
    build_graph,
    build_interface,
    full_vector,
    normalize_vector,
)
from .search import (
    ChainResult,
    WeightMap,
    chain_pipeline,
    count_abstract,
    enumerate_chains,
    greedy_chain,
    oracle_optimal,
)
from .semantics import (
    AdaptationPipeline,
    TabulatedAdaptation,
    apply_adaptation,
    apply_pipeline,
    function_sizes,
    identity_pipeline,
    prepend,
    tabulate_adaptation,
)

__version__ = "0.1.0"
