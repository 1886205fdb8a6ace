"""The Red-QAOA core: SA-based graph reduction and the end-to-end pipeline.

Modules
-------
``cooling``      -- constant and adaptive cooling schedules
``annealer``     -- Algorithm 1: simulated annealing over connected subgraphs
``reduction``    -- :class:`GraphReducer`: binary search over subgraph sizes
                    until the AND-ratio constraint is met
``equivalence``  -- AND-ratio analysis relating degree similarity to
                    landscape MSE (paper Sec. 4.2-4.3)
``pipeline``     -- :class:`RedQAOA`: reduce, optimize on the distilled
                    graph, transfer, fine-tune on the original graph
"""

from repro.core.annealer import AnnealResult, simulated_annealing
from repro.core.cache import CachedReduction, ReductionCache
from repro.core.cooling import AdaptiveCooling, ConstantCooling, CoolingSchedule
from repro.core.equivalence import subgraph_and_mse_study
from repro.core.pipeline import RedQAOA, RedQAOAResult
from repro.core.reduction import GraphReducer, ReductionResult

__all__ = [
    "AdaptiveCooling",
    "AnnealResult",
    "CachedReduction",
    "ReductionCache",
    "ConstantCooling",
    "CoolingSchedule",
    "GraphReducer",
    "RedQAOA",
    "RedQAOAResult",
    "ReductionResult",
    "simulated_annealing",
    "subgraph_and_mse_study",
]
