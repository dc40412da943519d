"""Oddsmaker-bias detection and against-the-spread wagering backtests.

The package estimates per-spread outcome densities from historical game
results, quantifies how much a spread leaks about the final margin via the
Shannon entropy of its cover distribution, and backtests four wagering
strategies (random guess, maximum probability, minimum entropy, k-lowest
entropy) under both repeated-random-holdout and date-split protocols.
"""

from .bias import (
    DEFAULT_ENTROPY_THRESHOLD,
    BiasProfile,
    SpreadBias,
    binary_entropy,
    k_lowest_spreads,
    min_entropy_spread,
    rank_spreads,
)
from .data import (
    Dataset,
    DuplicateConflictError,
    GameRecord,
    ParseError,
    SchemaError,
    deduplicate,
    parse_games,
)
from .density import (
    DEFAULT_BANDWIDTH,
    KERNELS,
    OutcomeDensity,
    OutcomeGrid,
    estimate_density,
    home_cover_probability,
)
from .harness import (
    EvaluationReport,
    FitConfig,
    ModelSummary,
    TdConfig,
    TiConfig,
    run_td,
    run_ti,
    summarize,
)
from .models import (
    AtsResult,
    Decision,
    predict_max_prob,
    predict_random,
    score_ats,
)

__version__ = "0.1.0"

__all__ = [
    "AtsResult",
    "BiasProfile",
    "Dataset",
    "Decision",
    "DuplicateConflictError",
    "EvaluationReport",
    "FitConfig",
    "GameRecord",
    "ModelSummary",
    "OutcomeDensity",
    "OutcomeGrid",
    "ParseError",
    "SchemaError",
    "SpreadBias",
    "TdConfig",
    "TiConfig",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_ENTROPY_THRESHOLD",
    "KERNELS",
    "binary_entropy",
    "deduplicate",
    "estimate_density",
    "home_cover_probability",
    "k_lowest_spreads",
    "min_entropy_spread",
    "parse_games",
    "predict_max_prob",
    "predict_random",
    "rank_spreads",
    "run_td",
    "run_ti",
    "score_ats",
    "summarize",
]
