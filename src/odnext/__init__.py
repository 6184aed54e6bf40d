"""Origin-aware next-destination recommendation.

Spatio-temporal LSTM encoders over per-user trip histories combined
with a per-dimension attention decoder, trained from scratch on numpy.
"""

from .data import (
    Corpus,
    IntervalTables,
    LocationRecord,
    SplitResult,
    TrainingExample,
    Trip,
    Vocab,
    build_interval_tables,
    build_test_queries,
    build_vocab,
    chronological_split,
    load_corpus,
    preprocess,
    save_corpus,
)
from .evaluation import (
    EvalReport,
    ModelRanker,
    accuracy_at_k,
    evaluate,
    mean_average_precision,
    rank_descending,
)
from .geo import GeoPoint, geohash_encode, haversine_km, timeslot_of
from .model import EncodedCache, Model, ModelConfig, VARIANTS
from .nn import ContractViolation

__all__ = [
    "ContractViolation",
    "Corpus",
    "EncodedCache",
    "EvalReport",
    "GeoPoint",
    "IntervalTables",
    "LocationRecord",
    "Model",
    "ModelConfig",
    "ModelRanker",
    "SplitResult",
    "TrainingExample",
    "Trip",
    "VARIANTS",
    "Vocab",
    "accuracy_at_k",
    "build_interval_tables",
    "build_test_queries",
    "build_vocab",
    "chronological_split",
    "evaluate",
    "geohash_encode",
    "haversine_km",
    "load_corpus",
    "mean_average_precision",
    "preprocess",
    "rank_descending",
    "save_corpus",
    "timeslot_of",
]
