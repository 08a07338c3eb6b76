"""Fake-news classification pipeline.

Soft/hard ensemble voting over per-model prediction vectors, with a
conditional-probability heuristic over username handles and URL domains
that can override the ensemble label. Includes a self-contained
bag-of-words baseline so the whole flow runs without external models.
"""

from .attribute_stats import (
    AttrCounts,
    AttributeKind,
    AttributeStatsTable,
    AttrProbVector,
    build_table,
    cond_prob,
    tweet_attr_vector,
)
from .baseline import BowModel, PredictionVector, predict, predict_dataset, train
from .corpus import Label, NewsItem, iter_dataset, load_dataset, summarize
from .ensemble import (
    EnsembleResult,
    PredictionMatrix,
    VotingScheme,
    hard_vote,
    load_predictions,
    soft_vote,
)
from .evaluation import EvalReport, evaluate, run_ablation, tune_threshold
from .heuristic import (
    DecidedBy,
    HeuristicConfig,
    HeuristicDecision,
    decide,
    decide_batch,
)
from .preprocess import (
    TweetAttributes,
    UrlExpansionCache,
    clean_text,
    extract_attributes,
    normalize_domain,
)

__version__ = "0.1.0"

__all__ = [
    "AttrCounts",
    "AttributeKind",
    "AttributeStatsTable",
    "AttrProbVector",
    "BowModel",
    "DecidedBy",
    "EnsembleResult",
    "EvalReport",
    "HeuristicConfig",
    "HeuristicDecision",
    "Label",
    "NewsItem",
    "PredictionMatrix",
    "PredictionVector",
    "TweetAttributes",
    "UrlExpansionCache",
    "VotingScheme",
    "build_table",
    "clean_text",
    "cond_prob",
    "decide",
    "decide_batch",
    "evaluate",
    "extract_attributes",
    "hard_vote",
    "iter_dataset",
    "load_dataset",
    "load_predictions",
    "normalize_domain",
    "predict",
    "predict_dataset",
    "run_ablation",
    "soft_vote",
    "summarize",
    "train",
    "tune_threshold",
    "tweet_attr_vector",
]
