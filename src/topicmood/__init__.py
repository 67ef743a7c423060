"""Per-topic social media sentiment aggregated into triangular fuzzy numbers."""

from .corpus import CleanDoc, CorpusError, Post, filter_short, load_posts, preprocess
from .fuzzy import (
    TFN,
    ConformityTuple,
    OpinionConcept,
    WeightedSample,
    aggregate_topic,
    build_tfn,
    conformity,
    possibility,
    tfn_membership,
    weighted_mean,
    weighted_std,
)
from .pipeline import RunConfig, RunResult, StageError, TopicReport, emit_report, run_pipeline
from .sentiment import Lexicon, LexiconError, PolarityScore, load_lexicon, resolve_polarity, score_polarity
from .svgplot import emit_tfn_svg
from .topics import (
    DocMatrix,
    TopicDistribution,
    TopicModel,
    cluster,
    ctfidf_top_terms,
    ctfidf_weight,
    soft_assign,
    topic_prevalence,
    vectorize,
)

__version__ = "0.1.0"
