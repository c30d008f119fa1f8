"""Destination-port and arrival-time prediction for vessels from AIS streams.

The pipeline: ingest AIS points, partition them into voyages, embed each
point in a 5-D weighted feature space, index training points per arrival
port in a ball tree, classify live points by nearest-neighbor search plus a
penalty-weighted similarity re-rank, smooth the per-point port sequence, and
read the arrival time off the chosen historical point. A genetic algorithm
tunes the embedding magnitudes and similarity penalties.
"""

from .classifier import (
    Model,
    ModelParams,
    Prediction,
    RouteState,
    classify_point,
    classify_points,
    similarity,
    train,
)
from .embedding import FeatureWeights, embed, embed_arrays
from .evaluation import (
    Scores,
    SyntheticConfig,
    earliness,
    gen_synthetic,
    mae_minutes,
    replay_route,
    score_dataset,
    synth_records,
)
from .geo import angular_diff_deg, great_circle_km, initial_bearing_deg
from .index import BallTree, brute_nearest
from .ingest import AisFormatError, AisRecord, load_ais_csv, parse_ais_csv
from .params import load_params, parse_params
from .routes import Route, RoutePoint, enrich_route, partition_routes
from .tuner import GaConfig, Genome, evolve, fitness, split_routes

__version__ = "0.1.0"

__all__ = [
    "AisFormatError",
    "AisRecord",
    "BallTree",
    "FeatureWeights",
    "GaConfig",
    "Genome",
    "Model",
    "ModelParams",
    "Prediction",
    "Route",
    "RoutePoint",
    "RouteState",
    "Scores",
    "SyntheticConfig",
    "angular_diff_deg",
    "brute_nearest",
    "classify_point",
    "classify_points",
    "earliness",
    "embed",
    "embed_arrays",
    "enrich_route",
    "evolve",
    "fitness",
    "gen_synthetic",
    "great_circle_km",
    "initial_bearing_deg",
    "load_ais_csv",
    "load_params",
    "mae_minutes",
    "parse_ais_csv",
    "parse_params",
    "partition_routes",
    "replay_route",
    "score_dataset",
    "similarity",
    "split_routes",
    "synth_records",
    "train",
    "__version__",
]
