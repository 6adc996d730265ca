"""Session-based next-item recommendation.

A per-session proxy embedding, selected from a shared bank by a
temperature-annealed softmax over the session's items, stands in for the
missing user profile. A small self-attention encoder summarizes the most
recent items. Both parts meet on a proxy-specific hyperplane where candidate
items are scored by squared Euclidean distance. Training minimizes a hinge
ranking loss with distance and orthogonality regularizers, driven by a
hand-rolled reverse-mode autodiff engine (float64 throughout).
"""

from .autodiff import Tensor
from .data import FilterConfig, Session, SessionSplit, chronological_split
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DegenerateProxyError,
    MetricError,
    NumericError,
    ProxyRecError,
)
from .evaluator import MetricsReport, evaluate
from .selector import AnnealSchedule, temperature
from .trainer import ModelParams, TrainConfig, fit, init_model, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
