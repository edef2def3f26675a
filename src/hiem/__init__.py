"""Hierarchical intrinsic-extrinsic object search on a deterministic
gridworld, with baselines, metrics and a benchmark harness."""

import os

# One BLAS thread, set before any submodule imports NumPy (BLAS reads it
# once, when it loads): a training's speed and last bits then do not
# depend on the machine's core count.  A value the caller set still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .gridworld import (
    Action,
    AgentPose,
    ConfigError,
    EpisodeSpec,
    GridMap,
    Heading,
    ObjectInstance,
    Observation,
    State,
    World,
)
from .agent import HiemAgent, HiemParams, LabelSubgoalSpace, AnonymousOptionSpace
from .baselines import MethodConfig, build_agent
from .mapfile import builtin_fixture, load_map, parse_map_text
from .metrics import MetricsReport, EpisodeResult, compute_ar, compute_spl, evaluate

__all__ = [
    "Action",
    "AgentPose",
    "AnonymousOptionSpace",
    "ConfigError",
    "EpisodeSpec",
    "EpisodeResult",
    "GridMap",
    "Heading",
    "HiemAgent",
    "HiemParams",
    "LabelSubgoalSpace",
    "MethodConfig",
    "MetricsReport",
    "ObjectInstance",
    "Observation",
    "State",
    "World",
    "build_agent",
    "builtin_fixture",
    "compute_ar",
    "compute_spl",
    "evaluate",
    "load_map",
    "parse_map_text",
]
