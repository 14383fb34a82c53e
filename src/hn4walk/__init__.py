"""Lackadaisical quantum-walk search on a periodic 2-D grid with
hierarchical (HN4-style) long-range edges: state-vector engine, experiment
protocols, runtime-model fitting, and a CLI."""

from .reporting import ENGINE_VERSION as __version__  # noqa: F401

from .topology import (  # noqa: F401
    HierCoord,
    TopologyError,
    TopologyParams,
    compose,
    decompose,
    exceptional_vertices,
    long_range_lines,
)
from .engine import (  # noqa: F401
    CoinDirection,
    EdgeMode,
    ResourceLimitError,
    WalkConfig,
    WalkEngine,
    amplified_cost,
    memory_requirement,
    run,
    success_probability,
)
from .experiments import (  # noqa: F401
    NoPeakError,
    PeakResult,
    PeakRule,
    ScalingRecord,
    SweepResult,
    density_experiment,
    detect_first_peak,
    random_target_set,
    run_to_first_peak,
    scaling_experiment,
    sweep_self_loop,
)
from .fitting import (  # noqa: F401
    FitError,
    FitResult,
    RuntimeModel,
    fit_scaling,
)
