"""Lackadaisical quantum-walk search on a periodic 2-D grid with
hierarchical (HN4-style) long-range edges: state-vector engine, experiment
protocols, runtime-model fitting, and a CLI.

Import the modules by name (``hn4walk.engine``, ``hn4walk.experiments``,
...): the package itself loads only its version, so a command loads numpy
and the walk layers only when it runs a walk.
"""

from .reporting import ENGINE_VERSION as __version__  # noqa: F401
