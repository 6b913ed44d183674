"""The option vocabulary shared by the CLI and the compute modules.

These names and the alpha rule are defined here, in a module that imports
no numpy, so that the CLI can build its parser and check its configuration
without loading any compute module.
"""

from __future__ import annotations

import math

ESTIMATOR_TAGS = ("cc", "pk", "gk", "rs", "yz", "ie")
INTERVAL_SEMANTICS = ("smoothed-points", "raw-days")
ALL_INTERVAL = "all"
ALPHA_DEFAULT = 1.34


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the entropy blend alpha satisfies 1 < alpha < inf
    (so NaN fails too)."""
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite, got {alpha!r}")
