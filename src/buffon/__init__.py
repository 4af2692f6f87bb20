"""Steinhaus line sets and the Buffon needle-count discrepancy.

A Steinhaus set is a union of ``n`` families of parallel line segments,
the ``k``-th family at angle ``pi * k / n`` with consecutive lines spaced
``eps`` apart.  For any test line, the number of segments it crosses can
be computed exactly in O(n) time from lattice-point counts, and compared
against the Crofton value ``2 L / (pi |Omega|) * (chord length)`` that a
"perfectly uniform" length-``L`` set would give.  The worst-case gap
between the two is the discrepancy of the set.

This package builds such sets inside a convex body (with random per-family
offsets, or with all offsets zero as a baseline), counts crossings exactly,
estimates the sup-discrepancy over lines, and runs the scaling experiments
that separate the two regimes: the zero-shift baseline's discrepancy grows
like ``L ** (1/3)`` while random shifts bring it down to roughly
``L ** (1/5)`` times a polylog factor.

Main entry points:

- :func:`build_exact` — construct a set of exactly prescribed total length.
- :func:`count_line` / :func:`evaluate_lines` — exact crossing counts.
- :func:`estimate_sup` — grid + targeted + refined sup-discrepancy search.
- :func:`run_sweep`, :func:`fit_slope` — length sweeps and scaling fits.
- :mod:`buffon.cli` — ``buffon`` command with build / disc / sweep /
  tails / length-study / oracle-check / plot subcommands.
"""

from . import counting, discrepancy, geometry, harness, rng, steinhaus
from .counting import *
from .discrepancy import *
from .geometry import *
from .harness import *
from .rng import *
from .steinhaus import *

__version__ = "0.1.0"

__all__ = [
    *geometry.__all__,
    *steinhaus.__all__,
    *counting.__all__,
    *discrepancy.__all__,
    *harness.__all__,
    *rng.__all__,
    "__version__",
]
