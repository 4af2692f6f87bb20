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

from buffon.counting import (
    CountBreakdown,
    ExceptionalLineError,
    LineBatch,
    count_in_interval,
    count_line,
    evaluate_lines,
    oracle_count,
    oracle_padding_hits,
    z_samples,
)
from buffon.discrepancy import (
    DiscrepancyReport,
    SupConfig,
    crofton_target,
    decompose,
    estimate_sup,
    format_report,
    load_report,
    local_discrepancy,
    max_quadrature_deviation,
    save_report,
)
from buffon.geometry import (
    ConvexBody,
    Line,
    ValidationError,
    body_from_dict,
    body_to_dict,
    dump_body,
    load_body,
    unit_square,
)
from buffon.harness import (
    CoherenceRow,
    OracleCheck,
    SlopeFit,
    SweepRow,
    ZTailRow,
    ZTailStudy,
    coherence_study,
    fit_slope,
    length_study,
    read_sweep_csv,
    run_oracle_check,
    run_sweep,
    write_sweep_csv,
    z_tail_study,
)
from buffon.rng import derive_seed, stream
from buffon.steinhaus import (
    BuildPlan,
    SteinhausSet,
    adjust_length,
    angular_sum,
    build_exact,
    directions,
    load_manifest,
    sample_shifts,
    save_manifest,
    total_length,
)

__version__ = "0.1.0"

__all__ = [
    # geometry
    "ConvexBody",
    "Line",
    "ValidationError",
    "body_from_dict",
    "body_to_dict",
    "dump_body",
    "load_body",
    "unit_square",
    # steinhaus
    "BuildPlan",
    "SteinhausSet",
    "adjust_length",
    "build_exact",
    "directions",
    "load_manifest",
    "sample_shifts",
    "save_manifest",
    "total_length",
    # counting
    "CountBreakdown",
    "ExceptionalLineError",
    "LineBatch",
    "count_in_interval",
    "count_line",
    "evaluate_lines",
    "oracle_count",
    "oracle_padding_hits",
    "z_samples",
    # discrepancy
    "DiscrepancyReport",
    "SupConfig",
    "angular_sum",
    "crofton_target",
    "decompose",
    "estimate_sup",
    "format_report",
    "load_report",
    "local_discrepancy",
    "max_quadrature_deviation",
    "save_report",
    # harness
    "CoherenceRow",
    "OracleCheck",
    "SlopeFit",
    "SweepRow",
    "ZTailRow",
    "ZTailStudy",
    "coherence_study",
    "fit_slope",
    "length_study",
    "read_sweep_csv",
    "run_oracle_check",
    "run_sweep",
    "write_sweep_csv",
    "z_tail_study",
    # rng
    "derive_seed",
    "stream",
    # meta
    "__version__",
]
