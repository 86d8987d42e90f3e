"""tsseg: segmentation of univariate time series into homogeneous blocks.

The package provides two segmenters over pluggable segment-cost models:

* an iterative hidden-Markov segmenter (parameter re-estimation alternated
  with Viterbi decoding) that is fast enough for interactive use, and
* an exact dynamic program that returns the globally optimal segmentation
  of every order at once.

Cost models cover piecewise-constant means, per-segment autoregressions,
and per-segment polynomial trends, with statistical order selection and a
synthetic benchmark harness.  ``tsseg --help`` lists the command-line
options, and bench/README.md describes the performance benchmark.
"""

from .core import (
    SIGMA_FLOOR,
    SegmentStats,
    Segmentation,
    TimeSeries,
    global_sigma,
    segment_stats,
)
from .costs import (
    CostMatrix,
    ar_cost_exact,
    build_cost_matrix,
    means_cost_direct,
    poly_cost,
)
from .dp import DpResult, brute_force_segment, dp_segment
from .hmm import EmIteration, EmTrace, hmm_segment
from .selection import (
    ScheffeResult,
    SelectionRecord,
    SelectionReport,
    WhitenessResult,
    f_quantile,
    residual_whiteness,
    scheffe_significant,
    select_order,
)
from .simgen import (
    BenchRow,
    BenchTable,
    GenSpec,
    accuracy,
    generate,
    p_for_expected_length,
    run_benchmark,
)
from .svg import segmentation_svg

__version__ = "0.1.0"

__all__ = [
    "SIGMA_FLOOR",
    "TimeSeries",
    "Segmentation",
    "SegmentStats",
    "segment_stats",
    "global_sigma",
    "CostMatrix",
    "means_cost_direct",
    "ar_cost_exact",
    "poly_cost",
    "build_cost_matrix",
    "DpResult",
    "dp_segment",
    "brute_force_segment",
    "EmIteration",
    "EmTrace",
    "hmm_segment",
    "ScheffeResult",
    "WhitenessResult",
    "SelectionRecord",
    "SelectionReport",
    "scheffe_significant",
    "residual_whiteness",
    "select_order",
    "f_quantile",
    "GenSpec",
    "BenchRow",
    "BenchTable",
    "generate",
    "p_for_expected_length",
    "accuracy",
    "run_benchmark",
    "segmentation_svg",
]
