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

from . import core, costs, dp, hmm, selection, simgen, svg
from .core import *  # noqa: F403
from .costs import *  # noqa: F403
from .dp import *  # noqa: F403
from .hmm import *  # noqa: F403
from .selection import *  # noqa: F403
from .simgen import *  # noqa: F403
from .svg import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, costs, dp, hmm, selection, simgen, svg)
    for name in module.__all__
]
