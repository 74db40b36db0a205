"""Covariance-based column subset selection toolkit.

Pick k columns of a data matrix (or directly of a covariance matrix) that
best explain the rest, score subsets under six criteria, estimate
covariances from incomplete data, and choose k itself with calibrated
goodness-of-fit tests.
"""

__version__ = "0.1.0"

from . import covest, criteria, errors, search, simlab, sizesel, symmat  # noqa: F401
from .criteria import Criterion, CriterionKind  # noqa: F401
from .search import SearchConfig, SearchResult, exhaustive, greedy, swap  # noqa: F401
from .sizesel import Model, SizeSelectionReport, SizeTestRecord, choose_k  # noqa: F401
