"""Covariance estimation from (possibly incomplete) data matrices.

Conventions: rows are observations, columns are variables, and the
covariance divisor is ``n`` (not ``n - 1``) throughout -- the objectives
downstream are normalized by ``n``, so the maximum-likelihood divisor keeps
the algebra exact.  Missing entries are NaN inside :class:`DataMatrix`.

CSV grammar (:func:`read_data_csv`, and :func:`read_cov_csv` on top of it):

* one row per line, fields separated by ``,`` (a quoted field holds no
  comma); every row has as many fields as the first, else
  :class:`~csskit.errors.DimMismatch` names the line;
* lines with no characters at all are skipped; with ``header=True`` the
  first remaining line is skipped unread;
* a field may be enclosed in double quotes when the quote is its first
  character; ``""`` inside quotes is one quote character; a quote still
  open at the end of its line raises :class:`~csskit.errors.DimMismatch`
  naming the line (a quoted field holds no line break);
* a field that is empty, all whitespace, or ``NA`` or ``nan`` in any case,
  bare or quoted and with any surrounding whitespace, is missing (NaN);
* any other field is a number as numpy reads it: optional surrounding
  whitespace, sign, digits, ``.``, exponent, or ``inf`` / ``infinity`` in
  any case; anything else, ``1_000`` included, raises
  :class:`~csskit.errors.DimMismatch` naming the line and column;
* there is no comment character: ``#`` is an ordinary, non-numeric byte;
* an infinite value (``inf``, or ``1e400`` after overflow) raises
  :class:`~csskit.errors.NonFinite`.

The file is parsed first as it stands, by one :func:`numpy.loadtxt` call
on the open file with no quote character: numpy skips blank lines itself,
reads ``nan`` as NaN and refuses every other missing field and every
quoted one, so a file that spells missing cells ``nan`` (or has none) and
quotes nothing is read without a Python loop over its lines.  Only when
numpy refuses the file, or finds no rows, is it read again from the start
with every missing field rewritten as ``nan`` line by line; that pass
reads quoted fields, one line at a time, and gives the typed errors with
their line and column numbers.
"""

import csv
import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from . import symmat
from .errors import DimMismatch, HasMissing, InsufficientOverlap, NonFinite, ZeroVariance
from .symmat import SymMatrix


@dataclass
class DataMatrix:
    """An ``n x p`` data matrix; NaN marks a missing entry."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimMismatch(f"data must be 2-d, got shape {self.values.shape}")
        if np.isinf(self.values).any():
            raise NonFinite("data contains infinity")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def _as_data(x) -> DataMatrix:
    return x if isinstance(x, DataMatrix) else DataMatrix(np.asarray(x, dtype=float))


def sample_cov(x) -> SymMatrix:
    """Sample covariance ``(X - mean)^T (X - mean) / n`` (complete data only)."""
    data = _as_data(x)
    if data.has_missing:
        raise HasMissing("sample_cov requires complete data; see pairwise_cov_psd")
    if data.n < 1:
        raise DimMismatch("need at least one observation")
    vals = data.values
    xc = vals - vals.mean(axis=0)
    cov = xc.T @ xc / data.n
    return (cov + cov.T) / 2.0


# Largest n whose overlap counts float32 sums exactly (its 24-bit significand).
_EXACT_F32 = 2**24


def pairwise_cov(x) -> Tuple[SymMatrix, np.ndarray]:
    """Pairwise-complete covariance (before PSD projection) and overlap counts.

    Column means are taken over each column's own observed rows; the (s, t)
    entry averages cross-products over rows where both are observed,
    divided by that overlap count.  Requires at least 2 observations per
    column and at least 1 per pair, else :class:`InsufficientOverlap`.
    The result is symmetric but in general indefinite.

    The counts are one product ``M^T M`` of the 0/1 observed mask, held in
    float32 while ``n <= 2**24`` (every partial sum is then an integer that
    float32 holds exactly) and in float64 above; the mask is freed before
    the data are centred in place, so only one ``n x p`` float64 array
    lives beside the input.
    """
    data = _as_data(x)
    vals = data.values
    mask = ~np.isnan(vals)
    col_counts = mask.sum(axis=0)
    for t in np.flatnonzero(col_counts < 2).tolist():
        raise InsufficientOverlap(t, t, int(col_counts[t]))
    m = mask.astype(np.float32 if data.n <= _EXACT_F32 else np.float64)
    counts = np.dot(m.T, m)
    del m
    bad = np.argwhere(counts < 1)
    if bad.size:
        s, t = (int(v) for v in bad[0])
        raise InsufficientOverlap(s, t, 0)
    means = np.nansum(vals, axis=0) / col_counts
    xc = vals - means
    xc[~mask] = 0.0
    psi = np.dot(xc.T, xc)
    del xc
    psi /= counts
    return (psi + psi.T) / 2.0, counts.astype(np.int64)


def pairwise_parts(x) -> Tuple[SymMatrix, np.ndarray, SymMatrix]:
    """``(psi, counts, sigma)``: the pairwise-complete estimate and overlap
    counts of :func:`pairwise_cov`, and ``sigma``, the estimate of
    :func:`pairwise_cov_psd`.

    With no missing entries ``psi`` and ``sigma`` are both
    :func:`sample_cov` (the same object: there is nothing to project) and
    every count is ``n``.  Otherwise ``sigma = psd_project(psi)``.
    """
    data = _as_data(x)
    if not data.has_missing:
        cov = sample_cov(data)
        return cov, np.full((data.p, data.p), data.n), cov
    psi, counts = pairwise_cov(data)
    return psi, counts, symmat.psd_project(psi)


def pairwise_cov_psd(x) -> SymMatrix:
    """PSD-projected pairwise-complete covariance.

    With no missing entries this reduces to :func:`sample_cov` exactly (the
    same arithmetic, no projection).  Otherwise the pairwise estimate is
    projected onto the PSD cone by eigenvalue clamping.
    """
    return pairwise_parts(x)[2]


def to_correlation(sigma: SymMatrix) -> SymMatrix:
    """Rescale a covariance to a correlation matrix (unit diagonal).

    Raises :class:`ZeroVariance` on a nonpositive diagonal entry.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if sigma.ndim != 2 or sigma.shape != (p, p):
        raise DimMismatch(f"expected a square matrix, got shape {sigma.shape}")
    d = sigma.diagonal()
    for i in np.flatnonzero(d <= 0.0).tolist():
        raise ZeroVariance(int(i))
    s = np.sqrt(d)
    corr = sigma / np.outer(s, s)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

# numpy reports a cell it cannot parse as "... string 'x' to float64 at row
# R, column C" (R 0-based over the lines it was given, C 1-based).
_BAD_CELL = re.compile(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)")

_LOADTXT = dict(delimiter=",", ndmin=2, dtype=float, comments=None)


def _is_missing(field: str) -> bool:
    """An empty, blank or ``NA`` field (any case), bare or double-quoted."""
    token = field.rstrip()
    if len(token) >= 2 and token[0] == '"' == token[-1]:
        token = token[1:-1]
    token = token.strip()
    return not token or token.lower() == "na"


def _may_hold_missing(line: str) -> bool:
    """Cheap screen: False only if no field of ``line`` can be missing."""
    if line[0] == "," or line[-1] == "," or ",," in line or '"' in line:
        return True
    if " " in line or not line.isprintable():  # any whitespace at all
        return True
    low = line.lower()
    return low.count("na") != low.count("nan")  # an "na" outside "nan"


def _normalise(line: str) -> str:
    """``line`` with every missing field rewritten as ``nan``; a line the
    screen passes is returned as it is."""
    if not _may_hold_missing(line):
        return line
    return ",".join(["nan" if _is_missing(f) else f for f in line.split(",")])


def _leaves_quote_open(line: str) -> bool:
    """Whether ``line`` ends inside a quoted field: a quote opens a field
    as its first character, and inside it ``""`` is one quote character
    and a lone quote closes it."""
    inside, start, i = False, True, 0
    while i < len(line):
        ch = line[i]
        if inside:
            if ch == '"':
                if line.startswith('"', i + 1):
                    i += 1
                else:
                    inside = False
        else:
            inside = start and ch == '"'
            start = ch == ","
        i += 1
    return inside


def _data_lines(path: str, fh, header: bool, skipped: List[int]) -> Iterator[str]:
    """The data lines of ``fh`` with every missing field rewritten as ``nan``.

    Blank lines and the header (the first non-blank line, when ``header``)
    are dropped and their line numbers appended to ``skipped``.  A line with
    another field count than the first, or one that leaves a quote open,
    raises :class:`DimMismatch`.
    """
    width = None
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or header:
            header = header and not line
            skipped.append(lineno)
            continue
        line = _normalise(line)
        commas = line.count(",")
        if width is None:
            width = commas
        elif commas != width:
            raise DimMismatch(
                f"{path}: line {lineno} has {commas + 1} fields, expected {width + 1}"
            )
        if '"' in line and _leaves_quote_open(line):
            # numpy would carry the field on into the next line
            raise DimMismatch(f"{path}: line {lineno} leaves a quote open")
        yield line


def _file_line(row: int, skipped: List[int]) -> int:
    """1-based line number of data row ``row`` (0-based)."""
    line = row + 1
    for s in skipped:
        if s <= line:
            line += 1
    return line


def _read_rewritten(path: str, header: bool) -> np.ndarray:
    """The file parsed after :func:`_data_lines` rewrote its missing fields,
    or the typed error that names the offending line."""
    skipped: List[int] = []
    with open(path) as fh:
        lines = _data_lines(path, fh, header, skipped)
        first = next(lines, None)
        if first is None:
            raise DimMismatch(f"{path}: no data rows")
        try:
            return np.loadtxt(itertools.chain((first,), lines), quotechar='"', **_LOADTXT)
        except ValueError as exc:
            bad = _BAD_CELL.match(str(exc))
            if bad is None:
                raise DimMismatch(f"{path}: {exc}") from None
            line = _file_line(int(bad.group(2)), skipped)
            raise DimMismatch(
                f"{path}: line {line}, column {bad.group(3)}: "
                f"{bad.group(1)} is not a number"
            ) from None


def read_data_csv(path: str, header: bool = False) -> DataMatrix:
    """Read a comma-separated data matrix; see the module docstring for the
    grammar.  A cell that is neither missing nor a number, or a row of
    another width, raises :class:`DimMismatch` naming the line."""
    values = None
    with open(path) as fh:
        if header:  # drop the first non-blank line
            for line in iter(fh.readline, ""):
                if line != "\n":
                    break
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(fh, **_LOADTXT)
        except ValueError:
            pass  # a missing, quoted or bad field: the second pass tells which
    if values is None or not values.shape[0]:
        values = _read_rewritten(path, header)
    return DataMatrix(values)


def read_cov_csv(path: str, header: bool = False) -> SymMatrix:
    """Read a covariance matrix from a plain ``p x p`` CSV grid.

    Symmetry is checked by :func:`csskit.symmat.as_symmetric` and then
    enforced exactly.
    """
    data = read_data_csv(path, header)
    if data.has_missing:
        raise NonFinite(f"{path}: covariance grid contains missing entries")
    return symmat.as_symmetric(data.values)


def write_matrix_csv(path: str, m: np.ndarray):
    """Write a matrix with 17 significant digits (exact float round-trip)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([format(v, ".17g") for v in row])


def covest_diagnostics(x, psi: SymMatrix, counts: np.ndarray, sigma: SymMatrix) -> Dict[str, object]:
    """Diagnostics for a pairwise-complete estimate from its parts,
    ``psi, counts, sigma = pairwise_parts(x)``: missing fraction,
    overlap-count extremes and the eigenvalue floor before and after
    projection.  Nothing is estimated again."""
    w_before = symmat.eigh_desc(psi).values
    w_after = w_before if sigma is psi else symmat.eigh_desc(sigma).values
    return {
        "missing_fraction": float(np.isnan(_as_data(x).values).mean()),
        "min_overlap": int(counts.min()),
        "max_overlap": int(counts.max()),
        "min_eig_before": float(w_before[-1]),
        "min_eig_after": float(w_after[-1]),
    }
