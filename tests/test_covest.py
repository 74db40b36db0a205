"""Covariance construction: sample, pairwise-complete with PSD repair, CSV IO."""

import csv
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csskit import covest, simlab, symmat
from csskit.errors import (
    CssKitError,
    DimMismatch,
    HasMissing,
    InsufficientOverlap,
    NonFinite,
    ZeroVariance,
)

NAN = float("nan")


def test_sample_cov_divisor_n():
    # Two points (0,0), (2,2): deviations +-1 in each coordinate, so every
    # entry is 1 under the divisor-n convention (n-1 would give 2).
    x = np.array([[0.0, 0.0], [2.0, 2.0]])
    assert_allclose(covest.sample_cov(x), np.ones((2, 2)))


def test_sample_cov_rejects_missing():
    with pytest.raises(HasMissing):
        covest.sample_cov(np.array([[1.0, NAN], [2.0, 3.0]]))


def test_pairwise_hand_example():
    # Column means over observed rows: 3 and 4.  The (0,1) entry averages
    # over the two complete rows only, but keeps the per-column means.
    x = np.array([[1.0, 2.0], [3.0, NAN], [NAN, 4.0], [5.0, 6.0]])
    psi, counts = covest.pairwise_cov(x)
    assert_allclose(psi, np.array([[8.0 / 3.0, 4.0], [4.0, 8.0 / 3.0]]))
    assert_allclose(counts, np.array([[3, 2], [2, 3]]))
    # the raw estimate is indefinite; projection clamps its negative mode
    fixed = covest.pairwise_cov_psd(x)
    assert_allclose(fixed, np.full((2, 2), 10.0 / 3.0), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(fixed)) >= -1e-10


def test_pairwise_equals_sample_when_complete():
    rng = np.random.default_rng(113)
    x = rng.standard_normal((15, 4))
    want = covest.sample_cov(x)
    psi, counts = covest.pairwise_cov(x)
    assert np.array_equal(psi, want)  # bit-for-bit
    assert np.array_equal(covest.pairwise_cov_psd(x), want)
    assert np.all(counts == 15)


def test_pairwise_overlap_errors():
    with pytest.raises(InsufficientOverlap):
        covest.pairwise_cov(np.array([[1.0, NAN], [2.0, NAN], [3.0, 4.0]]))
    # columns fine on their own, but the pair never observed together
    x = np.array([[1.0, NAN], [2.0, NAN], [NAN, 1.0], [NAN, 2.0]])
    with pytest.raises(InsufficientOverlap):
        covest.pairwise_cov(x)


def _pairwise_cov_float64_mask(vals):
    """The estimate as first written: float64 masks and ``np.where``."""
    mask = ~np.isnan(vals)
    counts = mask.astype(np.float64).T @ mask.astype(np.float64)
    means = np.nansum(vals, axis=0) / mask.sum(axis=0)
    xc = np.where(mask, vals - means, 0.0)
    psi = (xc.T @ xc) / counts
    return (psi + psi.T) / 2.0


@pytest.mark.parametrize("exact_f32", [covest._EXACT_F32, 0], ids=["float32", "float64"])
def test_pairwise_counts_and_estimate_match_the_float64_formula(monkeypatch, exact_f32):
    # exact_f32 = 0 sends every n to the float64 counts kept for n > 2**24.
    monkeypatch.setattr(covest, "_EXACT_F32", exact_f32)
    rng = np.random.default_rng(181)
    checked = 0
    for t in range(40):
        n, p = int(rng.integers(4, 300)), int(rng.integers(1, 40))
        x = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)
        x[rng.random((n, p)) < rng.uniform(0.0, 0.4)] = np.nan
        x[rng.random(n) < 0.1] = np.nan  # rows with every cell missing
        mask = ~np.isnan(x)
        want_counts = mask.T.astype(np.int64) @ mask.astype(np.int64)
        if want_counts.min() < 1 or np.diagonal(want_counts).min() < 2:
            with pytest.raises(InsufficientOverlap):
                covest.pairwise_cov(x)
            continue
        psi, counts = covest.pairwise_cov(x)
        assert counts.dtype == np.int64 and np.array_equal(counts, want_counts)
        assert np.array_equal(psi, _pairwise_cov_float64_mask(x))  # bit-for-bit
        checked += 1
    assert checked >= 25


def test_pairwise_psd_floor():
    rng = np.random.default_rng(127)
    x = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 6))
    mask = rng.random((60, 6)) < 0.25
    x = np.where(mask, np.nan, x)
    got = covest.pairwise_cov_psd(x)
    assert np.min(np.linalg.eigvalsh(got)) >= -1e-10
    assert_allclose(got, got.T)


def _peak_bytes(fn):
    """Bytes allocated at the peak of ``fn()`` beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pairwise_cov_psd_projects_without_the_counts(monkeypatch):
    # While it projects, pairwise_cov_psd holds the pairwise estimate and
    # no p x p overlap counts beside it.
    rng = np.random.default_rng(193)
    p = 300
    x = rng.standard_normal((200, p))
    x[rng.random(x.shape) < 0.1] = np.nan
    project, held = symmat.psd_project, []

    def spy(m):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return project(m)

    monkeypatch.setattr(symmat, "psd_project", spy)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = covest.pairwise_cov_psd(x)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert np.array_equal(got, covest.pairwise_parts(x)[2])
    assert len(held) == 1 and held[0] < 1.5 * p * p * 8, held


def test_pairwise_consistency_under_mar():
    # Statistical sanity at n=10^4 with 5% missingness: relative Frobenius
    # error against the population covariance stays under 10%.
    spec = simlab.missing_a1_spec(mar_prob=0.05)
    pop = simlab.population_cov(spec)
    data = simlab.sample(spec, 10_000, seed=[2024, 0])
    got = covest.pairwise_cov_psd(data)
    rel = np.linalg.norm(got - pop) / np.linalg.norm(pop)
    assert rel <= 0.1


def test_to_correlation():
    sigma = np.array([[4.0, 2.0], [2.0, 25.0]])
    corr = covest.to_correlation(sigma)
    assert_allclose(np.diag(corr), [1.0, 1.0])
    assert corr[0, 1] == pytest.approx(2.0 / 10.0)
    with pytest.raises(ZeroVariance):
        covest.to_correlation(np.diag([1.0, 0.0]))
    for bad in (np.float64(2.0), np.ones(3), np.ones((2, 3))):  # 0-d: IndexError once
        with pytest.raises(DimMismatch):
            covest.to_correlation(bad)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(131)
    g = rng.standard_normal((8, 5))
    sigma = g.T @ g / 8
    path = tmp_path / "cov.csv"
    covest.write_matrix_csv(str(path), sigma)
    back = covest.read_cov_csv(str(path))
    assert np.array_equal(back, (sigma + sigma.T) / 2)


def test_read_data_csv_missing_tokens(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1.0,,3.0\n2.0,NA,NaN\n4.0,5.0,6.0\n")
    data = covest.read_data_csv(str(path), header=True)
    values = np.asarray(data.values, dtype=float)
    assert values.shape == (3, 3)
    assert np.isnan(values[0, 1]) and np.isnan(values[1, 1]) and np.isnan(values[1, 2])
    assert values[2, 1] == 5.0


# ---------------------------------------------------------------------------
# CSV reader: the per-cell parser it replaced, kept as the oracle
# ---------------------------------------------------------------------------


def _oracle_cell(cell: str) -> float:
    token = cell.strip()
    if token in ("", "NA", "NaN") or token.lower() in ("na", "nan"):
        return float("nan")
    try:
        return float(token)
    except ValueError:
        # this parser let the ValueError escape; the reader's typed error
        raise DimMismatch(f"bad cell {cell!r}") from None


def _oracle_read(path: str, header: bool = False) -> covest.DataMatrix:
    """``csv.reader`` rows, blank rows dropped, then ``float()`` per cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if header and rows:
        rows = rows[1:]
    if not rows:
        raise DimMismatch(f"{path}: no data rows")
    width = len(rows[0])
    out = np.empty((len(rows), width))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DimMismatch(f"{path}: row {r} has {len(row)} fields, expected {width}")
        out[r] = [_oracle_cell(c) for c in row]
    return covest.DataMatrix(out)


def _outcome(read, path, header):
    try:
        return read(path, header).values
    except CssKitError as exc:
        return type(exc)


# Every field the random files are made of, besides signed numbers.
_TOKENS = (
    "", " ", "NA", "na", " NA ", "NaN", "nan", "\t1.25\t", "\t-3e2 ", '"5"',
    '"NA"', '""', '" "', '" na "', "inf", "1e400", "abc", '7"',
)

# Fields that leave a quote open, drawn after the first non-blank line only.
# The oracle then reads one field on into the following lines, and that
# field holds an "x" or a quote, so it is no number, as the reader
# rejects the line; on the first line, read as a header, the oracle's
# header would swallow the lines after it.
_OPEN_TOKENS = ('"x', '"7""')


def _random_number(rng) -> str:
    sign = ("", "-", "+")[rng.integers(3)]
    body = ("7", "12.5", "0.125", "3.", ".5", "1234567.891")[rng.integers(6)]
    exp = ("", "", "e5", "E-3", "e+02", "e-300")[rng.integers(6)]
    return sign + body + exp


def _random_csv(rng) -> str:
    width = int(rng.integers(1, 5))
    lines = []
    if rng.random() < 0.3:
        lines.append(",".join(["x"] * width))  # a bad data row unless header=True
    for _ in range(int(rng.integers(0, 6))):
        if rng.random() < 0.15:
            lines.append("")
        n = width + (int(rng.choice([-1, 1])) if rng.random() < 0.04 else 0)
        cells = [
            _random_number(rng) if rng.random() < 0.7 else _TOKENS[rng.integers(len(_TOKENS))]
            for _ in range(max(n, 1))
        ]
        if any(lines) and rng.random() < 0.05:
            cells[rng.integers(len(cells))] = _OPEN_TOKENS[rng.integers(len(_OPEN_TOKENS))]
        lines.append(",".join(cells))
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


def test_read_data_csv_matches_the_per_cell_parser(tmp_path):
    path = str(tmp_path / "d.csv")
    rng = np.random.default_rng(173)
    x = rng.standard_normal((40, 30))
    x[rng.random(x.shape) < 0.1] = np.nan
    np.savetxt(path, x, fmt="%.10g", delimiter=",")  # "nan" for missing cells
    assert np.array_equal(
        covest.read_data_csv(path).values, _oracle_read(path).values, equal_nan=True
    )
    counts = {"matrix": 0, "error": 0}
    for _ in range(2500):
        text = _random_csv(rng)
        with open(path, "w") as fh:
            fh.write(text)
        header = bool(rng.random() < 0.3)
        want = _outcome(_oracle_read, path, header)
        got = _outcome(covest.read_data_csv, path, header)
        if isinstance(want, type):
            assert got is want, (text, header)
            counts["error"] += 1
        else:
            assert isinstance(got, np.ndarray), (text, header, got)
            assert np.array_equal(got, want, equal_nan=True), (text, header)
            counts["matrix"] += 1
    assert min(counts.values()) >= 500, counts


def test_read_data_csv_names_bad_cell_and_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("h1,h2\n\n1,2\n\n3,abc\n")
    with pytest.raises(DimMismatch, match=r"d\.csv: line 5, column 2: 'abc' is not a number"):
        covest.read_data_csv(str(path), header=True)
    path.write_text("1,2\n3,4\n\n5,6,7\n")
    with pytest.raises(DimMismatch, match=r"d\.csv: line 4 has 3 fields, expected 2"):
        covest.read_data_csv(str(path))
    # Python-only spellings are not numbers
    path.write_text("1,1_000\n")
    with pytest.raises(DimMismatch, match="line 1, column 2"):
        covest.read_data_csv(str(path))
    path.write_text("1,inf\n")
    with pytest.raises(NonFinite):
        covest.read_data_csv(str(path))
    path.write_text("\n\n")
    with pytest.raises(DimMismatch, match="no data rows"):
        covest.read_data_csv(str(path))


def test_read_data_csv_header_skips_first_nonblank_line_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("\n\nx,y\n1,2\n\n3,4\n")
    assert covest.read_data_csv(str(path), header=True).values.tolist() == [[1, 2], [3, 4]]
    path.write_text("1,2\n3,4\n")
    assert covest.read_data_csv(str(path), header=True).values.tolist() == [[3, 4]]
    assert covest.read_data_csv(str(path)).values.tolist() == [[1, 2], [3, 4]]


def test_read_data_csv_one_column_blank_looking_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('1\n \n""\n\t\n\n" NA "\n6\n')  # the empty line is skipped
    got = covest.read_data_csv(str(path)).values
    assert got.shape == (6, 1)
    assert np.array_equal(got[:, 0], [1, NAN, NAN, NAN, NAN, 6], equal_nan=True)


def test_read_data_csv_has_no_comment_character(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n#3,4\n")
    with pytest.raises(DimMismatch, match="line 2, column 1"):
        covest.read_data_csv(str(path))
    path.write_text("1,2 # a note\n")
    with pytest.raises(DimMismatch, match="line 1, column 2"):
        covest.read_data_csv(str(path))


def test_read_data_csv_reads_a_quoted_field_within_its_line(tmp_path):
    # The quote does not carry the field over the line break: line 2 is
    # `4,"5`, two fields.
    path = tmp_path / "d.csv"
    path.write_text('1,2,3\n4,"5\n",6\n')
    with pytest.raises(DimMismatch, match=r"d\.csv: line 2 has 2 fields, expected 3"):
        covest.read_data_csv(str(path))
    path.write_text('1,"2",3\n4,5,"6"\n')
    assert np.array_equal(covest.read_data_csv(str(path)).values, [[1, 2, 3], [4, 5, 6]])


def test_read_data_csv_rejects_a_quote_left_open(tmp_path):
    # The quote opened on line 1 is not closed there; the line-by-line pass
    # used to join lines 1 and 2 into the row [1, 23, 4].
    path = tmp_path / "d.csv"
    path.write_text('1,"2\n3",4\n')
    with pytest.raises(DimMismatch, match=r"d\.csv: line 1 leaves a quote open"):
        covest.read_data_csv(str(path))
    with pytest.raises(DimMismatch):
        _oracle_read(str(path))
    path.write_text('1,2\n\n"3"",4\n5",6\n')  # "" is a quote inside the field
    with pytest.raises(DimMismatch, match="line 3 leaves a quote open"):
        covest.read_data_csv(str(path))
    path.write_text('1,"2"\n7",8\n')  # a quote within a field opens none
    with pytest.raises(DimMismatch, match="line 2, column 1: .* is not a number"):
        covest.read_data_csv(str(path))


def test_read_data_csv_reads_text_after_a_closing_quote_into_the_field(tmp_path):
    # Every comma separates fields, so a quoted field that holds one is no
    # number; text after a closing quote stays in the field.
    path = tmp_path / "d.csv"
    path.write_text('"5" ,"NA" \n')
    assert np.array_equal(covest.read_data_csv(str(path)).values, [[5, NAN]], equal_nan=True)
    path.write_text('1,2,3\n1,"x,7"\n')
    with pytest.raises(DimMismatch, match=r"line 2, column 2: 'x,7' is not a number"):
        covest.read_data_csv(str(path))
    path.write_text('1,2\n"5"x,6\n')
    with pytest.raises(DimMismatch, match=r"line 2, column 1: '5x' is not a number"):
        covest.read_data_csv(str(path))


def _set_cell(lines, row, text):
    cells = lines[row].split(",")
    cells[1] = text
    lines = list(lines)
    lines[row] = ",".join(cells)
    return lines


def _set_last_cell(lines, text):
    return _set_cell(lines, -1, text)


# 300 blank lines, so the header is the first line of the second block,
# and one blank line after it: data row r is line 303 + r.
_HEADED = [""] * 300 + ["a,b,c,d", ""]


# (lines of a 3000-row file -> lines, header, the error's message or None).
# numpy reads the file in blocks of lines, so a refusal in the last row or
# in a middle block comes after it has parsed thousands of rows; the block
# read field by field must still agree with the per-cell parser and count
# the file's lines from 1.
_BIG_CASES = {
    "na-last-row": (lambda lines: _set_last_cell(lines, "NA"), False, None),
    "empty-last-cell": (lambda lines: _set_last_cell(lines, ""), False, None),
    "ragged-last-row": (
        lambda lines: lines[:-1] + [lines[-1] + ",1"], False,
        r"line 3000 has 5 fields, expected 4",
    ),
    "abc-last-row": (
        lambda lines: _set_last_cell(lines, "abc"), False,
        r"line 3000, column 2: 'abc' is not a number",
    ),
    "header-after-blank-lines": (lambda lines: ["", "", "a,b,c,d"] + lines, True, None),
    "header-blank-lines-and-abc": (
        lambda lines: ["", "", "a,b,c,d"] + _set_last_cell(lines, "abc"), True,
        r"line 3003, column 2: 'abc' is not a number",
    ),
    "header-in-second-block-na-in-middle-block": (
        lambda lines: _HEADED + _set_cell(lines, 1000, "NA"), True, None,
    ),
    "header-in-second-block-abc-in-middle-block": (
        lambda lines: _HEADED + _set_cell(lines, 1000, "abc"), True,
        r"line 1303, column 2: 'abc' is not a number",
    ),
    "header-in-second-block-ragged-middle-block": (
        lambda lines: _HEADED + lines[:1000] + [lines[1000] + ",1"] + lines[1001:], True,
        r"line 1303 has 5 fields, expected 4",
    ),
    # whole blocks that numpy reads, but three fields wide
    "narrow-middle-blocks": (
        lambda lines: lines[:600] + [line.rsplit(",", 1)[0] for line in lines[600:1200]]
        + lines[1200:], False,
        r"line 601 has 3 fields, expected 4",
    ),
}


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(_BIG_CASES))
def test_read_data_csv_second_pass_on_a_large_file(tmp_path, case, crlf):
    edit, header, message = _BIG_CASES[case]
    path = tmp_path / "big.csv"
    np.savetxt(path, np.random.default_rng(179).standard_normal((3000, 4)), delimiter=",")
    lines = edit(path.read_text().splitlines())
    path.write_bytes(("\r\n" if crlf else "\n").join(lines).encode() + b"\n")
    want = _outcome(_oracle_read, str(path), header)
    got = _outcome(covest.read_data_csv, str(path), header)
    if message is None:
        assert isinstance(want, np.ndarray) and want.shape[0] == 3000
        assert np.array_equal(got, want, equal_nan=True)
    else:
        assert want is DimMismatch and got is DimMismatch
        with pytest.raises(DimMismatch, match=message):
            covest.read_data_csv(str(path), header)


def test_read_data_csv_reads_only_the_refused_block_field_by_field(tmp_path, monkeypatch):
    path = tmp_path / "big.csv"
    np.savetxt(path, np.random.default_rng(181).standard_normal((3000, 4)), delimiter=",")
    path.write_text("\n".join(_set_last_cell(path.read_text().splitlines(), "NA")) + "\n")
    read_fields, seen = covest._read_fields, []

    def spy(path, lines, first, width):
        seen.append(len(lines))
        return read_fields(path, lines, first, width)

    monkeypatch.setattr(covest, "_read_fields", spy)
    got = covest.read_data_csv(str(path)).values
    assert np.array_equal(got, _oracle_read(str(path)).values, equal_nan=True)
    assert len(seen) == 1 and seen[0] <= covest._BLOCK_LINES


def test_read_data_csv_does_not_read_numpy_error_messages(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    path = tmp_path / "d.csv"
    path.write_text("\nx,y\n1,NA\n\n3,4\n")
    want = _oracle_read(str(path), True).values
    monkeypatch.setattr(np, "loadtxt", refuse)
    got = covest.read_data_csv(str(path), True).values
    assert np.array_equal(got, want, equal_nan=True)
    path.write_text("1,2\n\n3,abc\n")
    with pytest.raises(DimMismatch, match=r"line 3, column 2: 'abc' is not a number"):
        covest.read_data_csv(str(path))


def test_a_refused_block_reads_what_numpy_reads_to_the_same_bits():
    lines = [
        " +.5e-3 ,\xa01,Infinity,+nan\n",
        "-nan,1e-320,-0.0,\x0c2E3\n",
        "1e400,-INF,nAn,7.\n",
    ]
    want = np.loadtxt(lines, **covest._LOADTXT)
    got = np.array(covest._read_fields("d.csv", lines + ["NA,1,2,3\n"], 1, None))
    assert got[:3].tobytes() == want.tobytes()


def test_read_data_csv_reads_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a\xe9,b\n1,2\n")  # a Latin-1 header, skipped unread
    assert covest.read_data_csv(str(path), header=True).values.tolist() == [[1, 2]]
    path.write_bytes(b"1,2\n3,4\xff\n")
    with pytest.raises(DimMismatch, match=r"line 2, column 2: '4\\udcff' is not a number"):
        covest.read_data_csv(str(path))


def test_read_data_csv_drops_a_leading_byte_order_mark(tmp_path):
    # spreadsheet exports often start with one; it once made the first
    # field "\ufeff1", no number
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    assert covest.read_data_csv(str(path)).values.tolist() == [[1, 2], [3, 4]]
    path.write_bytes(b"\xef\xbb\xbfx,y\n1,NA\n")
    assert np.array_equal(covest.read_data_csv(str(path), header=True).values, [[1, NAN]], equal_nan=True)
    path.write_bytes(b"1,2\n\xef\xbb\xbf3,4\n")  # only at the start of the file
    with pytest.raises(DimMismatch, match="line 2, column 1"):
        covest.read_data_csv(str(path))
    cov = tmp_path / "c.csv"
    cov.write_bytes(b"\xef\xbb\xbf2,1\n1,2\n")
    assert covest.read_cov_csv(str(cov)).tolist() == [[2, 1], [1, 2]]


def test_read_data_csv_holds_the_matrix_once(tmp_path):
    # The peak is the matrix plus about one block of text and rows, not two
    # copies of the matrix: here 8 MB of data, of which a block is 0.5 MB.
    rng = np.random.default_rng(197)
    n, p = 2000, 500
    rows = [",".join(format(v, ".4f") for v in rng.standard_normal(p)) for _ in range(8)]
    path = tmp_path / "wide.csv"
    body = "\n".join(rows[i % 8] for i in range(n))
    path.write_text("\nheader\n" + body.replace(rows[3], rows[3] + "\n", 1) + "\n\n")
    peak = _peak_bytes(lambda: covest.read_data_csv(str(path), header=True))
    assert peak < 1.5 * n * p * 8, peak
    got = covest.read_data_csv(str(path), header=True).values
    assert got.shape == (n, p) and np.array_equal(got[8:16], got[:8])
    assert got.base is None or got.base.shape == got.shape  # counted, not trimmed


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_read_data_csv_reads_a_pipe(tmp_path):
    text = "x,y\n1,NA\n\n3,4\n"
    path = tmp_path / "d.csv"
    path.write_text(text)
    want = covest.read_data_csv(str(path), header=True).values
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        got = covest.read_data_csv(f"/dev/fd/{r}", header=True).values
    finally:
        os.close(r)
    assert np.array_equal(got, want, equal_nan=True)


def test_diagnostics_keys():
    x = np.array([[1.0, 2.0], [3.0, NAN], [NAN, 4.0], [5.0, 6.0]])
    diag = covest.covest_diagnostics(x, *covest.pairwise_parts(x))
    assert diag["missing_fraction"] == pytest.approx(0.25)
    assert diag["min_overlap"] == 2
    assert diag["max_overlap"] == 3
    assert diag["min_eig_before"] < 0 < diag["min_eig_after"] + 1e-10
