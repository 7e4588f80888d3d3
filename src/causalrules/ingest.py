"""Data loading, validation, and treatment categorization.

The expected observational unit is ``(W, A, Y)``: a vector of binary
baseline covariates ``W``, a categorical treatment level ``A`` in
``{0, ..., K-1}``, and a binary outcome ``Y``.  Treatment may arrive
either as an already-coded category column ``A`` or as a raw weekly
leisure-time physical activity score in MET-hours (column ``LTPA_MET``),
which is mapped onto six ordered categories by :func:`categorize_met`.
"""

from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass, field, fields
from itertools import chain, count
from operator import itemgetter

import numpy as np

from .errors import ValidationError

# Default covariate schema: indicators for sex, age band, self-rated
# general health, neighborhood rating, cardiac and chronic conditions,
# smoking status, and recent health decline.
DEFAULT_COVARIATES: tuple[str, ...] = (
    "FEMALE",
    "AGE.1",
    "AGE.2",
    "AGE.4",
    "AGE.5",
    "HLT.EX",
    "HLT.FAIR",
    "HLT.POOR",
    "NRB.FAIR",
    "NRB.POOR",
    "CARD",
    "CHRON",
    "SMK.CURR",
    "SMK.EX",
    "DECLINE",
)

DEFAULT_K = 6

# Upper edges of the MET-hour bands for categories 1..4; zero activity is
# its own category 0 and anything above the last edge is category 5.
MET_BREAKS: tuple[float, ...] = (10.0, 20.0, 40.0, 60.0)

MISSING_TOKENS = frozenset({"", "NA", "NaN", "nan", "."})

TREATMENT_COLUMNS = ("A", "LTPA_MET")
OUTCOME_COLUMN = "Y"


def categorize_met(met: float) -> int:
    """Map a weekly MET-hour score onto treatment categories 0..5.

    Zero activity is category 0; positive scores fall into the bands
    (0, 10], (10, 20], (20, 40], (40, 60], and (60, inf).
    """
    if not np.isfinite(met) or met < 0:
        raise ValidationError(f"MET score must be a finite nonnegative number, got {met!r}")
    if met == 0:
        return 0
    return int(np.searchsorted(MET_BREAKS, met, side="left")) + 1


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first occurrence of each distinct row of the 0/1
    integer matrix ``x``, and each row's position among those distinct
    rows (int64), which ascend as binary numbers, column 0 highest.

    Each pass packs as many more columns as fit beside the ranks so far
    into one int64 key per row, and ranks the keys by a counting table
    (:func:`_group_codes`) when they have at most ``n`` possible values,
    else by ``np.unique``; no columns make one group.  This is the one
    grouping of rows into patterns, for datasets, the loader, the fits
    and the simulator.
    """
    n, p = x.shape
    inverse, groups, done = np.zeros(n, np.int64), 1, 0
    while True:
        take = min(p - done, 62 - (groups - 1).bit_length())
        for column in x[:, done : done + take].T:
            inverse <<= 1
            inverse |= column
        done += take
        size = groups << take
        if size <= n:
            first, inverse = _group_codes(inverse, size)
        else:
            first, inverse = np.unique(inverse, return_index=True, return_inverse=True)[1:]
        if done == p:
            return first, inverse
        groups = first.size


def _distinct_codes(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for integer codes in
    ``0..size-1``: the distinct codes in ascending order, and the position
    of every code among them.  Costs O(n + size) instead of a sort."""
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[codes]


def _numeric(values, what: str) -> np.ndarray:
    """``values`` as an array of booleans, integers or floats, not yet cast."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be numeric, got dtype {arr.dtype}")
    return arr


def _binary(values: np.ndarray) -> bool:
    """Whether every value is 0 or 1, whatever the numeric dtype."""
    return bool(((values == 0) | (values == 1)).all())


def _check_unique(covariate_names) -> None:
    if len(set(covariate_names)) != len(covariate_names):
        raise ValidationError("covariate names must be unique")


def _check_levels(a: np.ndarray, k: int) -> None:
    """The checks of ``K`` and of the treatment levels ``a``."""
    if k < 2:
        raise ValidationError("n_treatment_levels must be at least 2")
    if a.dtype.kind not in "biu" and not (np.isfinite(a) & (a == np.floor(a))).all():
        raise ValidationError("treatment levels must be integers")
    if a.min() < 0 or a.max() >= k:
        raise ValidationError(
            f"treatment levels must lie in 0..{k - 1}, found range "
            f"[{int(a.min())}, {int(a.max())}]"
        )


@dataclass(frozen=True)
class Dataset:
    """Validated analysis sample.

    Attributes
    ----------
    w : (n, p) int8 array of binary covariates.
    a : (n,) int array of treatment levels in {0, ..., K-1}.
    y : (n,) int array of binary outcomes.
    covariate_names : column names for ``w``.
    n_treatment_levels : number of treatment categories K.
    dropped_rows : rows discarded at load time for missing fields.

    The values are checked before they are cast: a covariate or outcome
    that is not 0 or 1, or a treatment level that is not an integer in
    ``0..K-1``, raises :class:`ValidationError` rather than being
    truncated.

    A dataset is grouped once into its distinct covariate rows
    (:meth:`_w_groups`, by :func:`_distinct_rows`) and into its (W, A)
    patterns on them
    (:meth:`_wa_patterns`), which the fits and the estimators read.  The
    arrays are taken as they are, so they must not be changed in place.
    A caller that already knows that grouping may hand it in as
    ``_groups``, as the simulator does for the support cells it draws,
    :func:`load_csv` for the distinct rows it reads and :meth:`take`
    for the rows it picks.  Those three are checked where they are made
    and built by ``_checked``, which checks nothing again.
    """

    w: np.ndarray
    a: np.ndarray
    y: np.ndarray
    covariate_names: tuple[str, ...]
    n_treatment_levels: int = DEFAULT_K
    dropped_rows: int = field(default=0, compare=False)
    _groups: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _patterns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        w = _numeric(self.w, "covariate matrix")
        a = _numeric(self.a, "treatment")
        y = _numeric(self.y, "outcome")
        if w.ndim != 2:
            raise ValidationError("covariate matrix must be two-dimensional")
        n = w.shape[0]
        if n == 0:
            raise ValidationError("dataset has no rows")
        if a.shape != (n,) or y.shape != (n,):
            raise ValidationError("W, A, Y row counts do not match")
        if len(self.covariate_names) != w.shape[1]:
            raise ValidationError("covariate_names length does not match W columns")
        _check_unique(self.covariate_names)
        if not _binary(w):
            raise ValidationError("covariates must be binary 0/1")
        if not _binary(y):
            raise ValidationError("outcome Y must be binary 0/1")
        _check_levels(a, self.n_treatment_levels)
        object.__setattr__(self, "w", np.ascontiguousarray(w, dtype=np.int8))
        object.__setattr__(self, "a", np.ascontiguousarray(a, dtype=np.int64))
        object.__setattr__(self, "y", np.ascontiguousarray(y, dtype=np.int64))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def _w_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, inverse)`` of the distinct rows of ``w`` (see
        :func:`_distinct_rows`), computed on first use and kept."""
        if self._groups is None:
            object.__setattr__(self, "_groups", _distinct_rows(self.w))
        return self._groups

    def _wa_patterns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, successes, trials)`` of the distinct (W, A) patterns,
        computed on first use and kept, read-only: the keys ``row * K +
        level`` over the rows of :meth:`_w_groups` ascend, and each
        pattern's ``trials`` rows hold ``successes`` outcomes 1 (floats)."""
        if self._patterns is None:
            first, inverse = self._w_groups()
            k = self.n_treatment_levels
            keys, index = _distinct_codes(inverse * k + self.a, first.size * k)
            table = (keys, np.bincount(index, weights=self.y), np.bincount(index).astype(float))
            for x in table:
                x.flags.writeable = False
            object.__setattr__(self, "_patterns", table)
        return self._patterns

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.covariate_names == other.covariate_names
            and self.n_treatment_levels == other.n_treatment_levels
            and np.array_equal(self.w, other.w)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.y, other.y)
        )

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row-subset (or resample) the dataset by integer indices.

        The indices must be integers in ``-n..n-1``; floats and boolean
        masks raise :class:`ValidationError`.  The rows are this dataset's
        checked arrays, and their grouping is this dataset's mapped through
        ``indices``: the picked groups keep their order, so ranking them is
        enough (:func:`_group_codes`), and nothing is checked or grouped again.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise ValidationError("covariate matrix must be two-dimensional")
        if idx.size == 0:
            raise ValidationError("dataset has no rows")
        if idx.dtype.kind not in "iu":
            raise ValidationError(f"row indices must be integers, got dtype {idx.dtype}")
        if idx.min() < -self.n or idx.max() >= self.n:
            raise ValidationError(f"row indices must lie in {-self.n}..{self.n - 1}")
        first, inverse = self._w_groups()
        return Dataset._checked(
            w=self.w[idx],
            a=self.a[idx],
            y=self.y[idx],
            covariate_names=self.covariate_names,
            n_treatment_levels=self.n_treatment_levels,
            _groups=_group_codes(inverse[idx], first.size),
        )

    @classmethod
    def _checked(cls, **values) -> "Dataset":
        """A dataset of arrays the package has already checked and cast:
        ``w`` a C-contiguous int8 matrix of 0/1, ``a`` int64 levels in
        ``0..K-1`` and ``y`` int64 0/1, with at least one row, and unique
        ``covariate_names`` as a tuple.  Nothing is checked again; fields
        not given take their defaults.  The loader, :meth:`take` and the
        simulator build their datasets here; public ``Dataset(...)``
        checks every value.
        """
        self = object.__new__(cls)
        for f in fields(cls):
            object.__setattr__(self, f.name, values.get(f.name, f.default))
        return self


def _group_codes(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of rows coded by integer codes in
    ``0..size-1``, as :func:`_distinct_rows` gives them on those rows,
    when the codes keep the rows' order (as packed keys do): the distinct
    codes ascend, so ranking them is enough, in O(n + size)."""
    present, inverse = _distinct_codes(codes, size)
    first = np.full(present.size, codes.size)
    np.minimum.at(first, inverse, np.arange(codes.size))
    return first, inverse


def _parse_cell(raw: str, row: int, column: str, kind: str) -> float | None:
    """Parse one CSV cell; None means missing.  ``row`` is 1-based data row."""
    token = raw.strip()
    if token in MISSING_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError:
        raise ValidationError(
            f"row {row}, column {column!r}: cannot parse {raw!r} as a number"
        ) from None
    if kind == "binary":
        if value not in (0.0, 1.0):
            raise ValidationError(
                f"row {row}, column {column!r}: expected 0/1, got {raw!r}"
            )
    elif kind == "level":
        if not value.is_integer():  # also false for inf and nan
            raise ValidationError(
                f"row {row}, column {column!r}: treatment level must be an integer, got {raw!r}"
            )
    return value


def _check_row(row: int, cells: list[str], names: tuple[str, ...], treatment_column: str,
               n_treatment_levels: int) -> None:
    """Run the scalar checks on one data row's ``(W..., A, Y)`` cells.

    Raises the :class:`ValidationError` naming the row's first bad cell;
    a valid row, or one with a missing field, passes.
    """
    kind = "met" if treatment_column == "LTPA_MET" else "level"
    w = [_parse_cell(cell, row, name, "binary") for cell, name in zip(cells, names)]
    a = _parse_cell(cells[-2], row, treatment_column, kind)
    y = _parse_cell(cells[-1], row, OUTCOME_COLUMN, "binary")
    if None in w or a is None or y is None:
        return
    if kind == "met":
        try:
            categorize_met(a)
        except ValidationError as exc:
            raise ValidationError(f"row {row}, column 'LTPA_MET': {exc}") from None
    elif not 0 <= a < n_treatment_levels:
        raise ValidationError(
            f"row {row}, column 'A': level {int(a)} outside 0..{n_treatment_levels - 1}"
        )


# Flags of a distinct token, from the checks of one column kind.
_MISSING, _UNPARSEABLE, _OUT_OF_RANGE = 1, 2, 4


def _token_table(tokens: list[str], codes: np.ndarray, kind: str, n_treatment_levels: int):
    """Value and flags of each token that occurs in ``codes``, read as ``kind``.

    ``_parse_cell`` (and, for MET scores, ``categorize_met``) runs once
    per distinct token; tokens that do not occur keep value and flags 0.
    """
    value = np.zeros(len(tokens), np.int64)
    flags = np.zeros(len(tokens), np.uint8)
    for code in np.flatnonzero(np.bincount(codes.ravel(), minlength=len(tokens))):
        try:
            cell = _parse_cell(tokens[code], 0, "", kind)
        except ValidationError:
            flags[code] = _UNPARSEABLE
            continue
        if cell is None:
            flags[code] = _MISSING
        elif kind == "met":
            try:
                value[code] = categorize_met(cell)
            except ValidationError:
                flags[code] = _OUT_OF_RANGE
        elif kind == "level" and not 0 <= cell < n_treatment_levels:
            flags[code] = _OUT_OF_RANGE
        else:
            value[code] = int(cell)
    return value, flags


def _columns(path, header: list[str], covariate_names, treatment_column: str | None):
    """The covariate names and the treatment column that ``load_csv``
    reads from ``header``; each must name exactly one header column."""
    if treatment_column is None:
        present = [c for c in TREATMENT_COLUMNS if c in header]
        if len(present) != 1:
            raise ValidationError(
                f"{path}: expected exactly one treatment column of {TREATMENT_COLUMNS}, "
                f"found {present or 'none'}"
            )
        treatment_column = present[0]
    if treatment_column not in TREATMENT_COLUMNS:
        raise ValidationError(
            f"treatment_column must be one of {TREATMENT_COLUMNS}, got {treatment_column!r}"
        )
    if treatment_column not in header:
        raise ValidationError(f"{path}: missing treatment column {treatment_column!r}")
    if OUTCOME_COLUMN not in header:
        raise ValidationError(f"{path}: missing outcome column 'Y'")

    if covariate_names is None:
        names = tuple(c for c in header if c not in (treatment_column, OUTCOME_COLUMN))
    else:
        names = tuple(covariate_names)
        missing = [c for c in names if c not in header]
        if missing:
            raise ValidationError(f"{path}: covariate columns not in header: {missing}")
    if not names:
        raise ValidationError(f"{path}: no covariate columns")
    for name in (*names, treatment_column, OUTCOME_COLUMN):
        if not name:
            raise ValidationError(
                f"{path}: column {header.index(name) + 1} of the header has an empty name"
            )
        if header.count(name) > 1:
            raise ValidationError(
                f"{path}: column {name!r} appears {header.count(name)} times in the header"
            )
    return names, treatment_column


def load_csv(
    path,
    covariate_names: tuple[str, ...] | list[str] | None = None,
    treatment_column: str | None = None,
    n_treatment_levels: int = DEFAULT_K,
) -> Dataset:
    """Load and validate a CSV of (W, A, Y) rows.

    The header must contain the outcome column ``Y`` and exactly one of
    the treatment columns ``A`` (already categorized) or ``LTPA_MET``
    (raw MET-hours, converted with :func:`categorize_met`).  If
    ``covariate_names`` is omitted, every other column is treated as a
    binary covariate, in header order.  A column that is read must have
    a name, and one that no other header column has.  Rows with any
    missing field are dropped and counted in ``Dataset.dropped_rows``;
    unparseable cells raise :class:`ValidationError` naming the row and
    column.  A UTF-8 byte-order mark before the header is ignored.  A
    file that is not UTF-8 text, or that the CSV reader rejects (a field
    over the reader's size limit), raises :class:`ValidationError`
    naming the file.

    The file is loaded by one of two paths, which give equal datasets.
    A fixed-width file (every data line the header's field count of
    one-byte cells, each used cell a valid digit, any number of
    covariates; see :func:`_load_fixed_width`) is read once as bytes and
    loaded as one array view of them.  That path raises no error of its
    own: any file it declines goes, whole and from its first line, to the line path
    (:func:`_load_lines`), which reads the file again as text, one
    ``csv.reader`` row at a time, and makes every message about the
    rows.  The declined file's bytes are freed before the line path
    reads it.
    """
    ds = _load_fixed_width(path, covariate_names, treatment_column, n_treatment_levels)
    if ds is None:
        ds = _load_lines(path, covariate_names, treatment_column, n_treatment_levels)
    return ds


# A one-byte cell that a line of one-byte cells may hold in a column
# that is not read: any byte but a separator or a line end (the file
# holds no quote or NUL).
_CELL_BYTES = np.ones(256, bool)
_CELL_BYTES[[ord(","), ord("\r"), ord("\n")]] = False


def _cell_values(cells: np.ndarray, kind: str, n_treatment_levels: int) -> np.ndarray | None:
    """The values of the one-byte cells ``cells`` (uint8) read as column
    kind ``kind``, as int8, or None if a byte in their range is a token
    that the kind rejects or reads as missing.

    Each byte from the least to the greatest is read once, as a token,
    by :func:`_token_table`.  When every one is a digit read as itself
    (binary and level cells), ``cells`` is overwritten with the values;
    otherwise (MET scores) the values are looked up.
    """
    lo, hi = int(cells.min()), int(cells.max())
    tokens = [chr(c) for c in range(lo, hi + 1)]
    value, flags = _token_table(tokens, np.arange(len(tokens)), kind, n_treatment_levels)
    if flags.any():
        return None
    if np.array_equal(value, np.arange(lo, hi + 1) - ord("0")):
        return np.subtract(cells, ord("0"), out=cells).view(np.int8)
    return value.astype(np.int8)[cells - lo]


def _load_fixed_width(path, covariate_names, treatment_column,
                      n_treatment_levels: int) -> Dataset | None:
    """Load a fixed-width file as one array view of its bytes, or return
    None to decline it.

    A file is taken when, after an optional UTF-8 byte-order mark, it is
    ASCII with no quote and no NUL, and holds no ``.`` (the one missing
    token of one byte) after its header; its header, read by ``csv.reader``
    and :func:`_columns` as on the line path, ends in ``\\n`` or
    ``\\r\\n``; every data line is the header's number of one-byte cells
    with commas between them and ends in the header's line end (the last
    one too); and every cell read is a value that its column kind
    accepts (:func:`_cell_values`), so no row is dropped or bad.  The
    body is an ``(n, 2 * width - 1 + len(eol))`` uint8 view, and every
    separator and line end is checked as a column of it; the cells read are copied once, one row per column.  Errors
    of the header and of the dataset (repeated covariate names, fewer
    than two levels, a MET category above ``K - 1``) are raised as on
    the line path; there are no others.  The rows are grouped by
    :func:`_distinct_rows`, whatever the number of covariates.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    text = np.frombuffer(raw, np.uint8, offset=start)  # past the BOM, without a copy
    if not text.size or text.max() > 0x7F or b'"' in raw or b"\0" in raw:
        return None
    end = raw.find(b"\n", start) + 1
    eol = b"\r\n" if raw[start:end].endswith(b"\r\n") else b"\n"
    if not end or b"\r" in raw[start : end - len(eol)] or raw.find(b".", end) >= 0:
        return None
    try:
        header = [h.strip() for h in next(csv.reader([raw[start:end].decode()]))]
    except csv.Error:  # a field over the reader's size limit
        return None
    names, treatment_column = _columns(path, header, covariate_names, treatment_column)
    width, p = len(header), len(names)
    size = 2 * width - 1 + len(eol)
    body = np.frombuffer(raw, np.uint8, offset=end)
    if not body.size or body.size % size:
        return None
    lines = body.reshape(-1, size)
    cells = lines[:, : 2 * width : 2]
    used = [header.index(c) for c in (*names, OUTCOME_COLUMN, treatment_column)]
    if not (
        (lines[:, 1 : 2 * width - 1 : 2] == ord(",")).all()
        and (lines[:, 2 * width - 1 :] == np.frombuffer(eol, np.uint8)).all()
        and _CELL_BYTES[cells[:, [j for j in range(width) if j not in used]]].all()
    ):
        return None

    # One row per column read: W..., Y, then the treatment.
    columns = cells.T[used]
    binary = _cell_values(columns[: p + 1], "binary", n_treatment_levels)
    kind = "met" if treatment_column == "LTPA_MET" else "level"
    a = _cell_values(columns[p + 1], kind, n_treatment_levels)
    if binary is None or a is None:
        return None
    groups = _distinct_rows(binary[:p].T)
    a = a.astype(np.int64)
    # The cells are checked; the names, K and the levels are not (a MET
    # category may exceed ``K - 1``).
    _check_unique(names)
    _check_levels(a, n_treatment_levels)
    return Dataset._checked(
        w=np.ascontiguousarray(binary[:p].T),
        a=a,
        y=binary[p].astype(np.int64),
        covariate_names=names,
        n_treatment_levels=n_treatment_levels,
        _groups=groups,
    )


def _load_lines(path, covariate_names, treatment_column, n_treatment_levels: int) -> Dataset:
    """Load any CSV file, one ``csv.reader`` row at a time.

    The rows are read in file order, up to the first one with the wrong
    number of fields.  Each row is keyed by the cells it uses, ``(W...,
    A, Y)``, and one dict numbers the distinct keys in first-seen order,
    so a repeated row, quoted or not, costs one lookup.  The cells of the
    distinct keys are coded as indices into the file's distinct cell
    texts; each text is parsed once per column kind (binary, level or
    MET score), and the codes index those results to give W, A, Y and
    the missing and bad cells of each distinct key.  The first bad row
    is the first that has the wrong number of fields, an unparseable
    cell, or, if no field is missing, a level or MET score out of range.
    Only that row is checked cell by cell again, so the error names the
    same row and column as a row-by-row parse would.

    The dataset is handed the grouping of its covariate rows
    (:func:`_distinct_rows`), computed on the distinct keys rather than
    on every row, and is built from the checked arrays without checking
    them again (``Dataset._checked``).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
            names, treatment_column = _columns(path, header, covariate_names, treatment_column)
            used = itemgetter(*map(header.index, (*names, treatment_column, OUTCOME_COLUMN)))
            keys: dict[tuple[str, ...], int] = {}
            rows = []  # each data row's key number
            short = None
            for row in reader:
                if len(row) != len(header):
                    short = (len(rows) + 1, len(row))
                    break
                rows.append(keys.setdefault(used(row), len(keys)))
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    p = len(names)
    tokens = list(dict.fromkeys(chain.from_iterable(keys)))
    code = dict(zip(tokens, count())).__getitem__
    codes = np.fromiter(map(code, chain.from_iterable(keys)), np.int32, len(keys) * (p + 2))
    codes = codes.reshape(len(keys), p + 2)
    rows = np.array(rows, np.int64)

    kind = "met" if treatment_column == "LTPA_MET" else "level"
    # Codes, flags and values below are per distinct key; ``rows`` maps
    # each data row to its key.
    binary_codes = codes[:, [*range(p), p + 1]]
    a_codes = codes[:, p]
    b_value, b_flags = _token_table(tokens, binary_codes, "binary", n_treatment_levels)
    a_value, a_flags = _token_table(tokens, a_codes, kind, n_treatment_levels)
    flags = np.bitwise_or.reduce(b_flags[binary_codes], axis=1) | a_flags[a_codes]
    missing = (flags & _MISSING) > 0
    bad = ((flags & _UNPARSEABLE) > 0) | (((flags & _OUT_OF_RANGE) > 0) & ~missing)

    if bad.any():
        i = int(np.argmax(bad[rows]))
        cells = [tokens[c] for c in codes[rows[i]]]
        _check_row(i + 1, cells, names, treatment_column, n_treatment_levels)
        raise AssertionError(f"row {i + 1} failed the bulk checks but passed the scalar ones")
    if short is not None:
        raise ValidationError(f"row {short[0]}: expected {len(header)} fields, got {short[1]}")
    if not rows.size:
        raise ValidationError(f"{path}: no data rows")
    dropped = missing[rows]
    if dropped.all():
        raise ValidationError(f"{path}: all {rows.size} data rows were dropped as incomplete")

    kept = np.flatnonzero(~missing)
    # Each kept row's position among the kept keys, which stay in
    # first-seen order: a key first occurs where the running maximum of
    # these positions first reaches it.
    line_of = (np.cumsum(~missing) - 1)[rows[~dropped]]
    first_row = np.searchsorted(np.maximum.accumulate(line_of), np.arange(kept.size))
    w = b_value.astype(np.int8)[binary_codes[kept, :p]]
    a = a_value[a_codes[kept]]
    # The cells are checked; the names, K and the levels are not (a MET
    # category may exceed ``K - 1``).
    _check_unique(names)
    _check_levels(a, n_treatment_levels)
    first, inverse = _distinct_rows(w)
    return Dataset._checked(
        w=w[line_of],
        a=a[line_of],
        y=b_value[binary_codes[kept, p]][line_of],
        covariate_names=names,
        n_treatment_levels=n_treatment_levels,
        dropped_rows=int(dropped.sum()),
        _groups=(first_row[first], inverse[line_of]),
    )


def _csv_rows(table: np.ndarray) -> str:
    """CSV text of a table of nonnegative integers, each row ending in ``\\r\\n``."""
    width = len(str(table.max()))
    powers = 10 ** np.arange(width - 1, -1, -1)
    # Each cell gets ``width`` right-aligned digit slots and two terminator
    # slots: "," and an unused one, or "\r\n" after the last column.
    buf = np.empty(table.shape + (width + 2,), np.uint8)
    buf[..., :width] = table[..., None] // powers % 10 + ord("0")
    buf[..., width] = ord(",")
    buf[:, -1, width:] = (ord("\r"), ord("\n"))
    keep = np.zeros(buf.shape, bool)
    keep[..., :width] = table[..., None] >= powers  # no leading zeros...
    keep[..., width - 1 : width + 1] = True  # ...but always a last digit, then "," or "\r"
    keep[:, -1, width + 1] = True
    return buf[keep].tobytes().decode("ascii")


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with columns ``covariates..., A, Y``.

    The file has the bytes ``csv.writer`` writes in its default dialect
    (every row ends in ``\\r\\n``); the data rows are formatted with array
    operations.  ``load_csv`` on the result reproduces the dataset exactly.
    """
    table = np.column_stack([dataset.w, dataset.a, dataset.y])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(dataset.covariate_names) + ["A", "Y"])
        fh.write(_csv_rows(table))
