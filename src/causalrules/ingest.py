"""Data loading, validation, and treatment categorization.

The expected observational unit is ``(W, A, Y)``: a vector of binary
baseline covariates ``W``, a categorical treatment level ``A`` in
``{0, ..., K-1}``, and a binary outcome ``Y``.  Treatment may arrive
either as an already-coded category column ``A`` or as a raw weekly
leisure-time physical activity score in MET-hours (column ``LTPA_MET``),
which is mapped onto six ordered categories by :func:`categorize_met`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from itertools import chain, count, islice

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
    """Index of the first occurrence of each distinct row of ``x``, and
    each row's position among those distinct rows.

    The distinct rows are ordered by their bytes.  Pass the raw data
    rather than a float design built from it: the grouping then costs no
    float copy.  A matrix with no columns is one group.  This is the one
    grouping of rows into patterns: a :class:`Dataset` groups its
    covariates with it once, and the fits group their own arrays with it.
    :func:`load_csv` runs it on the distinct lines of a file, not on every
    row, and hands the dataset the result mapped back to the rows; it
    equals this function's result on the dataset's ``w``.
    """
    n, p = x.shape
    if p == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(n, dtype=np.int64)
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.dtype.itemsize * p))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse.ravel()


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
    (:meth:`_w_groups`) and into its (W, A) patterns on them
    (:meth:`_wa_patterns`), which the fits and the estimators read.  The
    arrays are taken as they are, so they must not be changed in place.
    A caller that already knows that grouping may hand it in as
    ``_groups``, as the simulator does for the support cells it draws,
    :func:`load_csv` for the distinct lines it reads and :meth:`take`
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

        The rows are this dataset's checked arrays, and their grouping is
        this dataset's mapped through ``indices`` (:func:`_subgroups`), so
        nothing is checked or grouped again.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValidationError("covariate matrix must be two-dimensional")
        if idx.size == 0:
            raise ValidationError("dataset has no rows")
        first, inverse = self._w_groups()
        return Dataset._checked(
            w=self.w[idx],
            a=self.a[idx],
            y=self.y[idx],
            covariate_names=self.covariate_names,
            n_treatment_levels=self.n_treatment_levels,
            _groups=_subgroups(inverse, first.size, idx),
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


def _subgroups(inverse: np.ndarray, size: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grouping of the rows ``idx`` picks from rows grouped by
    ``inverse`` into ``size`` groups in byte order: ``(first, inverse)``
    as :func:`_distinct_rows` gives them on the picked rows.  The picked
    groups keep their byte order, so ranking them is enough."""
    present, sub = _distinct_codes(inverse[idx], size)
    first = np.full(present.size, idx.size)
    np.minimum.at(first, sub, np.arange(idx.size))
    return first, sub


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


# Data lines read per chunk.  Each chunk's new lines are coded with a
# fixed number of array operations, so a larger chunk spreads their
# overhead, but every array they make is O(chunk).  At 4,096 rows a
# 5k-row cohort file's load peaked at 2.4 MB of traced memory against
# 1.1 MB at 1,024, while 50k rows loaded only about 1.5 ms faster (on a
# 2-vCPU machine).  Repeated lines are dropped as they are read, so a
# chunk holds only its new lines' text.  Rows of quoted text are read
# half as many at a time (see ``_code_rows``).
_CHUNK_ROWS = 1024

# Flags of a distinct token, from the checks of one column kind.
_MISSING, _UNPARSEABLE, _OUT_OF_RANGE = 1, 2, 4

# A cell of at most this many bytes is coded by an integer key.
_KEY_BYTES = 8


class _TokenCodes(dict):
    """Raw cell text -> integer code; an unseen text gets the next code."""

    def __missing__(self, token: str) -> int:
        self[token] = code = len(self)
        return code


def _code_rows(reader, width: int, lut: _TokenCodes):
    """Code the cells of each row of ``reader`` as indices into ``lut``.

    Returns ``(codes, short)``: an ``(rows, width)`` int32 array, and
    ``(row, fields)`` for the first row whose field count is not
    ``width`` (None if there is none).  Reading stops at that row's
    chunk, and ``codes`` holds only the rows before it.

    The reader's rows are lists, which the garbage collector tracks.  A
    chunk of ``_CHUNK_ROWS // 2`` rows (512) lets them die before a
    collection promotes them: with 1,024-row chunks, full collections
    over the promoted rows made a fully quoted 50k-row file load in
    132 ms against 121 ms on a 2-vCPU machine.
    """
    chunks = []
    short = None
    read = 0
    while short is None and (rows := list(islice(reader, max(_CHUNK_ROWS // 2, 1)))):
        lengths = list(map(len, rows))
        if lengths.count(width) != len(rows):
            k = next(k for k, m in enumerate(lengths) if m != width)
            short = (read + k + 1, lengths[k])
            rows = rows[:k]
        read += len(rows)
        flat = chain.from_iterable(rows)
        chunks.append(np.fromiter(map(lut.__getitem__, flat), np.int32, len(rows) * width))
    codes = np.concatenate(chunks) if chunks else np.empty(0, np.int32)
    return codes.reshape(-1, width), short


def _code_cells(raw: bytes, start: np.ndarray, size: np.ndarray, lut: _TokenCodes) -> np.ndarray:
    """Code the cells ``raw[start:start + size]`` as indices into ``lut``.

    A cell of at most ``_KEY_BYTES`` bytes is keyed by its bytes, padded
    with zeros to 1, 2, 4 or 8 bytes and read as one unsigned integer;
    the text holds no NUL, so cells of different lengths get different
    keys.  The distinct keys are found once and each is coded by its
    text, so ``lut`` is looked up once per distinct key; the cells then
    read their codes from a table, indexed by the key itself when keys
    have 1 or 2 bytes.  A longer cell is coded by its own bytes, one
    lookup each.
    """
    codes = np.empty(start.size, np.int32)
    keyed = slice(None)
    long = size > _KEY_BYTES
    if long.any():
        at = np.flatnonzero(long)
        spans = zip(start[at].tolist(), (start[at] + size[at]).tolist())
        codes[at] = [lut[raw[i:j].decode()] for i, j in spans]
        keyed = np.flatnonzero(~long)
        start, size = start[keyed], size[keyed]
    if not start.size:
        return codes
    nbytes = 1 << (max(int(size.max()), 1) - 1).bit_length()  # 1, 2, 4 or 8
    offsets = np.arange(nbytes)
    padded = np.frombuffer(raw + bytes(nbytes), np.uint8)[start[:, None] + offsets]
    padded[offsets >= size[:, None]] = 0
    dtype = np.dtype(f"u{nbytes}")
    keys = padded.view(dtype).ravel()
    if nbytes <= 2:
        present = np.zeros(1 << 8 * nbytes, bool)
        present[keys] = True
        distinct = slots = np.flatnonzero(present)
    else:  # each key becomes the index of its distinct key
        distinct, keys = np.unique(keys, return_inverse=True)
        slots = np.arange(distinct.size)
    packed = distinct.astype(dtype).tobytes()
    table = np.zeros(slots[-1] + 1, np.int32)
    table[slots] = [lut[packed[i : i + nbytes].rstrip(b"\0").decode()]
                    for i in range(0, len(packed), nbytes)]
    codes[keyed] = table[keys]
    return codes


def _code_new_lines(new: list[str], width: int, limit: int, lut: _TokenCodes):
    """Code the cells of the distinct lines ``new`` (see :func:`_code_lines`).

    Returns ``(codes, stop, got)``: a ``(stop, width)`` int32 array of
    the cell codes of ``new[:stop]``; the index of the first line that
    ends the line path (``len(new)`` if none does); and that line's
    field count if it has the wrong number of fields, or None if it
    holds a quote, a NUL or more than ``limit`` characters.
    """
    text = "".join(new)
    chars = np.fromiter(map(len, new), np.int64, len(new))
    ends = np.cumsum(chars)  # each line's end in ``text``, in characters
    stop = len(new)
    for special in '"\0':
        at = text.find(special)
        if at >= 0:
            stop = min(stop, int(np.searchsorted(ends, at, side="right")))
    over = np.flatnonzero(chars[:stop] > limit)
    if over.size:
        stop = int(over[0])
    if not stop:
        return np.empty((0, width), np.int32), stop, None
    raw = text.encode()
    data = np.frombuffer(raw, np.uint8)
    if data.size != len(text):  # not ASCII: ends in characters -> in bytes
        ends = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)[ends]
    # One separator pass over the lines before ``stop``: every comma, and
    # each line's start and the end of its text before its line end.
    ends = ends[:stop]
    data = data[: ends[-1]]
    commas = np.flatnonzero(data == ord(","))
    starts = np.concatenate([[0], ends[:-1]])
    last = data[ends - 1]
    lf = last == ord("\n")
    crlf = lf & (chars[:stop] > 1) & (data[np.maximum(ends - 2, 0)] == ord("\r"))
    stripped = ends - (lf | (last == ord("\r"))) - crlf
    fields = np.diff(np.searchsorted(commas, stripped), prepend=0) + 1
    fields[stripped == starts] = 0  # an empty line has no fields
    got = None
    wrong = np.flatnonzero(fields != width)
    if wrong.size:
        stop = int(wrong[0])
        got = int(fields[stop])
    # Each line before ``stop`` has ``width - 1`` commas, so its cells
    # start after its start and each comma, and end at each comma and
    # its stripped end.
    inner = commas[: stop * (width - 1)].reshape(stop, width - 1)
    start = np.empty((stop, width), np.int64)
    start[:, 0] = starts[:stop]
    np.add(inner, 1, out=start[:, 1:])
    size = np.empty((stop, width), np.int64)
    size[:, :-1] = inner
    size[:, -1] = stripped[:stop]
    size -= start
    del commas, inner  # the cells' bounds replace them
    codes = _code_cells(raw, start.ravel(), size.ravel(), lut)
    return codes.reshape(stop, width), stop, got


def _code_lines(fh, width: int, lut: _TokenCodes):
    """Code the data lines left on ``fh``, each distinct line once.

    Opened with ``newline=""``, a file yields lines that end at ``\\n``,
    ``\\r`` or ``\\r\\n``, which is where ``csv.reader`` ends a record
    that holds no quote character.  The lines are read in chunks of
    ``_CHUNK_ROWS``.  One dict maps each distinct line's text to the row
    where it first occurs, one ``setdefault`` per row, and the lines are
    numbered in first-seen order.  The lines of a chunk seen for the
    first time are coded together with array operations
    (:func:`_code_new_lines`): one search of their joined text finds the
    first one that ``csv.reader`` must parse itself, one pass over its
    bytes finds every comma and so each line's field count (an empty
    line has no fields) and each cell's bytes, and the cells are coded
    into ``lut`` by their bytes (:func:`_code_cells`).  A line that
    ``csv.reader`` must parse stops the line path: one with a quote
    character, a NUL (which the reader of Python 3.10 rejects) or more
    characters than the reader's field size limit (it may hold a field
    the reader rejects).

    Returns ``(codes, rows, short, rest)``: an ``(lines, width)`` int32
    array of cell codes, one row per distinct line; each data row's
    line; ``(row, fields)`` for the first row whose field count is not
    ``width`` (None if there is none); and the lines from the first one
    the reader must parse, which the caller hands to the reader with
    the rest of ``fh`` (None if there is none, or if a short row comes
    first).  Reading stops at the short row or at that line, so
    ``rows`` holds only the rows before it.
    """
    limit = csv.field_size_limit()
    lines: dict[str, int] = {}
    chunks, rows = [], []
    short = rest = None
    read = 0
    while short is None and rest is None:
        # Each row's line, as the row where that line first occurs.  A
        # repeated line's text is dropped as soon as it is looked up.
        seen = len(lines)
        line_of = np.fromiter(map(lines.setdefault, islice(fh, _CHUNK_ROWS), count(read)), np.int64)
        if not line_of.size:
            break
        new = list(islice(reversed(lines), len(lines) - seen))[::-1]
        codes, stop, got = _code_new_lines(new, width, limit, lut)
        if stop < len(new):
            # The first row of the line that ends the line path.
            end = lines[new[stop]] - read
            if got is None:
                first_row = {row: line for line, row in lines.items()}
                rest = [first_row[row] for row in line_of[end:].tolist()]
            else:
                short = (read + end + 1, got)
            line_of = line_of[:end]
        read += len(line_of)
        chunks.append(codes)
        rows.append(line_of)
    codes = np.concatenate(chunks) if chunks else np.empty((0, width), np.int32)
    rows = np.concatenate(rows) if rows else np.empty(0, np.int64)
    # Number the lines in first-seen order.
    rows = (np.cumsum(rows == np.arange(rows.size)) - 1)[rows]
    return codes, rows, short, rest


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
    column.  A UTF-8 byte-order mark before the header is ignored.

    The rows are parsed in bulk, once per distinct data line: the lines
    are read in chunks, and the lines of a chunk seen for the first time
    are tokenised together with array operations, each cell becoming an
    integer code for its raw text (see :func:`_code_lines`).  From the
    first line that holds a quote character on, ``csv.reader`` parses
    the rest of the file, and each of its rows is coded as a line of its
    own.  Each distinct text in a used column is then parsed once per
    column kind (binary, level or MET score), and the codes index those
    results to give W, A, Y and the missing and bad cells of each
    distinct line.  The first bad row is the first that has the wrong
    number of fields, an unparseable cell, or, if no field is missing, a
    level or MET score out of range.  Only that row is checked cell by
    cell again, so the error names the same row and column as a
    row-by-row parse would.  A file that is not UTF-8 text, or that the
    CSV reader rejects (a field over the reader's size limit), raises
    :class:`ValidationError` naming the file.

    The dataset is handed the grouping of its covariate rows
    (:func:`_distinct_rows`), computed on the distinct lines rather than
    on every row, and is built from the checked arrays without checking
    them again (``Dataset._checked``).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        before = 0  # lines read before the reader's first
        try:
            header = [h.strip() for h in next(reader)]
            names, treatment_column = _columns(path, header, covariate_names, treatment_column)
            lut = _TokenCodes()
            codes, rows, short, rest = _code_lines(fh, len(header), lut)
            if rest is not None:
                before = reader.line_num + rows.size
                reader = csv.reader(chain(rest, fh))
                quoted, short = _code_rows(reader, len(header), lut)
                if short is not None:
                    short = (rows.size + short[0], short[1])
                rows = np.concatenate([rows, len(codes) + np.arange(len(quoted))])
                codes = np.concatenate([codes, quoted])
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
            ) from None
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {before + reader.line_num}: {exc}") from None
    tokens = list(lut)

    w_idx = [header.index(c) for c in names]
    a_idx = header.index(treatment_column)
    y_idx = header.index(OUTCOME_COLUMN)
    p = len(names)
    kind = "met" if treatment_column == "LTPA_MET" else "level"
    # Codes, flags and values below are per distinct line; ``rows`` maps
    # each data row to its line.
    binary_codes = codes[:, w_idx + [y_idx]]
    a_codes = codes[:, a_idx]
    b_value, b_flags = _token_table(tokens, binary_codes, "binary", n_treatment_levels)
    a_value, a_flags = _token_table(tokens, a_codes, kind, n_treatment_levels)
    flags = np.bitwise_or.reduce(b_flags[binary_codes], axis=1) | a_flags[a_codes]
    missing = (flags & _MISSING) > 0
    bad = ((flags & _UNPARSEABLE) > 0) | (((flags & _OUT_OF_RANGE) > 0) & ~missing)

    if bad.any():
        i = int(np.argmax(bad[rows]))
        cells = [tokens[c] for c in codes[rows[i], w_idx + [a_idx, y_idx]]]
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
    # Each kept row's position among the kept lines, which stay in
    # first-seen order: a line first occurs where the running maximum of
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
