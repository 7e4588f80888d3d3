import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalrules import Dataset, ValidationError, categorize_met, load_csv, write_csv
from causalrules import ingest
from causalrules.ingest import DEFAULT_COVARIATES, MET_BREAKS, _distinct_rows, _parse_cell
from oracles import void_view_groups


def test_categorize_met_band_edges():
    # zero is its own category; bands are (0,10], (10,20], (20,40], (40,60], (60,inf)
    cases = [
        (0.0, 0), (0.5, 1), (10.0, 1), (10.5, 2), (20.0, 2), (25.0, 3),
        (40.0, 3), (41.0, 4), (60.0, 4), (60.0001, 5), (500.0, 5),
    ]
    for met, want in cases:
        assert categorize_met(met) == want, met


def test_categorize_met_rejects_bad_values():
    for bad in (-1.0, -0.0001, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            categorize_met(bad)


def test_categorize_met_monotone_and_onto():
    rng = np.random.default_rng(0)
    mets = np.sort(rng.uniform(0.0, 90.0, size=300))
    cats = [categorize_met(m) for m in mets]
    assert all(b >= a for a, b in zip(cats, cats[1:]))
    assert {categorize_met(m) for m in (0, 5, 15, 30, 50, 70)} == set(range(6))
    assert len(MET_BREAKS) == 4


def test_default_schema():
    assert len(DEFAULT_COVARIATES) == 15
    assert len(set(DEFAULT_COVARIATES)) == 15


def test_dataset_validation():
    w = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValidationError, match="row counts"):
        Dataset(w=w, a=np.array([0]), y=np.array([0, 1]), covariate_names=("a", "b"))
    with pytest.raises(ValidationError, match="binary"):
        Dataset(w=np.array([[0, 2]]), a=np.array([0]), y=np.array([0]),
                covariate_names=("a", "b"))
    with pytest.raises(ValidationError, match="0..5"):
        Dataset(w=w, a=np.array([0, 6]), y=np.array([0, 1]), covariate_names=("a", "b"))
    with pytest.raises(ValidationError, match="unique"):
        Dataset(w=w, a=np.array([0, 1]), y=np.array([0, 1]), covariate_names=("a", "a"))


@pytest.mark.parametrize("column, values, match", [
    ("w", [[0.5], [1.0]], "binary"),
    ("w", [[256], [1]], "binary"),
    ("w", [[np.nan], [1.0]], "binary"),
    ("y", [0.7, 1], "binary"),
    ("y", [-255, 1], "binary"),
    ("a", [0.9, 1], "integers"),
    ("a", [np.inf, 1], "integers"),
    ("a", [2.0 ** 64, 1], "0..5"),
    ("a", ["1", "2"], "numeric"),
])
def test_dataset_rejects_values_that_a_cast_would_change(column, values, match):
    """Values are checked before the cast to int8/int64, which would
    truncate or wrap them into valid-looking ones."""
    columns = {"w": [[0], [1]], "a": [0, 1], "y": [0, 1], column: values}
    with pytest.raises(ValidationError, match=match):
        Dataset(**columns, covariate_names=("x",))


def test_dataset_accepts_integral_floats_and_booleans():
    ds = Dataset(w=np.array([[True], [False]]), a=[0.0, 5.0], y=[1.0, 0.0],
                 covariate_names=("x",))
    assert ds.w.dtype == np.int8 and ds.a.dtype == np.int64 and ds.y.dtype == np.int64
    assert ds.w.ravel().tolist() == [1, 0] and ds.a.tolist() == [0, 5]
    assert ds.y.tolist() == [1, 0]


def test_dataset_level_counts_and_take():
    ds = Dataset(
        w=np.array([[0], [1], [1], [0]]),
        a=np.array([0, 2, 2, 5]),
        y=np.array([0, 1, 1, 0]),
        covariate_names=("x",),
    )
    assert np.bincount(ds.a, minlength=ds.n_treatment_levels).tolist() == [1, 0, 2, 0, 0, 1]
    sub = ds.take(np.array([2, 0, 2]))
    assert sub.n == 3
    assert sub.a.tolist() == [2, 0, 2]


# The golden samples (tests/test_golden.py): system -> (rows, seed).
_GOLDEN_SAMPLES = {
    "cohort": (1500, 1),
    "no_violation": (600, 2),
    "interaction": (600, 3),
    "structural_zero": (800, 4),
    "null_effect": (600, 5),
}


def _assert_same_dataset(got, want):
    """Equal values, dtypes, layout, drop count and grouping."""
    assert got == want
    assert type(got.covariate_names) is tuple
    for name in ("w", "a", "y"):
        x, z = getattr(got, name), getattr(want, name)
        assert x.dtype == z.dtype and x.flags.c_contiguous, name
    assert got.dropped_rows == want.dropped_rows
    assert got._groups is not None
    for x, z in zip(got._w_groups(), want._w_groups()):
        assert x.dtype == z.dtype and np.array_equal(x, z)


@pytest.mark.parametrize("system", sorted(_GOLDEN_SAMPLES))
def test_checked_datasets_equal_the_public_path(tmp_path, system):
    """The loader, the simulator and ``take`` build their datasets
    without checking them again; each equals the dataset the public
    constructor checks and groups from the same arrays."""
    from causalrules.dgps import DGP_REGISTRY
    from causalrules.diagnostics import generate

    def public(ds):
        return Dataset(w=ds.w.tolist(), a=ds.a.tolist(), y=ds.y.tolist(),
                       covariate_names=list(ds.covariate_names),
                       n_treatment_levels=ds.n_treatment_levels,
                       dropped_rows=ds.dropped_rows)

    drawn = generate(DGP_REGISTRY[system](), *_GOLDEN_SAMPLES[system])
    path = tmp_path / "sample.csv"
    write_csv(drawn, path)
    loaded = load_csv(path, n_treatment_levels=drawn.n_treatment_levels)
    rows = np.random.default_rng(0).integers(-drawn.n, drawn.n, drawn.n)
    for ds in (drawn, loaded, drawn.take(rows), loaded.take(rows)):
        _assert_same_dataset(ds, public(ds))


def test_the_edges_keep_the_checks_their_values_do_not_pass(tmp_path):
    """The loader and the simulator check their own values where they make
    them, and still make the dataset checks those do not cover, with the
    public constructor's messages: repeated covariate names, fewer than
    two levels, and a MET category above ``K - 1``."""
    from causalrules import GeneratingDistribution, make_outcome_model, make_treatment_model
    from causalrules.diagnostics import generate

    path = tmp_path / "met.csv"
    path.write_text("X,LTPA_MET,Y\n1,0,1\n0,61,0\n")
    cases = [
        (dict(covariate_names=["X", "X"]), "covariate names must be unique"),
        (dict(n_treatment_levels=1), "n_treatment_levels must be at least 2"),
        (dict(n_treatment_levels=3), "treatment levels must lie in 0..2, found range [0, 5]"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValidationError) as info:
            load_csv(path, **kwargs)
        assert str(info.value) == message
    for names, coef, k, message in [
        (("x", "x"), np.zeros((2, 3)), 3, "covariate names must be unique"),
        (("x",), np.zeros((0, 2)), 1, "n_treatment_levels must be at least 2"),
    ]:
        gen = GeneratingDistribution(
            np.eye(2, len(names), dtype=int), np.array([0.5, 0.5]), names,
            make_treatment_model(names, coef),
            make_outcome_model(names, k, np.zeros(len(names) + k)),
        )
        with pytest.raises(ValidationError) as info:
            generate(gen, 10)
        assert str(info.value) == message


@pytest.mark.parametrize("p", [0, 1, 15, 62, 63, 64, 130])
def test_distinct_rows_equals_the_void_view_oracle(p):
    """The packed-key grouping is the byte-sorted grouping of the oracle,
    values and int64 dtype: with fewer and more rows than the ``2**p``
    possible ones, on duplicated and shuffled rows, in C and Fortran
    order.  Past 62 columns it packs more than once."""
    rng = np.random.default_rng(p)
    for n in (1, 3, 500, *([2 ** p + 7] if p <= 15 else [])):
        for distinct in (1, 5, n):
            base = rng.integers(0, 2, (distinct, p), dtype=np.int8)
            x = base[rng.integers(0, distinct, n)]
            for layout in (x, np.asfortranarray(x)):
                for got, want in zip(_distinct_rows(layout), void_view_groups(layout)):
                    assert got.dtype == want.dtype == np.int64
                    np.testing.assert_array_equal(got, want)


def _rows_with_repeats(p):
    rng = np.random.default_rng(p)
    return Dataset(w=rng.integers(0, 2, (40, p)), a=rng.integers(0, 3, 40),
                   y=rng.integers(0, 2, 40), covariate_names=[f"x{j}" for j in range(p)],
                   n_treatment_levels=3)


@pytest.mark.parametrize("p, rows", [
    pytest.param(4, np.repeat(np.arange(40), 3), id="duplicated"),
    pytest.param(4, np.random.default_rng(1).permutation(40), id="shuffled"),
    pytest.param(4, np.arange(3, 40, 7), id="subset"),
    pytest.param(4, np.array([-1, 5, -40, 5, 0, -2]), id="negative"),
    pytest.param(4, np.random.default_rng(2).integers(0, 40, 40), id="resample"),
    pytest.param(0, np.array([3, 1, 3, 0]), id="no-covariates"),
    pytest.param(15, np.random.default_rng(3).integers(0, 40, 60), id="wide"),
])
def test_take_hands_the_grouping_of_the_rows_it_picks(p, rows):
    """``take`` maps its dataset's grouping through the indices; that
    equals grouping the picked rows afresh, for a take of a take too."""
    ds = _rows_with_repeats(p)
    sub = ds.take(rows)
    again = sub.take(rows[::-1] % sub.n)
    for got, w in ((sub, ds.w[rows]), (again, ds.w[rows][rows[::-1] % sub.n])):
        assert got._groups is not None
        for x, z in zip(got._groups, void_view_groups(w)):
            assert x.dtype == z.dtype and np.array_equal(x, z)


@pytest.mark.parametrize("rows, message", [
    ([], "dataset has no rows"),
    (3, "covariate matrix must be two-dimensional"),
    ([[0, 1]], "covariate matrix must be two-dimensional"),
    ([0.7, 1.2], "row indices must be integers, got dtype float64"),
    ([True, False, True], "row indices must be integers, got dtype bool"),
    ([45], "row indices must lie in -40..39"),
    ([0, 40], "row indices must lie in -40..39"),
    ([-41, 3], "row indices must lie in -40..39"),
])
def test_take_rejects_what_the_constructor_rejects(rows, message):
    """No rows, or indices that would not give a row matrix, raise the
    errors that building a dataset of those rows raises; so do indices
    that would pick rows without naming them: floats, which would be
    truncated, a boolean mask, which would be read as rows 1, 0 and 1, and
    rows outside ``-n..n-1``."""
    with pytest.raises(ValidationError, match=message):
        _rows_with_repeats(4).take(rows)


def test_csv_round_trip(tmp_path, data_nv):
    path = tmp_path / "cohort.csv"
    write_csv(data_nv, path)
    back = load_csv(path)
    assert back == data_nv
    assert back.covariate_names == data_nv.covariate_names


def test_load_csv_drops_and_counts_missing_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "W1,A,Y\n"
        "1,2,1\n"
        ",3,0\n"        # missing covariate
        "0,NA,1\n"      # missing treatment
        "1,1,.\n"       # missing outcome
        "0,0,0\n"
    )
    ds = load_csv(path)
    assert ds.n == 2
    assert ds.dropped_rows == 3
    assert ds.a.tolist() == [2, 0]


def test_load_csv_names_row_and_column_on_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("W1,A,Y\n1,2,1\n2,1,0\n")
    with pytest.raises(ValidationError, match=r"row 2, column 'W1'"):
        load_csv(path)
    path.write_text("W1,A,Y\n1,2,1\n1,1,yes\n")
    with pytest.raises(ValidationError, match=r"row 2, column 'Y'"):
        load_csv(path)
    path.write_text("W1,A,Y\n1,2,1\n1,9,1\n")
    with pytest.raises(ValidationError, match=r"row 2, column 'A'"):
        load_csv(path)


def test_load_csv_met_conversion(tmp_path):
    path = tmp_path / "met.csv"
    path.write_text("W1,LTPA_MET,Y\n1,0,1\n0,35.5,0\n1,61,1\n")
    ds = load_csv(path)
    assert ds.a.tolist() == [0, 3, 5]
    path.write_text("W1,LTPA_MET,Y\n1,-2,1\n")
    with pytest.raises(ValidationError, match=r"row 1, column 'LTPA_MET'"):
        load_csv(path)


def test_load_csv_treatment_column_rules(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("W1,A,LTPA_MET,Y\n1,1,5,1\n")
    with pytest.raises(ValidationError, match="exactly one treatment column"):
        load_csv(path)
    ds = load_csv(path, covariate_names=("W1",), treatment_column="A")
    assert ds.a.tolist() == [1]
    path.write_text("W1,Y\n1,1\n")
    with pytest.raises(ValidationError, match="exactly one treatment column"):
        load_csv(path)


def test_load_csv_all_rows_dropped(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("W1,A,Y\n,1,1\nNA,0,0\n")
    with pytest.raises(ValidationError, match="all 2 data rows"):
        load_csv(path)


def test_load_csv_explicit_covariate_subset(tmp_path):
    path = tmp_path / "sub.csv"
    path.write_text("W1,W2,A,Y\n1,0,1,1\n0,1,2,0\n")
    ds = load_csv(path, covariate_names=("W2",))
    assert ds.covariate_names == ("W2",)
    assert ds.w[:, 0].tolist() == [0, 1]
    with pytest.raises(ValidationError, match="not in header"):
        load_csv(path, covariate_names=("W9",))


def test_load_csv_rejects_infinite_levels(tmp_path):
    path = tmp_path / "inf.csv"
    for token in ("inf", "-inf", "NAN"):
        path.write_text(f"W1,A,Y\n1,2,1\n1,{token},1\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"row 2, column 'A': treatment level must be an integer, got {token!r}"
        )


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffW1,A,Y\n1,2,1\n".encode())
    assert load_csv(path).covariate_names == ("W1",)
    path.write_bytes("\ufeffA,W1,Y\n3,0,1\n".encode())
    ds = load_csv(path)
    assert ds.covariate_names == ("W1",)
    assert ds.a.tolist() == [3]


def test_load_csv_undecodable_or_oversized_input_is_a_validation_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"W1,A,Y\n1,2,1\n0,\xff,0\n")
    with pytest.raises(ValidationError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"
    path = tmp_path / "huge.csv"
    path.write_text('W1,A,Y\n1,2,1\n0,"' + "x" * (csv.field_size_limit() + 1) + '",0\n')
    with pytest.raises(ValidationError) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}: line 3: field larger than field limit")


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("W1,A,Y\n")
    with pytest.raises(ValidationError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: no data rows"


def _line_path(path, covariate_names=None, n_treatment_levels=6):
    """``load_csv`` on the line path, whatever the file."""
    return ingest._load_lines(path, covariate_names, None, n_treatment_levels)


def test_load_csv_first_bad_row_across_chunks(tmp_path):
    path = tmp_path / "chunks.csv"
    path.write_text("W1,A,Y\n1,2,1\n,1,0\n0,3,1\n1,1,1\n1,7,0\n0,yes,1\n")
    with pytest.raises(ValidationError, match=r"^row 5, column 'A': level 7 outside"):
        load_csv(path)
    path.write_text("W1,A,Y\n1,2,1\n1,1,1\n0,3,1\n1,1\n2,1,0\n")
    with pytest.raises(ValidationError, match=r"^row 4: expected 3 fields, got 2$"):
        load_csv(path)
    path.write_text("W1,A,Y\n1,2,1\n1,1,1\n0,3,1\n1,1,1\n1,4,0\n")
    ds = load_csv(path)
    lines = _line_path(path)  # a fixed-width file: load_csv takes the array path
    assert ds.a.tolist() == lines.a.tolist() == [2, 1, 3, 1, 4]


def test_load_csv_rejects_a_read_column_named_twice_or_unnamed(tmp_path):
    """Checked before any data row is read: the bad rows below are never reached."""
    path = tmp_path / "dup.csv"
    for header, names, message in [
        ("W1,A,Y,Y", None, "column 'Y' appears 2 times in the header"),
        ("W1,A,A,Y", None, "column 'A' appears 2 times in the header"),
        ("W1,W2,W1,A,Y", None, "column 'W1' appears 2 times in the header"),
        ("W1,A,Y,W1", ("W1",), "column 'W1' appears 2 times in the header"),
        ("W1,A,Y,", None, "column 4 of the header has an empty name"),
        ("W1, ,A,Y", None, "column 2 of the header has an empty name"),
    ]:
        path.write_text(f"{header}\n1,2,1\n0,1\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path, covariate_names=names)
        assert str(info.value) == f"{path}: {message}"
    # Columns that are not read may repeat or have no name.
    path.write_text("W1,Z,Z,,A,Y\n1,a,b,,2,1\n0,,,,1,0\n")
    ds = load_csv(path, covariate_names=("W1",))
    assert ds.w.ravel().tolist() == [1, 0] and ds.a.tolist() == [2, 1]


def _count_grouped_rows(monkeypatch) -> list[int]:
    """The row counts that ``ingest._distinct_rows`` is called on, from now on."""
    counts = []
    real = ingest._distinct_rows

    def counting(x):
        counts.append(x.shape[0])
        return real(x)

    monkeypatch.setattr(ingest, "_distinct_rows", counting)
    return counts


def test_load_csv_parses_each_distinct_line_once(tmp_path, monkeypatch):
    path = tmp_path / "repeats.csv"
    path.write_text("W1,A,Y\n" + "1,2,1\n" * 3 + "0,1,0\n1,2,1\n" * 50)
    grouped = _count_grouped_rows(monkeypatch)
    ds = _line_path(path)  # a fixed-width file: load_csv takes the array path
    assert grouped == [2]
    assert ds.n == 103 and ds.a.tolist() == [2, 2, 2] + [1, 2] * 50
    assert [g.tolist() for g in ds._groups] == [[3, 0], [1, 1, 1] + [0, 1] * 50]


def test_quoted_rows_are_grouped_as_their_unquoted_copies(tmp_path, monkeypatch):
    """The line path keys a row by its cells, not by its text, so a fully
    quoted copy of a file loads as the file does and groups only its
    distinct rows."""
    rows = [[1, 0, 2, 1], [0, 1, 1, 0], [1, "", 2, 1], [1, 0, 3, 1]] * 40
    grouped = _count_grouped_rows(monkeypatch)
    loaded = []
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path = tmp_path / f"quoting{quoting}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=quoting)
            writer.writerow(["W1", "W2", "A", "Y"])
            writer.writerows(rows)
        loaded.append(_line_path(path))
    plain, quoted = loaded
    assert '"1","0","2","1"' in path.read_text()
    _assert_same_dataset(quoted, plain)
    assert plain.n == 120 and plain.dropped_rows == 40
    assert grouped == [3, 3]


_TREATMENTS = "('A', 'LTPA_MET')"


@pytest.mark.parametrize("text, options, message", [
    ("", {}, "{path}: empty file"),
    ("\ufeff", {}, "{path}: empty file"),
    ("W1,Y\n1,1\n", {}, f"{{path}}: expected exactly one treatment column of {_TREATMENTS}, "
                        "found none"),
    ("W1,A,LTPA_MET,Y\n1,1,5,1\n", {},
     f"{{path}}: expected exactly one treatment column of {_TREATMENTS}, "
     "found ['A', 'LTPA_MET']"),
    ("W1,A,Y\n1,1,1\n", {"treatment_column": "B"},
     f"treatment_column must be one of {_TREATMENTS}, got 'B'"),
    ("W1,A,Y\n1,1,1\n", {"treatment_column": "LTPA_MET"},
     "{path}: missing treatment column 'LTPA_MET'"),
    ("W1,A\n1,1\n", {}, "{path}: missing outcome column 'Y'"),
    ("A,Y\n1,1\n", {}, "{path}: no covariate columns"),
    ("W1,A,Y\n1,1,1\n", {"covariate_names": ()}, "{path}: no covariate columns"),
], ids=["empty", "bom-only", "no-treatment", "both-treatments", "bad-treatment-argument",
        "missing-treatment", "missing-outcome", "no-covariates", "no-covariates-named"])
def test_load_csv_header_messages(tmp_path, text, options, message):
    """Each message about the header, through ``load_csv`` and the line path."""
    path = tmp_path / "header.csv"
    path.write_bytes(text.encode())
    for load in (lambda: load_csv(path, **options),
                 lambda: ingest._load_lines(path, options.get("covariate_names"),
                                            options.get("treatment_column"), 6)):
        with pytest.raises(ValidationError) as info:
            load()
        assert str(info.value) == message.format(path=path)


def test_load_csv_oversized_unquoted_field_and_short_rows_in_file_order(tmp_path):
    """An unquoted field over the reader's size limit raises the reader's
    error unless a short row comes first."""
    limit = csv.field_size_limit()
    big = "x" * (limit + 1)
    path = tmp_path / "huge.csv"
    path.write_text(f"W1,A,Y\n1,2,1\n1,2,1\n0,{big},0\n1,1\n")
    with pytest.raises(ValidationError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: line 4: field larger than field limit ({limit})"
    path.write_text(f"W1,A,Y\n1,2,1\n1,1\n0,{big},0\n")
    with pytest.raises(ValidationError) as info:
        load_csv(path)
    assert str(info.value) == "row 2: expected 3 fields, got 2"
    # A line longer than the limit whose fields all fit still loads.
    path.write_text(f"W1,Z,A,Y\n1,{big[1:]},2,1\n0,{big[1:]},1,0\n")
    ds = load_csv(path, covariate_names=("W1",))
    assert ds.a.tolist() == [2, 1]


def test_load_csv_hands_a_nul_to_the_csv_reader(tmp_path):
    path = tmp_path / "nul.csv"
    path.write_text("W1,Z,A,Y\n1,a\0b,2,1\n")
    try:
        list(csv.reader(["a\0b\n"]))
    except csv.Error as exc:  # the reader of Python 3.10 rejects a NUL
        with pytest.raises(ValidationError) as info:
            load_csv(path, covariate_names=("W1",))
        assert str(info.value) == f"{path}: line 2: {exc}"
    else:
        assert load_csv(path, covariate_names=("W1",)).a.tolist() == [2]


def _oracle_load(path, covariate_names=None, n_treatment_levels=6):
    """The row-by-row parse that ``load_csv`` replaced: ``(w, a, y, dropped)``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = list(reader)
    treatment = "LTPA_MET" if "LTPA_MET" in header else "A"
    names = tuple(covariate_names or [c for c in header if c not in (treatment, "Y")])
    w_idx = [header.index(c) for c in names]
    a_idx, y_idx = header.index(treatment), header.index("Y")
    w_rows, a_vals, y_vals, dropped = [], [], [], 0
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValidationError(f"row {i}: expected {len(header)} fields, got {len(row)}")
        cells = [_parse_cell(row[j], i, names[k], "binary") for k, j in enumerate(w_idx)]
        a_cell = _parse_cell(row[a_idx], i, treatment, "met" if treatment == "LTPA_MET" else "level")
        y_cell = _parse_cell(row[y_idx], i, "Y", "binary")
        if any(c is None for c in cells) or a_cell is None or y_cell is None:
            dropped += 1
            continue
        if treatment == "LTPA_MET":
            try:
                a_val = categorize_met(a_cell)
            except ValidationError as exc:
                raise ValidationError(f"row {i}, column 'LTPA_MET': {exc}") from None
        else:
            a_val = int(a_cell)
            if not 0 <= a_val < n_treatment_levels:
                raise ValidationError(
                    f"row {i}, column 'A': level {a_val} outside 0..{n_treatment_levels - 1}"
                )
        w_rows.append([int(c) for c in cells])
        a_vals.append(a_val)
        y_vals.append(int(y_cell))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    if not w_rows:
        raise ValidationError(f"{path}: all {dropped} data rows were dropped as incomplete")
    return w_rows, a_vals, y_vals, dropped


# Cell pools per column, weighted towards valid cells so that many
# generated files load.  Besides one-byte cells they hold longer cells,
# non-ASCII cells ("１" is a digit that ``float`` reads), tabs, and cells
# that differ as text but parse to the same value.
_MISSING_CELLS = ["", "NA", " NA ", ".", "nan", " NaN"]
_POOLS = {
    "W": ["0", "1"] * 8 + [" 1 ", "1.0", "0.0", "2", "yes", "inf", "\t1", "1.000000", "１",
                           " 1        ", "0.000000001", "é"] + _MISSING_CELLS,
    "A": [str(k) for k in range(6)] * 4 + ["2.0", " 3 ", "6", "-1", "1.5", "inf", "x", "３",
                                           "4.0000000", " 2\t"] + _MISSING_CELLS,
    "LTPA_MET": ["0", "0.0", "10", "20", "40", "60", "60.0001", "35.5", " 5 "] * 3
    + ["-2", "inf", "NAN", "x", "35.500000001", "１０"] + _MISSING_CELLS,
    "Y": ["0", "1"] * 8 + ["1.0", "2", "no", "0.000000", "１"] + _MISSING_CELLS,
    "Z": ["junk", "1", "", "é", "１", "a longer junk cell", "\t"],
}


def _quoted(draw, cell):
    """``cell`` in quotes, alone or with a comma or a line break after it."""
    return '"' + cell + draw(st.sampled_from(["", "", "", ",", "\n", "\r\n"])) + '"'


@st.composite
def _csv_files(draw):
    """A CSV text and the covariate names to load it with.  Besides short
    rows and bad cells, the lines mix quoted cells (some with a comma or
    a line break inside), ``\n``, ``\r\n`` and lone ``\r`` terminators,
    blank lines, repeated lines and a last line with no terminator."""
    p = draw(st.integers(1, 3))
    treatment = draw(st.sampled_from(["A", "LTPA_MET"]))
    unused = draw(st.booleans())
    header = draw(st.permutations(
        [f"W{j}" for j in range(p)] + ["Z"] * unused + [treatment, "Y"]
    ))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([0, 0, 8, 30]))  # one cell in this many is quoted
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 40))
        if kind == 0:
            lines.append("")
        elif kind <= 10 and len(lines) > 1:
            lines.append(draw(st.sampled_from(lines[1:])))
        else:
            row = [draw(st.sampled_from(_POOLS[c[0] if c[0] == "W" else c])) for c in header]
            if quoting:
                row = [_quoted(draw, c) if draw(st.integers(1, quoting)) == 1 else c for c in row]
            if kind == 11:
                row = row[:-1]
            lines.append(",".join(row))
    ends = [draw(st.sampled_from([eol] * 6 + ["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.integers(0, 5)) == 0:
        ends[-1] = ""
    names = tuple(c for c in header if c[0] == "W") if unused else None
    return "".join(line + end for line, end in zip(lines, ends)), names


# A repeated first block, then new cells of 3, 2, 10 and 11 bytes, a
# tab, and non-ASCII text in a column that is not read.
_LATER_CELLS = "W1,Z,A,Y\n1,a,2,1\n0,b,1,0\n1,a,2,1\n１,é,３,0\n 1        ,0.000000001,2,1\n\t0,x,4,1\n"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_csv_files())
@example(case=("W1,A,Y\n,9,1\n1,NA,yes\n2,1,0\n", None))  # bad after dropped
@example(case=("W1,junk,A,Y\n1,x,2,1\n0,,1,0\n", ("W1",)))  # unused bad column
# The first quote after some rows, then a repeated line.
@example(case=("W1,A,Y\r\n1,2,1\r\n0,1,0\r\n1,2,1\r\n\"0\",\"3\r\n\",1\r\n1,2,1\r\n", None))
@example(case=("W1,A,Y\r1,2,1\r\r1,2,1\r", None))  # a blank line
@example(case=("W1,A,Y\n,1,1\n1,2,1\n1,2,1\n0,1,0\n", None))  # a repeat, then new W
# Cells of more than one byte, first seen in a later block.
@example(case=(_LATER_CELLS, ("W1",)))
@example(case=("W1,A,Y\n1,2,1\n0,1,0\n1,2,1\n1,2,0.000000001\n", None))
@example(case=("W1,A,Y\n1,2,1\n0,1,0\n1,2,1\né,2,1\n", None))
def test_load_csv_matches_the_row_by_row_oracle(tmp_path_factory, case):
    text, names = case
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_bytes(text.encode())
    try:
        want = _oracle_load(path, names)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            load_csv(path, covariate_names=names)
        assert str(info.value) == str(exc)
        return
    ds = load_csv(path, covariate_names=names)
    w, a, y, dropped = want
    assert ds.w.tolist() == w
    assert ds.a.tolist() == a
    assert ds.y.tolist() == y
    assert ds.dropped_rows == dropped
    assert ds._groups is not None  # handed in by the loader
    for got, want in zip(ds._w_groups(), void_view_groups(ds.w)):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


# One-byte cells per column of a fixed-width file that the array path
# reads, and others that a file may hold: "." is missing, "10" breaks
# the width, and level digits may lie past K.
_FIXED_CELLS = {"W": "01", "A": "0123456789", "LTPA_MET": "0123456789", "Y": "01",
                "Z": "0x #.a;\t"}
_FIXED_OTHERS = {"W": ["2", ".", "x", " "], "A": ["9", ".", "x", "10"], "LTPA_MET": [".", "-"],
                 "Y": ["2", ".", "y"], "Z": []}


@st.composite
def _fixed_width_files(draw):
    """The bytes of a CSV whose lines are mostly one-byte cells, the
    covariate names and the K to load it with.  LF or CRLF lines, with
    or without a byte-order mark, unused columns, LTPA_MET digits,
    covariate subsets, K below 10 with level digits past it, and, in
    one file in three, missing or bad cells, a line end of the other
    kind or an unterminated last line.  Lines repeat."""
    p = draw(st.integers(1, 4))
    k = draw(st.integers(2, 10))
    treatment = draw(st.sampled_from(["A", "LTPA_MET"]))
    covariates = [f"W{j}" for j in range(p)]
    header = draw(st.permutations(
        covariates + [f"Z{j}" for j in range(draw(st.integers(0, 2)))] + [treatment, "Y"]
    ))
    names = None
    if any(c[0] == "Z" for c in header) or draw(st.booleans()):
        names = tuple(draw(st.permutations(covariates))[: draw(st.integers(1, p))])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    dirty = draw(st.integers(0, 2)) == 0
    pools = {}
    for column in ("W", "A", "LTPA_MET", "Y", "Z"):
        cells = list(_FIXED_CELLS[column][: k if column == "A" else None])
        pools[column] = cells * 10 + _FIXED_OTHERS[column] * dirty
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        if lines and draw(st.integers(0, 2)) == 0:
            lines.append(draw(st.sampled_from(lines)))
        else:
            lines.append(",".join(draw(st.sampled_from(pools[c[0] if c[0] in "WZ" else c]))
                                  for c in header))
    ends = [eol] * len(lines)
    if dirty and draw(st.booleans()):
        ends[draw(st.integers(0, len(lines) - 1))] = "\r\n" if eol == "\n" else "\n"
    if dirty and draw(st.booleans()):
        ends[-1] = ""
    text = ",".join(header) + eol + "".join(line + end for line, end in zip(lines, ends))
    bom = "\ufeff" if draw(st.integers(0, 4)) == 0 else ""
    return (bom + text).encode(), names, k


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_fixed_width_files())
@example(case=(b"W1,A,Y\n1,2,1\n0,1,0\n1,2,1\n", None, 6))  # taken
@example(case=(b"W1,A,Y\r\n1,2,1\r\n0,1,0\r\n", None, 6))  # taken, CRLF
@example(case=(b"\xef\xbb\xbfW1,Z,LTPA_MET,Y\n1,x,7,1\n", ("W1",), 2))  # taken
@example(case=(b"W1,A,Y\n1,2,1\n0,1,0", None, 6))  # unterminated
@example(case=(b"W1,A,Y\n1,2,1\n0,.,0\n", None, 6))  # a missing cell
@example(case=(b"W1,A,Y\n1,2,1\n0,7,0\n", None, 6))  # a level past K
@example(case=(b"W1,A,Y\n1,2,1\n0,1,0\r\n", None, 6))  # a CRLF line in an LF file
@example(case=(b"W1,Z,A,Y\n1,\r,2,1\n", ("W1",), 6))  # a line break as an unused cell
@example(case=(b"W1,A,Y\n", None, 6))  # no data rows
@example(case=(b"W1,A,Y\n1,2,1;0,1,0\n", None, 6))  # a cell where a line ends
@example(case=(b"W1,A,Y\n1;2;1\n", None, 6))  # cells where the commas are
@example(case=(b"W1,A,Y\r\r\n1,2,1\r\n", None, 6))  # a blank line after the header
@example(case=(b'W1,Z,A,Y\n1,",2,1\n0,",1,0\n', ("W1",), 6))  # quotes as unused cells
@example(case=(b"W1,Z,A,Y\n1,.,2,1\n", ("W1",), 6))  # a '.' as an unused cell: declined
def test_both_loader_paths_match_the_oracle_on_fixed_width_files(tmp_path_factory, case):
    """On files of one-byte cells, ``load_csv`` and the line path give
    what the row-by-row parse gives, as equal datasets or as the same
    error; the array path gives that dataset too, or declines the file,
    as it does every file that the parse rejects."""
    raw, names, k = case
    path = tmp_path_factory.getbasetemp() / "fixed.csv"
    path.write_bytes(raw)
    fixed = ingest._load_fixed_width(path, names, None, k)
    try:
        w, a, y, dropped = _oracle_load(path, names, k)
    except ValidationError as exc:
        assert fixed is None
        for load in (lambda: load_csv(path, names, n_treatment_levels=k),
                     lambda: _line_path(path, names, k)):
            with pytest.raises(ValidationError) as info:
                load()
            assert str(info.value) == str(exc)
        return
    header = raw.decode("utf-8-sig").splitlines()[0].split(",")
    want = Dataset(w=np.array(w, np.int8).reshape(len(a), -1), a=a, y=y,
                   covariate_names=names or [c for c in header if c[0] == "W"],
                   n_treatment_levels=k, dropped_rows=dropped)
    _assert_same_dataset(load_csv(path, names, n_treatment_levels=k), want)
    _assert_same_dataset(_line_path(path, names, k), want)
    if fixed is not None:
        _assert_same_dataset(fixed, want)


def test_fixed_width_files_take_the_array_path(tmp_path, monkeypatch):
    """The files ``write_csv`` writes (CRLF line ends) and files of
    single-digit rows with LF line ends, as the benchmark writes them,
    load as one array view: the line path is never called."""
    from causalrules.dgps import DGP_REGISTRY
    from causalrules.diagnostics import generate

    def refuse(*args):
        raise AssertionError("the line path was called")

    drawn = generate(DGP_REGISTRY["cohort"](), 3000, 1)
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    write_csv(drawn, crlf)
    rows = np.column_stack([drawn.w, drawn.a, drawn.y]).tolist()
    lf.write_text(",".join((*drawn.covariate_names, "A", "Y")) + "\n"
                  + "".join(",".join(map(str, row)) + "\n" for row in rows))
    monkeypatch.setattr(ingest, "_load_lines", refuse)
    for path in (crlf, lf):
        _assert_same_dataset(load_csv(path), drawn)


@pytest.mark.parametrize("p", [62, 63, 130])
def test_the_array_path_takes_any_number_of_covariates(tmp_path, p):
    """Files of more covariates than one int64 key holds take the array
    path too, and load equal to the line path, groupings included; the
    grouping is the byte-sorted one of the oracle."""
    rng = np.random.default_rng(p)
    rows = np.column_stack([rng.integers(0, 2, (40, p)), rng.integers(0, 6, 40),
                            rng.integers(0, 2, 40)])
    rows[20:] = rows[rng.permutation(20)]
    rows[30:, 1:] = rows[20:30, 1:]  # rows equal past column 0
    path = tmp_path / "wide.csv"
    path.write_text(",".join([f"W{j}" for j in range(p)] + ["A", "Y"]) + "\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows.tolist()))
    want = Dataset(w=rows[:, :p], a=rows[:, p], y=rows[:, p + 1],
                   covariate_names=[f"W{j}" for j in range(p)])
    fixed = ingest._load_fixed_width(path, None, None, 6)
    assert fixed is not None
    for ds in (fixed, load_csv(path), _line_path(path)):
        _assert_same_dataset(ds, want)
        for got, oracle in zip(ds._groups, void_view_groups(want.w)):
            assert got.dtype == oracle.dtype and np.array_equal(got, oracle)


def test_write_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    n = 300
    ds = Dataset(
        w=rng.integers(0, 2, (n, 4)),
        a=np.r_[0, 11, rng.integers(0, 12, n - 2)],
        y=rng.integers(0, 2, n),
        covariate_names=("W1", "AGE.2", "has,comma", 'q"uote'),
        n_treatment_levels=12,
    )
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(list(ds.covariate_names) + ["A", "Y"])
    for i in range(n):
        writer.writerow([int(v) for v in ds.w[i]] + [int(ds.a[i]), int(ds.y[i])])
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    assert path.read_bytes() == buf.getvalue().encode()
    back = load_csv(path, n_treatment_levels=12)
    assert back == ds
    assert back.covariate_names == ds.covariate_names
