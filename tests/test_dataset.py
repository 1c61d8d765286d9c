from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from causalchron import dataset
from causalchron.dataset import (
    MISSING,
    EventMatrix,
    TokenSchema,
    UnknownTokenError,
    contingency,
    cooccurrence_counts,
    distinct_rows,
    exclude_events,
    load_reads,
    missingness_profile,
    save_reads,
    stacked_counts,
)


def write(tmp_path, text, name="reads.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadReads:
    def test_default_tokens_and_err_rule(self, tmp_path):
        path = write(tmp_path, "a,b,c\nTrue,Err,NaN\nFalse,True,\n")
        m = load_reads(path)
        assert m.columns == ("a", "b", "c")
        assert m.values.tolist() == [[1, 0, MISSING], [0, 1, MISSING]]

    def test_tab_delimiter_autodetected(self, tmp_path):
        path = write(tmp_path, "a\tb\nTrue\tFalse\n")
        m = load_reads(path)
        assert m.delimiter == "\t"
        assert m.values.tolist() == [[1, 0]]

    def test_custom_schema(self, tmp_path):
        schema = TokenSchema(ones=frozenset({"1"}), zeros=frozenset({"0"}), missing=frozenset({"?"}))
        path = write(tmp_path, "a,b\n1,?\n0,1\n")
        m = load_reads(path, schema)
        assert m.values.tolist() == [[1, MISSING], [0, 1]]

    def test_unknown_token_reports_position(self, tmp_path):
        path = write(tmp_path, "a,b\nTrue,maybe\n")
        with pytest.raises(UnknownTokenError, match=r"row 1.*'b'"):
            load_reads(path)

    def test_no_rows(self, tmp_path):
        path = write(tmp_path, "a,b\n")
        with pytest.raises(ValueError, match="no rows"):
            load_reads(path)

    def test_duplicate_column(self, tmp_path):
        path = write(tmp_path, "a,a\nTrue,False\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_reads(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError, match="unreadable"):
            load_reads(tmp_path / "absent.csv")

    def test_round_trip_bit_exact(self, tmp_path):
        text = "a,b,c\nTrue,False,NaN\nFalse,NaN,True\nTrue,True,False\n"
        path = write(tmp_path, text)
        m = load_reads(path)
        out = tmp_path / "copy.csv"
        save_reads(m, out)
        assert out.read_bytes() == path.read_bytes()

    def test_round_trip_preserves_tab_delimiter(self, tmp_path):
        text = "a\tb\nTrue\tNaN\nFalse\tTrue\n"
        path = write(tmp_path, text, name="reads.tsv")
        m = load_reads(path)
        out = tmp_path / "copy.tsv"
        save_reads(m, out)
        assert out.read_bytes() == path.read_bytes()

    def test_schema_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            TokenSchema(ones=frozenset({"x"}), zeros=frozenset({"x"}), missing=frozenset())


def reference_load(text, schema=TokenSchema()):
    """(columns, values) of a file parsed one data line at a time."""
    lines = text.splitlines()
    columns = [c.strip() for c in lines[0].split(",")]
    data_lines = [ln for ln in lines[1:] if ln.strip() != ""]
    values = [[schema.decode(cell.strip()) for cell in ln.split(",")] for ln in data_lines]
    return tuple(columns), np.array(values, dtype=np.int8)


#: a few data lines of a three-column file, some decoding alike ("Err" is 0, padding is stripped)
LINES = ["True,Err,NaN", "False,True,", "True,False,NaN", " True , Err,NaN", "False,False,False", "", "  "]


class TestLoadDistinctLines:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(LINES), min_size=1, max_size=80).filter(lambda ls: any(ln.strip() for ln in ls)))
    def test_repeated_and_blank_lines_load_as_per_line_reference(self, tmp_path_factory, lines):
        text = "a,b,c\n" + "\n".join(lines) + "\n"
        m = load_reads(write(tmp_path_factory.mktemp("reads"), text))
        columns, values = reference_load(text)
        assert m.columns == columns
        assert np.array_equal(m.values, values)

    @pytest.mark.parametrize(
        "text, error, row",
        [
            # a bad line that repeats after a repeated good one: the first bad row is its
            # first occurrence, not its index among the distinct lines
            ("a,b\nTrue,False\nTrue,False\nTrue,maybe\nFalse,False\nTrue,maybe\n", UnknownTokenError, 3),
            ("a,b\nTrue,False\n\nTrue,False\nTrue\nTrue,False\nTrue\n", ValueError, 3),
            # earlier distinct lines are fine, and a later bad line of the other kind repeats
            ("a,b\nTrue,False\nFalse,True\nTrue,False\nFalse,True,True\nTrue,nope\nFalse,True,True\n", ValueError, 4),
            ("a,b\nTrue,False\nTrue,False\nFalse,True\nTrue,nope\nFalse,True,True\nTrue,nope\n", UnknownTokenError, 4),
        ],
    )
    def test_errors_name_the_first_bad_row(self, tmp_path, text, error, row):
        with pytest.raises(error, match=rf"row {row}\b"):
            load_reads(write(tmp_path, text))

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.int8, st.tuples(st.integers(1, 5), st.integers(1, 6)), elements=st.sampled_from([0, 1, MISSING])),
        st.lists(st.integers(0, 4), min_size=1, max_size=200),
        st.sampled_from([",", "\t"]),
    )
    def test_duplicated_matrices_round_trip(self, tmp_path_factory, base, picks, delimiter):
        values = base[[p % len(base) for p in picks]]
        m = EventMatrix(tuple(f"e{j}" for j in range(values.shape[1])), values, delimiter=delimiter)
        path = tmp_path_factory.mktemp("reads") / "reads.csv"
        save_reads(m, path)
        token = {1: "True", 0: "False", MISSING: "NaN"}
        want = [delimiter.join(m.columns)] + [delimiter.join(token[v] for v in row) for row in values.tolist()]
        assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"
        back = load_reads(path)
        # a one-column file has no delimiter to detect
        assert back.columns == m.columns and back.delimiter == (delimiter if values.shape[1] > 1 else ",")
        assert np.array_equal(back.values, values)


class TestDistinctRows:
    @given(arrays(np.int8, st.tuples(st.integers(0, 40), st.integers(0, 4)), elements=st.sampled_from([0, 1, MISSING])))
    def test_first_inverse_and_counts(self, a):
        first, inverse, counts = distinct_rows(a)
        assert np.array_equal(a[first][inverse], a)
        assert np.array_equal(counts, np.bincount(inverse, minlength=len(first)))
        assert len({row.tobytes() for row in a[first]}) == len(first)
        assert all((a[:f] != a[f]).any(axis=1).all() for f in first)  # no earlier row repeats it
        if a.shape[1] == 0:
            assert len(first) == min(len(a), 1)

    def test_row_patterns_are_cached_and_read_only(self):
        m = EventMatrix(("a", "b"), np.array([[1, 0], [0, 0], [1, 0]], dtype=np.int8))
        patterns = m.row_patterns
        assert m.row_patterns is patterns
        assert np.array_equal(patterns.rows[patterns.ids], m.values)
        assert patterns.counts.tolist() == [1, 2]
        with pytest.raises(ValueError):
            patterns.ids[0] = 1


class TestEventMatrix:
    def test_invariants(self):
        with pytest.raises(ValueError, match="empty"):
            EventMatrix((), np.zeros((1, 0), dtype=np.int8))
        with pytest.raises(ValueError, match="duplicate"):
            EventMatrix(("a", "a"), np.zeros((1, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="0, 1 or missing"):
            EventMatrix(("a",), np.array([[3]], dtype=np.int8))
        with pytest.raises(ValueError, match="0, 1 or missing"):
            EventMatrix(("a", "b"), np.array([[0, -2]], dtype=np.int8))

    def test_immutable(self):
        m = EventMatrix(("a",), np.array([[1]], dtype=np.int8))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0


class TestContingency:
    def test_table2_counts(self, table2_matrix):
        t = contingency(table2_matrix, "ndhD_116494", "ndhD_116785")
        assert (t.n00, t.n01, t.n10, t.n11) == (82, 144, 39, 304)
        assert t.total == 569

    def test_swap_symmetry(self, table2_matrix):
        t = contingency(table2_matrix, "ndhD_116494", "ndhD_116785")
        s = contingency(table2_matrix, "ndhD_116785", "ndhD_116494")
        assert (s.n00, s.n01, s.n10, s.n11) == (t.n00, t.n10, t.n01, t.n11)

    def test_direct_two_row(self):
        m = EventMatrix(("a", "b"), np.array([[1, 1], [0, 0]], dtype=np.int8))
        t = contingency(m, "a", "b")
        assert (t.n00, t.n01, t.n10, t.n11) == (1, 0, 0, 1)

    def test_all_missing_column_gives_empty_table(self):
        m = EventMatrix(("a", "b"), np.array([[1, MISSING], [0, MISSING]], dtype=np.int8))
        t = contingency(m, "a", "b")
        assert t.total == 0

    def test_same_label_rejected(self, table2_matrix):
        with pytest.raises(ValueError):
            contingency(table2_matrix, "ndhD_116494", "ndhD_116494")

    def test_unknown_label(self, table2_matrix):
        with pytest.raises(KeyError):
            contingency(table2_matrix, "ndhD_116494", "nope")

    def test_total_matches_joint_observation_count(self):
        rng = np.random.default_rng(5)
        values = rng.choice([0, 1, MISSING], size=(200, 3), p=[0.4, 0.4, 0.2]).astype(np.int8)
        m = EventMatrix(("a", "b", "c"), values)
        t = contingency(m, "a", "c")
        both = (values[:, 0] != MISSING) & (values[:, 2] != MISSING)
        assert t.total == int(both.sum())


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 40), st.integers(1, 4), st.integers(1, 8)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.lists(st.sampled_from([0, 1, MISSING]), min_size=4, max_size=4),
                min_size=shape[0],
                max_size=shape[0],
            ),
            st.lists(st.integers(1, 5), min_size=shape[0], max_size=shape[0]),
            st.lists(
                st.lists(st.integers(0, 3), min_size=shape[1], max_size=shape[1], unique=True),
                min_size=shape[2],
                max_size=shape[2],
            ),
        )
    ),
    st.sampled_from([1, 2**10, 2**16]),
)
def test_stacked_counts_in_binary_counting_order_skipping_missing(case, budget):
    rows, weights, tuples = case
    values = np.array(rows, dtype=np.int8)
    cols = np.array(tuples, dtype=np.intp)
    with mock.patch.object(dataset, "_COUNT_BUDGET_BYTES", budget):
        chunks = list(stacked_counts(values, np.array(weights), cols))
    assert [lo for lo, _ in chunks] == list(np.cumsum([0] + [len(c) for _, c in chunks])[:-1])
    counts = np.concatenate([c for _, c in chunks])
    assert counts.shape == (len(cols), 1 << cols.shape[1])
    for tup, tuple_counts in zip(tuples, counts):
        for k, count in enumerate(tuple_counts):
            bits = [(k >> (len(tup) - 1 - i)) & 1 for i in range(len(tup))]  # first column high
            # a row missing any cell of the tuple matches no assignment, so it is not counted
            assert count == sum(w for row, w in zip(rows, weights) if [row[j] for j in tup] == bits)


class TestCooccurrence:
    def test_paper_tallies(self, cooccurrence_matrix):
        counts = cooccurrence_counts(cooccurrence_matrix, "ndhD_116290")
        assert counts[frozenset()] == 8
        assert counts[frozenset({"ndhD_116494"})] == 26
        assert counts[frozenset({"ndhD_116494", "ndhD_116785"})] == 262
        assert len(counts) == 3

    def test_single_column_all_ones(self):
        m = EventMatrix(("a",), np.ones((7, 1), dtype=np.int8))
        assert cooccurrence_counts(m, "a") == {frozenset(): 7}

    def test_target_never_one(self):
        m = EventMatrix(("a", "b"), np.array([[0, 1], [0, 0]], dtype=np.int8))
        assert cooccurrence_counts(m, "a") == {}

    def test_rows_with_missing_are_ignored(self):
        m = EventMatrix(("a", "b"), np.array([[1, MISSING], [1, 1]], dtype=np.int8))
        assert cooccurrence_counts(m, "a") == {frozenset({"b"}): 1}


class TestMissingness:
    def test_single_block_rows(self):
        m = EventMatrix(
            ("a", "b", "c", "d"),
            np.array([[1, MISSING, MISSING, 0], [MISSING, 1, MISSING, 1]], dtype=np.int8),
        )
        p = missingness_profile(m)
        assert p.row_run_counts == (1, 2)
        assert p.row_single_block == (True, False)
        assert p.fully_observed_rows == 0

    def test_ndhd_shaped_complete_count(self):
        # 7752 observations with exactly 930 fully observed
        values = np.zeros((7752, 5), dtype=np.int8)
        values[930:, 2] = MISSING
        m = EventMatrix(tuple("abcde"), values)
        assert missingness_profile(m).fully_observed_rows == 930

    @given(
        rows=st.lists(
            st.one_of(
                st.lists(st.sampled_from([0, 1, MISSING]), min_size=6, max_size=6),
                st.just([MISSING] * 6),
                st.lists(st.sampled_from([0, 1]), min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_run_counts_match_per_row_loop(self, rows):
        values = np.array(rows, dtype=np.int8)
        want = []
        for row in values:  # count the 0 -> 1 steps of each row's missing flags
            miss = row == MISSING
            changes = np.diff(miss.astype(np.int8))
            want.append(int((changes == 1).sum() + (1 if miss[0] else 0)))
        p = missingness_profile(EventMatrix(tuple("abcdef"), values))
        assert p.row_run_counts == tuple(want)
        assert all(type(r) is int for r in p.row_run_counts)
        assert p.row_single_block == tuple(r <= 1 for r in want)

    def test_json_report_schema(self):
        m = EventMatrix(("a", "b"), np.array([[1, MISSING], [0, 1]], dtype=np.int8))
        import json

        doc = json.loads(missingness_profile(m).to_json())
        assert doc["columns"] == [
            {"label": "a", "missing_fraction": 0.0},
            {"label": "b", "missing_fraction": 0.5},
        ]
        assert doc["rows_fully_observed"] == 1
        assert doc["rows_single_block_fraction"] == 1.0


class TestExcludeEvents:
    def test_drop_intron_from_13_columns(self):
        labels = tuple(f"ed{i}" for i in range(1, 13)) + ("intron",)
        m = EventMatrix(labels, np.zeros((4, 13), dtype=np.int8))
        out = exclude_events(m, {"intron"})
        assert out.n_cols == 12
        assert "intron" not in out.columns

    def test_drop_nothing_is_identity(self):
        m = EventMatrix(("a", "b"), np.zeros((2, 2), dtype=np.int8))
        assert exclude_events(m, set()) is m

    def test_drop_everything_rejected(self):
        m = EventMatrix(("a", "b"), np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="empty matrix"):
            exclude_events(m, {"a", "b"})

    def test_unknown_label(self):
        m = EventMatrix(("a",), np.zeros((2, 1), dtype=np.int8))
        with pytest.raises(KeyError):
            exclude_events(m, {"zz"})


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=60,
    )
)
def test_contingency_symmetry_property(cells):
    values = np.array(
        [[MISSING if a == 2 else a, MISSING if b == 2 else b] for a, b in cells], dtype=np.int8
    )
    m = EventMatrix(("a", "b"), values)
    t = contingency(m, "a", "b")
    s = contingency(m, "b", "a")
    assert (t.n00, t.n11) == (s.n00, s.n11)
    assert (t.n01, t.n10) == (s.n10, s.n01)
    observed = int(((values[:, 0] != MISSING) & (values[:, 1] != MISSING)).sum())
    assert t.total == observed
