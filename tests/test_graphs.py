"""Edge-list parsing, graph canonicalization and Laplacian assembly."""

import io
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from graph_matern import (
    WeightedGraph,
    build_laplacian,
    laplacian_hash,
    parse_edge_list,
    read_edge_list,
)
from graph_matern import graphs
from graph_matern.graphs import DENSE_ELEMENT_LIMIT, _parse_fast, _parse_lines
from helpers import PeakMemory, lattice_graph, loop_laplacian, random_graph


def assert_edges(graph, u, v, w):
    assert graph.u.dtype == np.int64 and graph.v.dtype == np.int64
    assert graph.w.dtype == np.float64
    assert_array_equal(graph.u, u)
    assert_array_equal(graph.v, v)
    assert_array_equal(graph.w, w)


class TestParseEdgeList:
    def test_basic_with_header_and_comments(self):
        text = "# a graph\nnodes 4\n0 1 2.0  # inline\n1 2\n2 3 0.5\n"
        g = parse_edge_list(text)
        assert g.node_count == 4
        assert_edges(g, [0, 1, 2], [1, 2, 3], [2.0, 1.0, 0.5])

    def test_default_weight_is_one(self):
        g = parse_edge_list("0 1\n")
        assert_edges(g, [0], [1], [1.0])

    def test_node_count_infers_from_max_index(self):
        g = parse_edge_list("0 5 1.5\n")
        assert g.node_count == 6

    def test_duplicate_edges_merge_by_summing(self):
        g = parse_edge_list("0 1 1.0\n1 0 2.5\n")
        assert_edges(g, [0], [1], [3.5])

    def test_self_loops_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = parse_edge_list("0 0 1.0\n0 1 1.0\n2 2\n")
        assert_edges(g, [0], [1], [1.0])

    def test_zero_weight_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="non-positive weight at line 1"):
            parse_edge_list("0 1 0.0\n")

    def test_negative_weight_line_number(self):
        with pytest.raises(ValueError, match="non-positive weight at line 3"):
            parse_edge_list("0 1 1.0\n# fine\n1 2 -2.0\n")

    def test_bad_index_reports_line(self):
        with pytest.raises(ValueError, match="invalid node index at line 2"):
            parse_edge_list("0 1\nx 2\n")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative node index at line 1"):
            parse_edge_list("-1 2\n")

    def test_bad_weight_reports_line(self):
        with pytest.raises(ValueError, match="invalid weight at line 1"):
            parse_edge_list("0 1 abc\n")

    def test_wrong_token_count(self):
        with pytest.raises(ValueError, match="at line 1"):
            parse_edge_list("0 1 2 3\n")

    def test_header_must_cover_max_index(self):
        with pytest.raises(ValueError, match="exceeds declared node count"):
            parse_edge_list("nodes 2\n0 5\n")

    def test_header_allows_isolated_nodes(self):
        g = parse_edge_list("nodes 3\n0 1\n")
        assert g.node_count == 3
        assert g.degrees()[2] == 0.0

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="malformed nodes header at line 1"):
            parse_edge_list("nodes two\n")

    def test_read_edge_list_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.0\n")
        g = read_edge_list(path)
        assert_edges(g, [0], [1], [2.0])

    def test_indices_stay_exact_past_float_precision(self):
        # 2**53 + 1 rounds to 2**53 as a float64; as int64 the two stay
        # apart, and a node count this large is refused instead of merged.
        text = ("nodes 9007199254740995\n"
                "0 9007199254740993 1.0\n0 9007199254740992 1.0\n")
        for parse in (_parse_fast, _parse_lines):
            u, v, w, declared, _ = parse(text)
            assert v.dtype == np.int64
            assert v.tolist() == [9007199254740993, 9007199254740992]
            assert declared == 9007199254740995
        with pytest.raises(ValueError, match="node count 9007199254740995 exceeds"):
            parse_edge_list(text)

    def test_index_past_int64_names_its_line(self):
        with pytest.raises(ValueError, match="invalid node index at line 2"):
            parse_edge_list("0 1\n0 99999999999999999999 1.0\n")
        with pytest.raises(ValueError, match="invalid node index at line 1"):
            parse_edge_list("9223372036854775808 1\n")

    def test_node_count_past_key_range_refused(self):
        with pytest.raises(ValueError, match="node count 5000000000 exceeds"):
            parse_edge_list("nodes 5000000000\n0 1 1.0\n")


# Each entry: text, and whether the fast pass must accept it (None: either
# way, as numpy's reader allows). Declining is always safe; the differential
# test checks that accepting never changes the result.
# Files as Excel and PowerShell 5 write them, byte-order mark first.
BOM_TEXTS = ["\ufeffnodes 3\n0 1\n1 2\n", "\ufeff0 1 2.0\r\n1 2 0.5\r\n",
             "\ufeff# comment\n0 1\n"]

PARSE_CORPUS = [
    ("nodes 4\n0 1 2.0\n1 2 0.5\n", True),
    ("nodes 4\r\n0 1 2.0\r\n1 2 0.5\r\n", True),
    ("0 1 2.0\r1 2 0.5\n", False),
    ("0 1 2.0\n1 2 0.5\r", False),
    ("0\t1\t2.0\n1\t\t2 0.5\n", True),
    ("0\xa01 2.0\n", None),
    ("0\x0b1 2.0\n1 2\x0c0.5\n", None),
    ("+1 2 1.0\n", None),
    ("007 2 1.0\n", None),
    ("1_0 2 1.0\n", None),
    ("0 1 1_0\n", None),
    ("1.0 2 1.0\n", False),
    ("1e1 2 1.0\n", False),
    ("0 1 nan\n", False),
    ("0 1 inf\n", False),
    ("0 1 1e400\n", False),
    ("0 1 0\n", False),
    ("0 1 -1\n", False),
    ("0 1 1.0\n2 3 -1\n", False),
    ("-1 2 1.0\n", False),
    ("0 99999999999999999999 1.0\n", False),
    ("0 9223372036854775808 1.0\n", False),
    ("0 9223372036854775807 1.0\n", None),
    ("# comment\n\n   \n# another\nnodes 5\n0 1 1.0\n3 4 2.5\n", True),
    ("0 1 1.0\nnodes 5\n1 2 1.0\n", False),
    ("nodes 5 # five nodes\n0 1 1.0\n", True),
    ("nodes five\n0 1 1.0\n", False),
    ("nodes -2\n0 1 1.0\n", False),
    ("nodes 5 6\n0 1 1.0\n", False),
    ("nodes 5\n", False),
    ("0 1\n1 2\n2 0\n", True),
    ("nodes 6\n0 1\n# gap\n\n4 5\n", True),
    ("0 1 1.0\n1 2\n", False),
    ("0 1\n1 2 1.0\n", False),
    ("0 1 1.0 7\n", False),
    ("0\n", False),
    ("0 0 1.0\n0 1 1.0\n2 2\n", None),
    ("0 0 1.0\n0 1 1.0\n2 2 3.0\n", True),
    ("3 3\n", True),
    ("0 1 1.0\n1 0 2.5\n0 1 0.25\n", True),
    ("0 1 0.1\n1 0 0.2\n0 1 0.3\n", True),
    ("nodes 2\n0 5 1.0\n", True),
    ("x 2\n", False),
    ("0 1 abc\n", False),
    ("", False),
    ("# only a comment\n\n", False),
]


def _outcome(parse, text):
    """What ``parse`` does with ``text``: its value, or its error message."""
    try:
        return parse(text), None
    except ValueError as exc:
        return None, str(exc)


def assert_same_parse(fast, loop):
    for got, want in zip(fast[:3], loop[:3]):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert fast[3:] == loop[3:]  # declared count and self-loop count


class TestParsePasses:
    @pytest.mark.parametrize("text,accepts", PARSE_CORPUS)
    def test_fast_pass_matches_line_loop(self, text, accepts):
        fast = _parse_fast(text)
        if accepts is not None:
            assert (fast is not None) == accepts
        loop, message = _outcome(_parse_lines, text)
        if fast is not None:
            assert message is None, message
            assert_same_parse(fast, loop)
            return
        # Declined: the public parser is the loop on the text as text mode
        # reads it (universal newlines), errors and all.
        loop, message = _outcome(_parse_lines, io.StringIO(text, newline=None).read())
        if message is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_edge_list(text)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parse_edge_list(text)
            assert len(caught) == int(loop[4] > 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_pass_matches_line_loop_on_random_lattices(self, seed):
        rng = np.random.default_rng([seed, 77])
        side = int(rng.integers(3, 15))
        graph = lattice_graph(side, diagonals=True)
        keep = rng.random(graph.edge_count) < 0.8
        u, v = graph.u[keep], graph.v[keep]
        w = rng.lognormal(0.0, 2.0, size=u.size)
        flip = rng.random(u.size) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        order = rng.permutation(u.size)
        again = order[: u.size // 10]  # some pairs twice, merged by summing
        lines = [f"{a} {b} {c!r}" for a, b, c in zip(
            np.concatenate([u[order], v[again]]).tolist(),
            np.concatenate([v[order], u[again]]).tolist(),
            np.concatenate([w[order], w[again] / 3]).tolist())]
        header = f"nodes {side * side + int(rng.integers(0, 3))}\n" if seed % 2 else ""
        text = header + "\n".join(lines) + "\n"
        fast = _parse_fast(text)
        assert fast is not None
        assert_same_parse(fast, _parse_lines(text))
        g = parse_edge_list(text)
        assert g.edge_count == keep.sum()

    @pytest.mark.parametrize("text", [text for text, _ in PARSE_CORPUS] + [
        "nodes 4\n0 1 1.0\r1 2 2.0\n2 3 1.5\n", "0\r1 2.0\n", "nodes 3\r0 1\r\n1 2\r",
        *BOM_TEXTS])
    def test_file_and_text_parse_alike(self, text, tmp_path):
        """A file read in text mode turns ``\\r\\n`` and a lone ``\\r``
        into line breaks; the parser does the same to a string, so a file
        and its text give the same graph or the same error."""
        path = tmp_path / "graph.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

        def outcome(parse, source):
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                graph, message = _outcome(parse, source)
            return message if graph is None else (
                graph.node_count, graph.u.tobytes(), graph.v.tobytes(), graph.w.tobytes())

        assert outcome(read_edge_list, path) == outcome(parse_edge_list, text)

    @pytest.mark.parametrize("text", BOM_TEXTS)
    def test_byte_order_mark_is_dropped(self, text, tmp_path):
        """Excel's "CSV UTF-8" and PowerShell 5's ``Out-File`` start a file
        with a UTF-8 byte-order mark; the graph is the one without it."""
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        expected = parse_edge_list(text[1:])
        for graph in (parse_edge_list(text), read_edge_list(path)):
            assert graph.node_count == expected.node_count
            assert_edges(graph, expected.u, expected.v, expected.w)

    def test_valid_files_never_reach_the_loop(self, monkeypatch):
        def loop(text):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(graphs, "_parse_lines", loop)
        assert_edges(parse_edge_list("nodes 3\n0 1\n2 1\n"), [0, 1], [1, 2], [1.0, 1.0])
        assert_edges(parse_edge_list("0 1 2.0\n1 2 0.5\n"), [0, 1], [1, 2], [2.0, 0.5])
        with pytest.raises(AssertionError, match="line loop reached"):
            parse_edge_list("0 1 2.0\n1 2 -0.5\n")


class TestWeightedGraph:
    def test_from_edges_canonicalizes_orientation(self):
        g = WeightedGraph.from_edges([(3, 1, 0.5), (1, 0)])
        assert g.node_count == 4
        assert_edges(g, [0, 1], [1, 3], [1.0, 0.5])

    def test_from_edges_accepts_row_array(self):
        rows = np.array([[2.0, 0.0, 1.5], [0.0, 2.0, 0.25], [1.0, 2.0, 1.0]])
        g = WeightedGraph.from_edges(rows, node_count=5)
        assert g.node_count == 5
        assert_edges(g, [0, 1], [2, 2], [1.75, 1.0])
        assert g.edge_count == 2
        with pytest.raises(ValueError, match="edge rows"):
            WeightedGraph.from_edges(np.ones((3, 4)))

    def test_duplicates_sum_in_input_order(self):
        # 0.1 + 0.2 + 0.3 rounds differently from 0.1 + (0.2 + 0.3)
        g = WeightedGraph.from_edges([(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3)])
        assert g.w[0] == (0.0 + 0.1) + 0.2 + 0.3

    def test_edge_arrays_are_read_only(self):
        u = np.array([0, 1])
        g = WeightedGraph(node_count=3, u=u, v=[1, 2], w=[1.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            g.w[0] = 2.0
        u[0] = 2  # the graph holds its own copy
        assert g.u[0] == 0

    def test_constructor_rejects_bad_weight_and_shape(self):
        with pytest.raises(ValueError, match=r"non-positive weight on edge \(1, 2\)"):
            WeightedGraph(node_count=3, u=[0, 1], v=[1, 2], w=[1.0, np.nan])
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            WeightedGraph(node_count=3, u=[0], v=[1, 2], w=[1.0])

    @pytest.mark.parametrize("u, v, w", [
        ([0, 0], [1, 1], [1.0, 2.0]),
        ([1], [0], [1.0]),
        ([1, 0], [2, 3], [1.0, 1.0]),
        ([0, 0], [2, 1], [1.0, 1.0]),
        ([2, 0, 1, 0], [0, 3, 0, 2], [0.1, 1.0, 0.5, 0.2]),
    ], ids=["duplicate", "reversed", "unsorted_u", "unsorted_v", "all_three"])
    def test_constructor_stores_any_edge_arrays_canonical(self, u, v, w):
        """Repeated, reversed and unsorted pairs are stored as ``from_edges``
        stores the same rows: merged in input order, oriented and sorted."""
        g = WeightedGraph(node_count=4, u=u, v=v, w=w)
        expected = WeightedGraph.from_edges(list(zip(u, v, w)), node_count=4)
        assert g.node_count == expected.node_count
        for got, want in ((g.u, expected.u), (g.v, expected.v), (g.w, expected.w)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert np.all(g.u < g.v)
        keys = g.u * 4 + g.v
        assert np.all(keys[1:] > keys[:-1])

    def test_constructor_refuses_node_count_past_budget(self):
        """The budget keeps every key lo * n + hi below 2**54. A node count of
        2**33, whose degree array would take 64 GiB, is refused by name
        before any array is built."""
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match=(
                    f"node count {2**33} exceeds the {DENSE_ELEMENT_LIMIT}-element limit "
                    "of an n-length node array")):
                WeightedGraph(node_count=2**33, u=[0, 2**31], v=[2**31 + 5] * 2,
                              w=[1.0, 2.0])
        assert mem.peak < 64 * 1024

    def test_constructor_refuses_each_bad_edge_by_name(self):
        cases = [
            ([0, 2], [1, 2], [1.0, 1.0], "self-loop at node 2"),
            ([0, 1], [1, 5], [1.0, 1.0], "node index 5 exceeds declared node count 3"),
            ([0, 1], [1, -2], [1.0, 1.0], r"edge \(-2, 1\) out of range"),
            ([0, 2], [1, 1], [1.0, -1.0], r"non-positive weight on edge \(1, 2\)"),
        ]
        for u, v, w, message in cases:
            with pytest.raises(ValueError, match=message):
                WeightedGraph(node_count=3, u=u, v=v, w=w)
        with pytest.raises(ValueError, match="node_count must be nonnegative"):
            WeightedGraph(node_count=-1, u=[], v=[], w=[])
        with pytest.raises(TypeError, match="integer"):
            WeightedGraph(node_count=3.5, u=[0], v=[2], w=[1.0])
        with pytest.raises(TypeError, match="integer"):
            WeightedGraph.from_edges([(0, 2)], node_count=3.5)

    def test_from_edges_refuses_a_negative_weight_before_merging(self):
        """A negative weight is refused, not summed away with its pair's
        other entries (-1 + 2 would give a positive weight of 1)."""
        with pytest.raises(ValueError, match=r"non-positive weight on edge \(0, 1\)"):
            WeightedGraph.from_edges([(0, 1, -1.0), (0, 1, 2.0), (1, 2, 1.0)])

    @pytest.mark.parametrize("edges, value", [
        ([(0.5, 1.7), (1, 2.2, 3.0)], "0.5"),
        ([(0, 1), (1, 2.2, 3.0)], "2.2"),
        (np.array([[0.0, 1.0, 1.0], [np.nan, 2.0, 1.0]]), "nan"),
        ([(0, 1), (1, np.inf)], "inf"),
        ([(0, 1e30)], "1e+30"),
    ], ids=["half", "second_row", "nan", "inf", "past_int64"])
    def test_from_edges_refuses_non_integer_indices(self, edges, value):
        """Rows are read as floats; an index that is not an int64 integer is
        named, not truncated into another edge."""
        with pytest.raises(ValueError, match=f"node index {re.escape(value)} is not an int64"):
            WeightedGraph.from_edges(edges)

    @pytest.mark.parametrize("u, v, value", [
        ([0.5], [1.7], "0.5"),
        ([2.0**63], [1], "9.223372036854776e+18"),
        ([0, 1], [1, 10**30], str(10**30)),
    ], ids=["half", "float_past_int64", "int_past_int64"])
    def test_constructor_refuses_non_integer_indices(self, u, v, value):
        """A direct call holds u and v to the rule that from_edges rows meet:
        0.5 and 1.7 are not truncated into the edge (0, 1), and an index
        past int64 is named, not wrapped to -2**63 or overflowed."""
        with pytest.raises(ValueError,
                           match=f"^node index {re.escape(value)} is not an int64 integer$"):
            WeightedGraph(3, u, v, [1.0] * len(u))

    def test_constructor_infers_the_node_count(self):
        """A node count of None is one past the largest index, found after
        the indices pass the integer rule, as from_edges finds it."""
        g = WeightedGraph(None, [3, 0], [1, 1], [1.0, 2.0])
        assert g.node_count == 4 and type(g.node_count) is int
        assert_edges(g, [0, 1], [1, 3], [2.0, 1.0])
        assert WeightedGraph(None, [], [], []).node_count == 0

    def test_from_edges_node_count_bound(self):
        top = DENSE_ELEMENT_LIMIT
        g = WeightedGraph.from_edges([(top - 1, 0, 1.0), (1, top - 1)])
        assert g.node_count == top
        assert_edges(g, [0, 1], [top - 1, top - 1], [1.0, 1.0])
        with pytest.raises(ValueError, match=f"node count {top + 1} exceeds the {top}-element"):
            WeightedGraph.from_edges([(0, 1)], node_count=top + 1)

    @pytest.mark.parametrize("text", ["nodes 3000000000\n0 1\n", "0 1\n1 3000000000\n"])
    def test_huge_node_count_refused_before_any_node_array(self, text):
        """A file that declares or implies 3e9 nodes is refused by name
        before the n-length degree array (24 GB) is asked for."""
        with PeakMemory() as mem:
            with pytest.raises(ValueError, match=(
                    f"node count 300000000[01] exceeds the {DENSE_ELEMENT_LIMIT}-element limit")):
                parse_edge_list(text)
        assert mem.peak < 64 * 1024

    def test_from_edges_negative_index_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(-2, 1\) out of range"):
            WeightedGraph.from_edges([(3, 0), (1, -2), (-1, 4)])

    def test_self_loop_rejected_in_from_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph.from_edges([(2, 2, 1.0)])

    def test_adjacency_symmetric_and_degrees(self):
        # The adjacency is the negated off-diagonal of L = D - A.
        g = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 0.5)])
        a = -build_laplacian(g, "unnormalized").matrix.toarray()
        np.fill_diagonal(a, 0.0)
        assert_array_equal(a, a.T)
        assert_array_equal(a, [[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        assert_allclose(g.degrees(), [2.0, 2.5, 0.5])
        assert_allclose(g.degrees(), a.sum(axis=1))

    def test_adjacency_of_empty_graph(self):
        g = WeightedGraph(node_count=3, u=[], v=[], w=[])
        assert g.w.dtype == np.float64
        assert build_laplacian(g, "unnormalized").matrix.toarray().sum() == 0.0
        assert_array_equal(g.degrees(), [0.0, 0.0, 0.0])
        assert g.degrees().dtype == np.float64


class TestBuildLaplacian:
    def test_triangle_unnormalized_exact(self):
        g = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        l = build_laplacian(g, "unnormalized").matrix.toarray()
        assert_array_equal(l, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_weighted_pair(self):
        g = WeightedGraph.from_edges([(0, 1, 2.5)])
        l = build_laplacian(g, "unnormalized").matrix.toarray()
        assert_array_equal(l, [[2.5, -2.5], [-2.5, 2.5]])

    def test_exact_symmetry_and_row_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 25)))
            op = build_laplacian(g, "unnormalized")
            dense = op.matrix.toarray()
            assert_array_equal(dense, dense.T)
            max_deg = max(g.degrees().max(), 1.0) if g.edge_count else 1.0
            assert np.max(np.abs(dense.sum(axis=1))) <= 1e-12 * max_deg

    def test_sym_normalized_diagonal_and_spectrum_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 25)))
            op = build_laplacian(g, "sym_normalized")
            dense = op.matrix.toarray()
            assert_array_equal(dense, dense.T)
            deg = g.degrees()
            assert_allclose(np.diag(dense), np.where(deg > 0, 1.0, 0.0), atol=1e-12)
            vals = np.linalg.eigvalsh(dense)
            assert vals.min() >= -1e-8
            assert vals.max() <= 2.0 + 1e-8

    def test_isolated_node_rows_are_zero(self):
        g = WeightedGraph(node_count=3, u=[0], v=[1], w=[1.0])
        for kind in ("unnormalized", "sym_normalized"):
            dense = build_laplacian(g, kind).matrix.toarray()
            assert_array_equal(dense[2], [0.0, 0.0, 0.0])

    def test_both_kinds_are_psd(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_graph(rng, 15)
            for kind in ("unnormalized", "sym_normalized"):
                dense = build_laplacian(g, kind).matrix.toarray()
                vals = np.linalg.eigvalsh(dense)
                scale = max(vals.max(), 1.0)
                assert vals.min() >= -1e-10 * scale

    def test_bit_identical_to_per_edge_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            n = int(rng.integers(20, 60))
            m = 4 * n
            u = rng.integers(0, n, size=m)
            v = rng.integers(0, n, size=m)
            keep = u != v
            raw = [(int(a), int(b), float(w)) for a, b, w in
                   zip(u[keep], v[keep], rng.uniform(0.1, 3.0, size=m)[keep])]
            raw += [(b, a, float(rng.uniform(0.1, 3.0))) for a, b, _ in raw[: m // 4]]
            g = WeightedGraph.from_edges(raw, node_count=n + 2)
            for kind in ("unnormalized", "sym_normalized"):
                op = build_laplacian(g, kind)
                oracle = loop_laplacian(raw, n + 2, kind)
                assert_array_equal(op.degrees, oracle.degrees)
                assert laplacian_hash(op) == laplacian_hash(oracle)

    def test_unknown_kind_rejected(self):
        g = WeightedGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError, match="unknown laplacian kind"):
            build_laplacian(g, "rw_normalized")


class TestIntegerRule:
    @pytest.mark.parametrize("nodes, value", [
        ([1.5], "1.5"),
        ([10**30], str(10**30)),
        (np.array([2**64 - 1], dtype=np.uint64), str(2**64 - 1)),
        ([0, None], "None"),
        ([0, 2**63], str(2**63)),
        ([2**63 - 1, 2**63], str(2**63)),
    ], ids=["half", "int_past_int64", "uint64_past_int64", "none", "int_at_2_63",
            "int64_max_then_2_63"])
    def test_node_indices_refuse_non_integers_by_value(self, nodes, value):
        """Queries, training and inducing nodes are not cast: 1.5 is not
        read as node 1, and 10**30 is refused by value, not by an
        ``OverflowError``. A list's int in [2**63, 2**64), which numpy holds
        as a rounded float, is named exactly, and a valid entry before it
        is not blamed."""
        with pytest.raises(ValueError,
                           match=f"^node index {re.escape(value)} is not an int64 integer$"):
            graphs._node_indices(nodes, 5, "query")

    @pytest.mark.parametrize("values", [[2**62 + 1, 1.0], [2**63 - 1, 1.0]],
                             ids=["2_62_plus_1", "int64_max"])
    def test_int64_keeps_a_lists_ints_among_floats_exact(self, values):
        """numpy would hold these lists as float64: 2**62 + 1 would become
        2**62, and 2**63 - 1 would round to 2**63 and be refused."""
        x = graphs._int64(values)
        assert x.dtype == np.int64 and x.tolist() == [values[0], 1]

    def test_int64_arrays_pass_through_uncopied(self):
        nodes = np.array([4, 0, 2])
        assert graphs._node_indices(nodes, 5, "query") is nodes
        assert_array_equal(graphs._node_indices([4.0, True], 5, "query"), [4, 1])
