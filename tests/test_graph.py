"""Graph construction, parsing, and the matrix-free transition operator."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import graph, structure
from signedvoter.errors import (
    DanglingNode,
    DuplicateEdge,
    MalformedLine,
    NonFiniteWeight,
    SignedVoterError,
    ZeroWeightEdge,
)
from signedvoter.graph import _plain_fields

from helpers import (assert_parses_like_reference, copy_graph, dense_ground, dense_p,
                     products_in_parts, random_graph)


def test_minimal_cycle():
    G = sv.from_edge_list([(0, 1, 1), (1, 0, 1)])
    assert G.n == 2 and G.n_edges == 2
    assert np.array_equal(G.out_weight, [1.0, 1.0])
    assert np.all(G.signs == 1)


def test_mixed_weights_and_ground():
    G = sv.from_edge_list([(0, 1, -2), (1, 0, 1), (0, 0, 1)])
    assert np.array_equal(G.out_weight, [3.0, 1.0])
    assert np.allclose(sv.ground_vector(G), [2 / 3, 0.0])


def test_dangling_node_rejected_and_repaired():
    with pytest.raises(DanglingNode):
        sv.from_edge_list([(0, 1, 1)])
    G = sv.from_edge_list([(0, 1, 1)], repair_dangling=True)
    assert G.n == 2 and G.n_edges == 2
    sl = G.out_slice(1)
    assert G.targets[sl].tolist() == [1] and G.signs[sl].tolist() == [1]


def test_zero_weight_and_duplicates_rejected():
    with pytest.raises(ZeroWeightEdge):
        sv.from_edge_list([(0, 1, 0), (1, 0, 1)])
    with pytest.raises(DuplicateEdge):
        sv.from_edge_list([(0, 1, 1), (0, 1, -1), (1, 0, 1)])


def test_ground_vector_extremes():
    rng = np.random.default_rng(0)
    G = random_graph(rng, 12, neg_prob=0.0)
    assert np.allclose(sv.ground_vector(G), 0.0)
    G = random_graph(rng, 12, neg_prob=1.0)
    assert np.allclose(sv.ground_vector(G), 1.0)


def test_ground_vector_single_node_fractions():
    G = sv.from_edge_list([(0, 1, 1), (0, 2, -1), (0, 3, -2), (1, 0, 1), (2, 0, 1), (3, 0, 1)])
    assert sv.ground_vector(G)[0] == pytest.approx(3 / 4)


def test_apply_p_row_sums():
    rng = np.random.default_rng(1)
    ones = np.ones(15)
    G = random_graph(rng, 15, neg_prob=0.0)
    assert np.abs(sv.apply_p(G, ones) - 1.0).max() <= 1e-12
    G = random_graph(rng, 15, neg_prob=1.0)
    assert np.abs(sv.apply_p(G, ones) + 1.0).max() <= 1e-12
    # P 1 + 2 g = 1 holds for any sign pattern
    for _ in range(5):
        G = random_graph(rng, 15, neg_prob=0.5)
        lhs = sv.apply_p(G, ones) + 2 * sv.ground_vector(G)
        assert np.abs(lhs - 1.0).max() <= 1e-12


def test_apply_p_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        G = random_graph(rng, n, n_edges=int(rng.integers(n, 3 * n)))
        P = dense_p(G)
        assert np.allclose(dense_ground(G), sv.ground_vector(G), atol=1e-14)
        for _ in range(3):
            v = rng.normal(size=n)
            assert np.allclose(sv.apply_p(G, v), P @ v, atol=1e-12)
            assert np.allclose(sv.apply_p_transpose(G, v), P.T @ v, atol=1e-12)


def test_apply_p_linearity_and_adjoint():
    rng = np.random.default_rng(3)
    for _ in range(10):
        G = random_graph(rng, 20)
        u, v = rng.normal(size=20), rng.normal(size=20)
        a, b = rng.normal(), rng.normal()
        lhs = sv.apply_p(G, a * u + b * v)
        rhs = a * sv.apply_p(G, u) + b * sv.apply_p(G, v)
        scale = np.abs(lhs).max() + 1.0
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale
        # adjoint identity <P^T v, u> = <v, P u>
        lhs = sv.apply_p_transpose(G, v) @ u
        rhs = v @ sv.apply_p(G, u)
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)
    assert np.array_equal(sv.apply_p_transpose(G, np.zeros(20)), np.zeros(20))


def test_apply_p_batched_columns():
    rng = np.random.default_rng(4)
    G = random_graph(rng, 10)
    V = rng.normal(size=(10, 7))
    batched = sv.apply_p(G, V)
    for k in range(7):
        assert np.allclose(batched[:, k], sv.apply_p(G, V[:, k]))
    batched_t = sv.apply_p_transpose(G, V)
    for k in range(7):
        assert np.allclose(batched_t[:, k], sv.apply_p_transpose(G, V[:, k]))


def test_negate_signs_involution():
    rng = np.random.default_rng(5)
    G = random_graph(rng, 15)
    GG = sv.negate_signs(sv.negate_signs(G))
    assert sv.graphs_equal(G, GG)
    assert np.allclose(sv.ground_vector(sv.negate_signs(G)), 1.0 - sv.ground_vector(G))
    allpos = random_graph(rng, 8, neg_prob=0.0)
    assert np.all(sv.negate_signs(allpos).signs == -1)


def test_parse_snap_basic():
    parsed = sv.parse_snap("# comment\n0 1 -1\n1 0 1\n")
    assert parsed.graph.n == 2 and parsed.file_edges == 2 and parsed.file_negative == 1
    assert parsed.node_ids.tolist() == [0, 1]


def test_parse_snap_remaps_first_appearance():
    parsed = sv.parse_snap("7 3 1\n3 7 -1\n9 7 1\n7 9 1\n")
    assert parsed.node_ids.tolist() == [7, 3, 9]
    assert parsed.graph.n == 3


def test_parse_snap_deduplicates_keeping_first():
    parsed = sv.parse_snap("0 1 -1\n0 1 1\n1 0 1\n")
    assert parsed.file_edges == 3 and parsed.file_negative == 1
    assert parsed.graph.n_edges == 2
    sl = parsed.graph.out_slice(0)
    assert parsed.graph.signs[sl].tolist() == [-1]  # first occurrence wins


def test_parse_snap_places_appended_lines_and_keeps_the_first_of_a_repeat():
    """A sorted body with lines appended after it, into new ids, from one,
    and repeating an earlier pair with the other sign: the stable sort
    places the appended lines and keeps the body's copy of the pair."""
    G = random_graph(np.random.default_rng(3), 40, 160)
    u, v = G.sources[7], G.targets[7]
    tail = f"3 40 1\n17 41 -1\n40 5 -1\n{u} {v} {-G.signs[7]}\n0 42 1\n"
    for repair in (False, True):
        assert_parses_like_reference(sv.serialize(G) + tail, repair)
    parsed = sv.parse_snap(sv.serialize(G) + tail, repair_dangling=True)
    row = parsed.graph.out_slice(u)
    assert parsed.graph.signs[row][parsed.graph.targets[row] == v].tolist() == [G.signs[7]]


def test_from_edge_list_names_the_smallest_repeated_pair():
    edges = [(3, 1, 1), (0, 2, 1), (3, 1, -1), (2, 0, 1), (0, 2, -1), (1, 3, 1)]
    with pytest.raises(DuplicateEdge, match=r"^duplicate edge \(0, 2\)$"):
        sv.from_edge_list(edges)


def test_from_edge_list_rejects_ids_past_the_edge_key_bound():
    """src * n + dst must fit int64; a larger n fails before any n-sized array."""
    assert graph._MAX_NODES == math.isqrt(2**63 - 1)
    with pytest.raises(MalformedLine, match=f"^{2**62 + 1} nodes: .* {graph._MAX_NODES}$") as err:
        sv.from_edge_list([(0, 2**62, 1), (2**62, 0, 1)])
    assert "\n" not in str(err.value)


def test_parse_snap_malformed():
    with pytest.raises(MalformedLine, match="line 2"):
        sv.parse_snap("0 1 1\n0 1\n")
    with pytest.raises(MalformedLine, match="line 1"):
        sv.parse_snap("a b 1\n")
    with pytest.raises(ZeroWeightEdge):
        sv.parse_snap("0 1 0\n1 0 1\n")
    with pytest.raises(DanglingNode):
        sv.parse_snap("0 1 1\n")


def test_serialize_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(5):
        G = random_graph(rng, int(rng.integers(4, 30)))
        parsed = sv.parse_snap(sv.serialize(G))
        assert sv.graphs_equal(G, parsed.graph)
    weighted = sv.from_edge_list([(0, 1, 2.5), (1, 0, 1)])
    with pytest.raises(ValueError):
        sv.serialize(weighted)


def test_validate_recomputes_invariants():
    rng = np.random.default_rng(7)
    random_graph(rng, 25).validate()


def test_graph_arrays_immutable():
    G = sv.from_edge_list([(0, 1, 1), (1, 0, -1)])
    with pytest.raises(ValueError):
        G.signs[0] = -1


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(weight):
    with pytest.raises(NonFiniteWeight):
        sv.from_edge_list([(0, 1, weight), (1, 0, 1)])


def _graph_with(**bad):
    """A valid 3-node graph rebuilt directly from its arrays, some replaced."""
    G = sv.from_edge_list([(0, 1, 1), (0, 2, -1), (1, 0, 1), (2, 0, 1), (2, 1, 2)])
    arrays = {name: getattr(G, name).copy()
              for name in ("indptr", "targets", "weights", "signs", "out_weight")}
    arrays.update({name: np.asarray(value) for name, value in bad.items()})
    return sv.SignedDigraph(G.n, **arrays)


@pytest.mark.parametrize("bad, error, message", [
    ({"weights": [1.0, np.nan, 1.0, 1.0, 2.0]}, NonFiniteWeight, "NaN or infinite"),
    ({"weights": [1.0, np.inf, 1.0, 1.0, 2.0]}, NonFiniteWeight, "NaN or infinite"),
    ({"weights": [1.0, 0.0, 1.0, 1.0, 2.0]}, ZeroWeightEdge, "non-positive"),
    ({"signs": np.array([1, 2, 1, 1, 1], dtype=np.int8)}, MalformedLine, "signs"),
    ({"indptr": [0, 2, 2, 5]}, DanglingNode, "without out-edges"),
    ({"targets": [2, 1, 0, 0, 1]}, DuplicateEdge, "node 0 "),
    ({"targets": [1, 2, 0, 1, 1]}, DuplicateEdge, "node 2 "),
    ({"out_weight": [2.0, 1.0, 4.0]}, MalformedLine, "out_weight"),
    ({"out_weight": [2.0, np.nan, 3.0]}, MalformedLine, "out_weight"),
], ids=["nan-weight", "inf-weight", "zero-weight", "bad-sign", "dangling",
        "unsorted-targets", "duplicate-target", "wrong-out-weight", "nan-out-weight"])
def test_validate_failure_branches(bad, error, message):
    _graph_with().validate()  # targets decrease across node boundaries, which is fine
    with pytest.raises(error, match=message):
        _graph_with(**bad).validate()


@pytest.mark.parametrize("text, line", [
    ("0 1 1\n99999999999999999999 1 1\n1 0 1\n", 2),  # an id beyond int64
    ("0 1 99999999999999999999\n1 0 1\n", 1),  # a sign beyond int64
    ("0 1 1\n-9223372036854775809 0 1\n", 2),
])
def test_parse_snap_rejects_fields_outside_int64(text, line):
    with pytest.raises(MalformedLine, match=f"^line {line}: field outside the int64 range"):
        sv.parse_snap(text)


def test_parse_snap_reports_first_bad_line_in_file_order():
    with pytest.raises(ZeroWeightEdge, match="^line 2: zero sign"):
        sv.parse_snap("0 1 1\n1 0 0\n99999999999999999999 1 1\n1 0\n")
    with pytest.raises(MalformedLine, match="^line 1: field outside"):
        sv.parse_snap("99999999999999999999 1 1\n1 0\n")
    # int64 extremes are ordinary ids
    parsed = sv.parse_snap("9223372036854775807 -9223372036854775808 1\n"
                           "-9223372036854775808 9223372036854775807 -1\n")
    assert parsed.node_ids.tolist() == [2**63 - 1, -2**63]


_RUN_LINES = graph._RUN_CHARS // 8  # filler lines that fill one run of `_run_fields` exactly


def _filled(*parts) -> str:
    """The text of `parts`, where an int k stands for k filler edge lines of
    8 characters each, alternately 0 -> 1 and 1 -> 0."""
    return "".join("0  1  1\n1  0 -1\n" * (p // 2) + "0  1  1\n" * (p % 2)
                   if isinstance(p, int) else p for p in parts)


@pytest.mark.parametrize("text, plain", [
    ("1 0 1\n0 1 -1\n", True),  # verbatim ids, unsorted edges
    ("1 2 1\n2 1 -1\n", True),  # sorted edges, ids from 1
    ("0 1 1\n0 1 -1\n1 0 1\n", True),  # a duplicate pair
    ("007 1 1\n1 007 -1\n", True),
    ("-0 1 1\n1 0 1\n", True),
    ("0 1 1\r\n1 0 -1\r\n", True),
    ("0\t1\t1\n1\t0\t-1\n", True),
    ("999999999999999999 0 1\n0 999999999999999999 -1\n", True),  # 18 digits
    ("# head\n0 1 1\n# note 1 2 3\n1 0 -1", True),  # comments, no final newline
    ("0 1 1\n1 2 -1\n", True),  # a dangling node
    ("0 1000000000000 1\n1000000000000 0 1\n", True),
    ("0 1 +1\n1 0 1\n", False),
    ("0 1_000 1\n1_000 0 1\n", False),
    ("0 1 1\r1 0 -1\r", False),
    ("0 1 1\n1 0 1\x0c", False),
    ("0 1 1\n  # note\n1 0 -1\n", False),
    ("# café\n0 1 1\n1 0 1\n", False),
    ("0 １ 1\n１ 0 1\n", False),
    ("0 1 1000000000000000000\n1 0 -1\n", False),  # 19 digits
    ("0 - 1\n1 0 1\n", False),
    ("0 1-2 1\n1 0 1\n", False),
    ("0 1 --1\n1 0 1\n", False),
    ("0 1 1\n1 0 -0\n", False),  # a zero sign
    ("0 1 1\n1 0\n", False),
    ("0 1 1 1\n1 0 1\n", False),
    ("\n  \n", False),
    # texts of several runs of lines, each cut after a \n
    pytest.param(_filled(_RUN_LINES, "0  1  x\n", 4), False, id="runs: bad line first in a run"),
    pytest.param(_filled(_RUN_LINES - 1, "0  1  x\n", 4), False, id="runs: bad line last in a run"),
    pytest.param(_filled(_RUN_LINES - 1, "0  1 +1\n", "1  0 +1\n", _RUN_LINES), False,
                 id="runs: non-plain lines last and first in a run"),
    pytest.param(_filled(2 * _RUN_LINES, "1 0 +1\n", _RUN_LINES, "1 0\n").replace("\n", "\r\n"),
                 False, id="runs: crlf endings"),
    pytest.param("# head\n" + _filled(_RUN_LINES, "0 1 +1\n", 2 * _RUN_LINES, "1 0 x\n"), False,
                 id="runs: head comment"),
    pytest.param(_filled(2 * _RUN_LINES, "0 1 +1\n", _RUN_LINES, "1 0"), False,
                 id="runs: no final newline"),
    pytest.param(_filled(10, "0 1 1\x0c1 0 1\n", 2 * _RUN_LINES, "1 0\n"), False,
                 id="runs: form feed before a later bad line"),
    pytest.param(_filled(3 * _RUN_LINES, "1 0 0\n", 5), False, id="runs: zero sign in a later run"),
])
def test_parse_snap_byte_path_boundaries(text, plain):
    """Which texts the byte path reads itself; either way the result is the
    line-by-line reference parser's."""
    assert (_plain_fields(text) is not None) == plain
    for repair in (False, True):
        assert_parses_like_reference(text, repair)


def test_a_non_plain_line_costs_only_its_run(monkeypatch):
    """In runs of 64 characters, the line-by-line reader gets only the run
    that holds the one non-plain line."""
    monkeypatch.setattr(graph, "_RUN_CHARS", 64)
    lines = [f"{i} {(i + 1) % 100} {1 if i % 3 else -1}\n" for i in range(100)]
    lines[58] = "58 59 +1\n"
    text = "".join(lines)
    seen, checked = [], graph._checked_fields

    def spy(run, *args):
        seen.append(run)
        return checked(run, *args)

    monkeypatch.setattr(graph, "_checked_fields", spy)
    assert_parses_like_reference(text)
    assert len(seen) == 1 and "58 59 +1\n" in seen[0]
    assert seen[0] in text and seen[0].endswith("\n") and len(seen[0]) < 64 + 10


def test_parse_snap_zero_sign_names_its_line():
    with pytest.raises(ZeroWeightEdge, match="^line 3: zero sign"):
        sv.parse_snap("# head\n0 1 1\n1 0 -0\n")


def test_parse_snap_memory_peak_on_a_canonical_file():
    """About 100k edges: the peak stays under 10 bytes per byte of text (a
    list of one str per field took 14)."""
    n = 25_000
    src = np.repeat(np.arange(n), 4)
    dst = (src + np.tile([1, 2, 3, 7], n)) % n
    sign = np.random.default_rng(5).choice([-1, 1], size=src.size)
    text = sv.serialize(sv.from_edge_list(zip(src.tolist(), dst.tolist(), sign.tolist())))
    tracemalloc.start()
    try:
        parsed = sv.parse_snap(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.graph.n_edges == 100_000
    assert peak < 10 * len(text), peak


@pytest.mark.parametrize("fields", [256, 259])
def test_parse_snap_byte_path_counts_long_lines_exactly(fields):
    """Per-line field counts are summed in uint8, where 256 wraps to 0 and
    259 to 3; such a line is still not read as an edge line."""
    # no zero anywhere, so a misread line could not fail on a zero sign instead
    text = "1 2 1\n" + " ".join(["3"] * fields) + "\n2 1 -1\n"
    assert _plain_fields(text) is None
    for repair in (False, True):
        assert_parses_like_reference(text, repair)
    with pytest.raises(MalformedLine, match="^line 2: expected 'src dst sign'"):
        sv.parse_snap(text)


@pytest.mark.parametrize("text, line", [
    ("0 1 1\n1 -99999999999999999999 1\n", 2),  # the C reader clamps this to 2**63 - 1
    ("0 1 1\n1 0 9223372036854775808\n", 2),
    ("-9223372036854775809 0 1\n0 1 1\n", 1),
])
def test_parse_snap_byte_path_hands_on_fields_the_reader_clamps(text, line):
    assert _plain_fields(text) is None
    with pytest.raises(MalformedLine, match=f"^line {line}: field outside the int64 range"):
        sv.parse_snap(text)


def test_parse_snap_byte_path_reads_leading_zeros_in_base_10():
    text = "0000000000000000000001 0 1\n0 0000000000000000000001 -1\n010 1 1\n1 010 -0001\n"
    assert _plain_fields(text) is not None
    for repair in (False, True):
        assert_parses_like_reference(text, repair)
    assert sv.parse_snap(text).node_ids.tolist() == [1, 0, 10]


@pytest.mark.parametrize("seeds", [[1.5], [1.0], np.array([2.0]), [True], np.array([False, True]),
                                   [0, 2.5]],
                         ids=["1.5", "1.0", "float-array", "bool", "bool-array", "mixed"])
def test_indicator_rejects_ids_that_are_not_integers(seeds):
    # a cast to int64 would mark node 1 for 1.5, and node 1 for True
    with pytest.raises(ValueError, match="^seed ids must be integers, got dtype "):
        sv.indicator(5, seeds)


@pytest.mark.parametrize("seeds", [[1, 3], range(1, 4, 2), iter([3, 1]),
                                   np.array([1, 3], dtype=np.int32),
                                   np.array([1, 3], dtype=np.uint8)],
                         ids=["list", "range", "iterator", "int32", "uint8"])
def test_indicator_takes_integer_ids_in_any_container(seeds):
    assert np.flatnonzero(sv.indicator(5, seeds)).tolist() == [1, 3]
    assert not sv.indicator(5, []).any()  # an empty list reads as float64, and is valid


def test_parse_snap_graph_owns_contiguous_targets():
    """A canonical file skips the edge sort, so the parsed dst column becomes
    the graph's targets: it must not be a strided view that keeps every
    parsed field alive."""
    text = sv.serialize(sv.from_edge_list([(0, 1, 1), (0, 2, -1), (1, 0, 1), (2, 1, -1)]))
    assert _plain_fields(text) is not None
    targets = sv.parse_snap(text).graph.targets
    assert targets.flags.c_contiguous and targets.base is None


@pytest.mark.parametrize("failing", [0, 1], ids=["calling thread", "worker"])
def test_a_failed_part_reaches_the_caller_once_every_part_ends(failing):
    finished = []

    def run(j):
        if j == failing:
            raise RuntimeError(f"part {j} failed")
        time.sleep(0.2 if j == 2 else 0.0)  # still running when the failure is raised
        finished.append(j)
        return j

    with products_in_parts(3):
        with pytest.raises(RuntimeError, match=f"part {failing} failed"):
            graph._in_parts(run, 3)
        assert sorted(finished) == sorted({0, 1, 2} - {failing})
        assert graph._in_parts(lambda j: j, 3) == [0, 1, 2]  # the pool still serves


def test_parted_products_share_one_pool_of_at_most_threads_minus_one():
    # four callers at once, each splitting every product in three, on a pool
    # of two workers, with thread switches every 10 microseconds
    G = random_graph(np.random.default_rng(5), 300)
    v = np.random.default_rng(6).random((G.n, 2))
    want = [sv.apply_p(G, v).tobytes(), sv.apply_p_transpose(G, v).tobytes()]
    results, switch = [], sys.getswitchinterval()
    with products_in_parts(3):
        parted = copy_graph(G)

        def call():
            for _ in range(40):
                results.append([sv.apply_p(parted, v).tobytes(),
                                sv.apply_p_transpose(parted, v).tobytes()])

        callers = [threading.Thread(target=call) for _ in range(4)]
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in callers)
        assert len(parted._transpose_parts) == 3 and parted._row_cuts.size == 4
        assert 1 <= len(graph._pool._threads) <= 2
    assert len(results) == 160 and all(r == want for r in results)


# ids from 10, compacted in order of first appearance; line i + 60 repeats
# line i's edge with another sign, and the first one is kept
_EDGE_LINES = [f"{10 + i % 60} {10 + (7 * i + 3) % 60} {-1 if i % 7 == 0 else 1}\n"
               for i in range(120)]


def _edge_lines(**edits) -> str:
    """120 edge lines of 8 or 9 characters, with line `_i` replaced by edits["_i"]."""
    return "".join(edits.get(f"_{i}", line) for i, line in enumerate(_EDGE_LINES))


def _parse_at(threads: int, text: str):
    """parse_snap's graph arrays, node ids and edge counts on `threads`
    threads, or its error's type and message."""
    with products_in_parts(threads):
        try:
            p = sv.parse_snap(text)
        except SignedVoterError as exc:
            return type(exc), str(exc)
    arrays = (p.graph.indptr, p.graph.targets, p.graph.weights, p.graph.signs, p.node_ids)
    return ([(a.dtype, a.tobytes()) for a in arrays],
            p.file_edges, p.file_negative, p.parsed_edges, p.parsed_negative)


@pytest.mark.parametrize("text, error", [
    (_edge_lines(), None),
    ("# head\n" + _edge_lines(_50="60 11 +1\n", _100="  # note\n"), None),
    (_edge_lines(_10="10 1 x\n", _100="100 1\n"), "line 11: non-integer field"),
    (_edge_lines(_5="5 6 1\x0c7 8 1\n", _100="100 1\n"), "line 102: expected"),
    (_edge_lines(_60="10 11 +1\n", _110="110 1\n").replace("\n", "\r\n"), "line 111: expected"),
    (_edge_lines(_60="10 11 +1\n").replace("\n", "\r\n"), None),
    ("", "no edges in input"),
    ("# comment line\n" * 60, "no edges in input"),
], ids=["plain", "non-plain runs in two parts", "bad lines in the first and last parts",
        "form feed before a later part's bad line", "crlf endings, bad line", "crlf endings",
        "empty", "comments only"])
def test_the_parse_does_not_depend_on_the_thread_count(monkeypatch, text, error):
    """In runs of 64 characters, read in 1, 2 or 3 parts, every text gives
    the same graph, or the same first error, as the line-by-line reference."""
    monkeypatch.setattr(graph, "_RUN_CHARS", 64)
    assert not text or len(text) > 9 * 64  # at least three runs a part
    want = _parse_at(1, text)
    if error is None:
        assert isinstance(want[0], list), want
    else:
        assert want[1].startswith(error), want
    for threads in (2, 3):
        assert _parse_at(threads, text) == want, threads
        with products_in_parts(threads):
            assert_parses_like_reference(text)


def test_the_parse_reads_its_parts_on_the_product_pool(monkeypatch):
    """On 3 threads the parse's parts run on the product pool: the first parse
    starts at most its 2 workers, and later parses start none beyond them."""
    monkeypatch.setattr(graph, "_RUN_CHARS", 64)
    text = _edge_lines()
    with products_in_parts(3):
        before = threading.active_count()
        first = sv.parse_snap(text)
        pool = graph._pool
        assert pool is not None and 1 <= threading.active_count() - before <= 2
        for _ in range(3):
            again = sv.parse_snap(text)
            assert graph._pool is pool
            assert threading.active_count() - before == len(pool._threads) <= 2
    assert sv.graphs_equal(first.graph, again.graph)


@pytest.mark.parametrize("k", [1, 2])
def test_every_product_of_an_empty_batch_is_empty(k):
    G = random_graph(np.random.default_rng(3), 30)
    blk = structure.Block(G.sources[:40] % 7, G.targets[:40], G.transition_coef[:40], 7, G.n)
    with products_in_parts(k):
        products = {"apply_p": (lambda v: sv.apply_p(G, v), G.n, G.n),
                    "apply_p_transpose": (lambda v: sv.apply_p_transpose(G, v), G.n, G.n),
                    "Block.apply": (blk.apply, blk.ncols, blk.nrows),
                    "Block.apply_t": (blk.apply_t, blk.nrows, blk.ncols)}
        for name, (product, size_in, size_out) in products.items():
            assert product(np.zeros((size_in, 0))).shape == (size_out, 0), name


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("entries", [1, 1000])
def test_a_batch_in_blocks_of_columns_keeps_the_bits_of_each_column(k, entries, monkeypatch):
    """A batch runs in blocks of columns of at most _BATCH_ENTRIES products
    per part (1 or 3 columns here); each column has the bits of its own
    vector product.  The hub's rows of over 129 edges, both ways, are tails."""
    n = 200
    G = sv.from_edge_list([(0, v, 1) for v in range(1, n)] + [(v, 0, -1) for v in range(1, n)]
                          + [(v, v % (n - 1) + 1, 1) for v in range(1, n)])
    V = np.random.default_rng(7).uniform(-1.0, 1.0, (n, 7))
    with products_in_parts(k):
        H = copy_graph(G)
        blk = structure.Block(H.sources, H.targets, H.transition_coef, n, n)
        products = [lambda v: sv.apply_p(H, v), lambda v: sv.apply_p_transpose(H, v),
                    blk.apply, blk.apply_t]
        want = [np.stack([f(V[:, c]) for c in range(7)], axis=1) for f in products]
        monkeypatch.setattr(graph, "_BATCH_ENTRIES", entries)
        got = [f(V) for f in products]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", [1000, (1 << 16) + 3, 1 << 20])
def test_stable_order_matches_a_stable_argsort_past_one_digit(size):
    """`_stable_order` sorts by 16-bit digits, so a size past 2**16 takes a
    second pass over the high digit; tied keys keep their input order.  The
    pool holds keys that share their low digit and differ in the high one."""
    rng = np.random.default_rng(size)
    pool = np.concatenate([rng.integers(0, size, 200), [0, 1, size - 1, (size - 1) & 0xFFFF]])
    keys = rng.choice(pool, 20_000)
    order = graph._stable_order(keys, size)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
