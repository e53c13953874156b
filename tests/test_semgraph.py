import random

import numpy as np
import pytest

from vulngraph.errors import GraphBuildError
from vulngraph.lexer import STREAM_CAPACITY, closers, tokenize
from vulngraph.semgraph import (build_graph, control_edges, data_edges,
                                poacher_edges, sequential_edges)
from vulngraph.tensor import DENSE_ROWS, OPERATOR_WIDTH
from conftest import (HUB_SOURCE, LONG_SOURCE, dense_adjacency, families,
                      fuzz_snippet, to_dense)


def payload_index(stream, text, occurrence=0):
    hits = [i for i, t in enumerate(stream.tokens[:stream.content_len])
            if t.text == text]
    return hits[occurrence]


def control(stream):
    return control_edges(stream, closers(stream.tokens, "(", ")"))


def poacher(stream):
    return poacher_edges(stream, closers(stream.tokens, "(", ")"))


def pairs(edges):
    """A family's (src, dst) arrays as a list of (src, dst) pairs."""
    src, dst = edges
    return [(int(a), int(b)) for a, b in zip(src, dst)]


class TestSequential:
    def test_chain_length(self):
        stream = tokenize("int f(){return 0;}")
        edges = pairs(sequential_edges(stream))
        assert len(edges) == stream.content_len - 1 == 10
        assert edges == [(i, i + 1) for i in range(10)]

    def test_two_token_stream(self):
        stream = tokenize("/*x*/")
        assert pairs(sequential_edges(stream)) == [(0, 1)]


class TestControl:
    def test_if_links_to_statement_after_condition(self):
        stream = tokenize("if(x){y=1;}")
        edges = pairs(control(stream))
        if_pos = payload_index(stream, "if")
        brace_pos = payload_index(stream, "{")
        assert (if_pos, brace_pos) in edges

    def test_no_control_keywords_no_edges(self):
        assert pairs(control(tokenize("a = b + c;"))) == []

    def test_while_single_site(self):
        stream = tokenize("while(a) b=1; c=2;")
        assert pairs(control(stream)) == [
            (payload_index(stream, "while"), payload_index(stream, "b"))]

    def test_if_else_pairing(self):
        stream = tokenize("if(a){x=1;}else{y=2;}")
        edges = pairs(control(stream))
        if_pos = payload_index(stream, "if")
        else_pos = payload_index(stream, "else")
        assert (if_pos, else_pos) in edges

    def test_unbalanced_parentheses_raise(self):
        stream = tokenize("while(a { b=1; }")
        with pytest.raises(GraphBuildError, match="while"):
            control(stream)


class TestData:
    def test_def_use_pair(self):
        stream = tokenize("x=1; y=x+2;")
        first_x = payload_index(stream, "x", 0)
        second_x = payload_index(stream, "x", 1)
        assert pairs(data_edges(stream)) == [(first_x, second_x)]

    def test_all_distinct_identifiers(self):
        assert pairs(data_edges(tokenize("a = b + c;"))) == []

    def test_three_occurrences_chain_consecutively(self):
        stream = tokenize("v=1; v=v;")
        pos = [payload_index(stream, "v", i) for i in range(3)]
        edges = pairs(data_edges(stream))
        assert (pos[0], pos[1]) in edges
        assert (pos[1], pos[2]) in edges
        assert (pos[0], pos[2]) not in edges


class TestPoacher:
    def test_risk_call_to_arguments(self):
        stream = tokenize("strcpy(dst,src);")
        edges = pairs(poacher(stream))
        call = payload_index(stream, "strcpy")
        assert (call, payload_index(stream, "dst")) in edges
        assert (call, payload_index(stream, "src")) in edges
        assert len(edges) == 2

    def test_pure_arithmetic_has_none(self):
        assert pairs(poacher(
            tokenize("int f(int a){return a+a*2;}"))) == []

    def test_subscript_links_to_array(self):
        stream = tokenize("a[i]=0;")
        bracket = payload_index(stream, "[")
        assert (bracket, payload_index(stream, "a")) in pairs(
            poacher(stream))

    def test_arrow_links_to_object(self):
        stream = tokenize("p->q = 1;")
        arrow = payload_index(stream, "->")
        assert (arrow, payload_index(stream, "p")) in pairs(
            poacher(stream))


class TestBuildGraph:
    def test_two_token_active_block(self):
        dense = to_dense(build_graph(tokenize("/*x*/")))
        assert dense.shape == (2, 2)
        np.testing.assert_allclose(dense.sum(axis=1), [1.0, 1.0])

    def test_counts_symmetric(self):
        # every row holds one self-loop count, so A[r, c] / A[r, r] is the
        # symmetrized count of (r, c)
        rng = random.Random(3)
        for _ in range(10):
            dense = to_dense(build_graph(tokenize(fuzz_snippet(rng))))
            counts = dense / np.diag(dense)[:, None]
            np.testing.assert_allclose(counts, np.rint(counts), atol=1e-12)
            np.testing.assert_allclose(counts, counts.T, atol=1e-12)

    def test_row_sums_on_example(self):
        stream = tokenize("int f(){return 0;}")
        active = stream.content_len
        sums = to_dense(build_graph(stream)).sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(active), atol=1e-12)

    def test_pad_rows_and_columns_zero(self):
        # streams carry no padding: no rows or columns past the last token
        stream = tokenize("a=b;")
        operator = build_graph(stream)
        active = stream.content_len
        assert active < STREAM_CAPACITY
        assert operator.n == active
        assert operator.cols.max() < active

    @pytest.mark.parametrize("source, active", [
        ("/* no tokens */", 2),
        ("int f(){return 0;}", 11),
        ("void f() {\n" + "x = 1;\n" * 200 + "}", STREAM_CAPACITY),
    ], ids=["empty", "short", "truncated"])
    def test_operator_is_content_len_square(self, source, active):
        stream = tokenize(source)
        assert stream.content_len == active
        operator = build_graph(stream)
        assert operator.n == active
        assert to_dense(operator).shape == (active, active)

    def test_self_loops_positive_on_diagonal(self):
        operator = build_graph(tokenize("a=b;"))
        assert (np.diag(to_dense(operator)) > 0).all()

    def test_edges_never_touch_pad(self):
        rng = random.Random(9)
        for _ in range(20):
            stream = tokenize(fuzz_snippet(rng))
            active = stream.content_len
            for src, dst in families(stream).values():
                assert (src < active).all() and (dst < active).all()
                assert (src != dst).all()

    def test_deterministic_bit_identical(self):
        source = fuzz_snippet(random.Random(4))
        a, b = tokenize(source), tokenize(source)
        for name, edges in families(a).items():
            assert pairs(edges) == pairs(families(b)[name]), name
        a, b = build_graph(a), build_graph(b)
        for name in ("start", "cols", "weights", "mirror"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_monotone_composition(self):
        source = "if(a){strcpy(buf,src); buf[i]=0;} a=a+1;"
        stream = tokenize(source)
        full_nonzero = to_dense(build_graph(stream)) != 0
        assert np.all(np.diag(full_nonzero))
        for family in (sequential_edges, control, data_edges, poacher):
            for src, dst in pairs(family(stream)):
                assert full_nonzero[src, dst]
                assert full_nonzero[dst, src]

    def test_family_toggles(self):
        stream = tokenize("if(a){strcpy(buf,src);} a=a+1;")
        for edges in families(stream).values():
            assert pairs(edges)
        # the graph is the four families' operator
        assert np.array_equal(to_dense(build_graph(stream)),
                              dense_adjacency(stream))

    def test_edges_are_stable(self):
        stream = tokenize("if(x){y=1;}")
        assert pairs(sequential_edges(stream))[0] == (0, 1)
        assert pairs(control(stream))
        again = tokenize("if(x){y=1;}")
        for name, edges in families(stream).items():
            assert pairs(edges) == pairs(families(again)[name]), name

    def test_truncated_stream_builds_without_error(self):
        # the final 'while (' condition is cut off by the capacity limit
        body = "\n".join(f"x{i} = {i};" for i in range(170))
        source = "void f() {\n" + body + "\nwhile (x0 > 0) { x1 = 2; }\n}"
        stream = tokenize(source)
        assert stream.truncated
        assert build_graph(stream).n == STREAM_CAPACITY

    def test_truncated_stream_keeps_edges_of_unclosed_brackets(self):
        # the window ends inside "if (" and "memcpy(": neither closes in it
        source = ("void f(int n) {\n    if (n) n = 0;\n    if (memcpy(dst, "
                  + " + ".join(f"n{i}" for i in range(300)) + ")) n = 1;\n}")
        stream = tokenize(source)
        assert stream.truncated
        build_graph(stream)
        # the closed condition links past its ")", the unclosed one links
        # nowhere
        assert pairs(control(stream)) == [
            (payload_index(stream, "if"), payload_index(stream, "n", 2))]
        # the unclosed call reaches every identifier to the window's end
        call = payload_index(stream, "memcpy")
        last = stream.content_len - 2
        assert pairs(poacher(stream)) == [
            (call, j) for j in range(call + 2, last + 1)
            if stream.tokens[j].text.startswith(("dst", "n"))]
        assert stream.tokens[last].text.startswith("n")


class TestSparseOperator:
    """``build_graph``'s operator against ``dense_adjacency``, its oracle."""

    @staticmethod
    def sources():
        rng = random.Random(17)
        return [fuzz_snippet(rng) for _ in range(40)] + [LONG_SOURCE,
                                                          HUB_SOURCE]

    def test_entries_bit_equal_to_dense_oracle(self):
        for source in self.sources():
            stream = tokenize(source)
            operator = build_graph(stream)
            dense = dense_adjacency(stream)
            assert np.array_equal(to_dense(operator), dense)
            # the mirrored entries are the transpose's
            rows = np.repeat(np.arange(operator.n), np.diff(operator.start))
            assert np.array_equal(operator.mirror, dense[operator.cols, rows])

    def test_sources_reach_both_product_paths(self):
        sizes = [build_graph(tokenize(source)).n
                 for source in self.sources()]
        # short functions multiply densely, long ones by padded lists
        assert min(sizes) <= DENSE_ROWS < STREAM_CAPACITY == sizes[-2]
        hub = build_graph(tokenize(HUB_SOURCE))
        assert hub.n > DENSE_ROWS
        # the memcpy row holds more entries than a padded list does
        assert np.diff(hub.start).max() > 250 > OPERATOR_WIDTH

    def test_products_match_dense(self):
        rng = np.random.default_rng(2)
        for source in self.sources():
            stream = tokenize(source)
            operator = build_graph(stream)
            dense = dense_adjacency(stream)
            for width in (1, 7, 48):
                x = rng.normal(size=(dense.shape[0], width))
                np.testing.assert_allclose(operator.apply(x), dense @ x,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    operator.apply_transposed(x), dense.T @ x,
                    rtol=0, atol=1e-12)
