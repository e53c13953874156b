import random

import numpy as np
import pytest

from vulngraph.errors import GraphBuildError
from vulngraph.lexer import STREAM_CAPACITY, tokenize
from vulngraph.semgraph import (EdgeKind, TypedEdge, build_graph,
                                control_edges, data_edges, poacher_edges,
                                sequential_edges)
from conftest import fuzz_snippet


def payload_index(stream, text, occurrence=0):
    hits = [i for i, t in enumerate(stream.tokens[:stream.content_len])
            if t.text == text]
    return hits[occurrence]


class TestSequential:
    def test_chain_length(self):
        stream = tokenize("int f(){return 0;}")
        edges = sequential_edges(stream)
        assert len(edges) == stream.content_len - 1 == 10
        assert [(e.src, e.dst) for e in edges] == [
            (i, i + 1) for i in range(10)]

    def test_two_token_stream(self):
        stream = tokenize("/*x*/")
        assert len(sequential_edges(stream)) == 1


class TestControl:
    def test_if_links_to_statement_after_condition(self):
        stream = tokenize("if(x){y=1;}")
        edges = control_edges(stream)
        if_pos = payload_index(stream, "if")
        brace_pos = payload_index(stream, "{")
        assert (if_pos, brace_pos) in [(e.src, e.dst) for e in edges]

    def test_no_control_keywords_no_edges(self):
        assert control_edges(tokenize("a = b + c;")) == []

    def test_while_single_site(self):
        stream = tokenize("while(a) b=1; c=2;")
        edges = control_edges(stream)
        assert len(edges) == 1
        assert edges[0].src == payload_index(stream, "while")
        assert edges[0].dst == payload_index(stream, "b")

    def test_if_else_pairing(self):
        stream = tokenize("if(a){x=1;}else{y=2;}")
        edges = control_edges(stream)
        if_pos = payload_index(stream, "if")
        else_pos = payload_index(stream, "else")
        assert (if_pos, else_pos) in [(e.src, e.dst) for e in edges]

    def test_unbalanced_parentheses_raise(self):
        stream = tokenize("while(a { b=1; }")
        with pytest.raises(GraphBuildError, match="while"):
            control_edges(stream)


class TestData:
    def test_def_use_pair(self):
        stream = tokenize("x=1; y=x+2;")
        edges = data_edges(stream)
        first_x = payload_index(stream, "x", 0)
        second_x = payload_index(stream, "x", 1)
        assert [(e.src, e.dst) for e in edges] == [(first_x, second_x)]

    def test_all_distinct_identifiers(self):
        assert data_edges(tokenize("a = b + c;")) == []

    def test_three_occurrences_chain_consecutively(self):
        stream = tokenize("v=1; v=v;")
        pos = [payload_index(stream, "v", i) for i in range(3)]
        pairs = [(e.src, e.dst) for e in data_edges(stream)]
        assert (pos[0], pos[1]) in pairs
        assert (pos[1], pos[2]) in pairs
        assert (pos[0], pos[2]) not in pairs


class TestPoacher:
    def test_risk_call_to_arguments(self):
        stream = tokenize("strcpy(dst,src);")
        edges = poacher_edges(stream)
        call = payload_index(stream, "strcpy")
        pairs = {(e.src, e.dst) for e in edges}
        assert (call, payload_index(stream, "dst")) in pairs
        assert (call, payload_index(stream, "src")) in pairs
        assert len(edges) == 2

    def test_pure_arithmetic_has_none(self):
        assert poacher_edges(tokenize("int f(int a){return a+a*2;}")) == []

    def test_subscript_links_to_array(self):
        stream = tokenize("a[i]=0;")
        edges = poacher_edges(stream)
        bracket = payload_index(stream, "[")
        assert (bracket, payload_index(stream, "a")) in [
            (e.src, e.dst) for e in edges]

    def test_arrow_links_to_object(self):
        stream = tokenize("p->q = 1;")
        edges = poacher_edges(stream)
        arrow = payload_index(stream, "->")
        assert (arrow, payload_index(stream, "p")) in [
            (e.src, e.dst) for e in edges]


class TestBuildGraph:
    def test_two_token_active_block(self):
        graph = build_graph(tokenize("/*x*/"))
        assert graph.adjacency.shape == (2, 2)
        np.testing.assert_allclose(graph.adjacency.sum(axis=1), [1.0, 1.0])

    def test_counts_symmetric(self):
        rng = random.Random(3)
        for _ in range(10):
            graph = build_graph(tokenize(fuzz_snippet(rng)))
            assert np.array_equal(graph.counts, graph.counts.T)

    def test_row_sums_on_example(self):
        graph = build_graph(tokenize("int f(){return 0;}"))
        active = graph.stream.content_len
        sums = graph.adjacency.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(active), atol=1e-12)

    def test_pad_rows_and_columns_zero(self):
        # streams carry no padding: no rows or columns past the last token
        graph = build_graph(tokenize("a=b;"))
        active = graph.stream.content_len
        assert active < STREAM_CAPACITY
        assert graph.counts.shape == graph.adjacency.shape == (active, active)

    @pytest.mark.parametrize("source, active", [
        ("/* no tokens */", 2),
        ("int f(){return 0;}", 11),
        ("void f() {\n" + "x = 1;\n" * 200 + "}", STREAM_CAPACITY),
    ], ids=["empty", "short", "truncated"])
    def test_operator_is_content_len_square(self, source, active):
        stream = tokenize(source)
        assert stream.content_len == active
        graph = build_graph(stream)
        assert graph.counts.shape == graph.adjacency.shape == (active, active)

    def test_self_loops_positive_on_diagonal(self):
        graph = build_graph(tokenize("a=b;"))
        assert (np.diag(graph.adjacency) > 0).all()

    def test_edges_never_touch_pad(self):
        rng = random.Random(9)
        for _ in range(20):
            graph = build_graph(tokenize(fuzz_snippet(rng)))
            active = graph.stream.content_len
            for edge in graph.edges:
                assert edge.src < active and edge.dst < active
                assert edge.src != edge.dst

    def test_deterministic_bit_identical(self):
        source = fuzz_snippet(random.Random(4))
        a = build_graph(tokenize(source))
        b = build_graph(tokenize(source))
        assert a.edges == b.edges
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_monotone_composition(self):
        source = "if(a){strcpy(buf,src); buf[i]=0;} a=a+1;"
        stream = tokenize(source)
        full_nonzero = build_graph(stream).adjacency != 0
        assert np.all(np.diag(full_nonzero))
        for family in (sequential_edges, control_edges, data_edges,
                       poacher_edges):
            for edge in family(stream):
                assert full_nonzero[edge.src, edge.dst]
                assert full_nonzero[edge.dst, edge.src]

    def test_family_toggles(self):
        stream = tokenize("if(a){strcpy(buf,src);} a=a+1;")
        families = {EdgeKind.SEQUENTIAL: sequential_edges(stream),
                    EdgeKind.CONTROL: control_edges(stream),
                    EdgeKind.DATA: data_edges(stream),
                    EdgeKind.POACHER: poacher_edges(stream)}
        for kind, edges in families.items():
            assert edges and {e.kind for e in edges} == {kind}
        # the graph is the four families in this order
        assert build_graph(stream).edges == tuple(
            edge for edges in families.values() for edge in edges)

    def test_edges_are_stable(self):
        graph = build_graph(tokenize("if(x){y=1;}"))
        assert graph.edges[0] == TypedEdge(0, 1, EdgeKind.SEQUENTIAL)
        assert any(e.kind is EdgeKind.CONTROL for e in graph.edges)
        assert graph.edges == build_graph(tokenize("if(x){y=1;}")).edges

    def test_truncated_stream_builds_without_error(self):
        # the final 'while (' condition is cut off by the capacity limit
        body = "\n".join(f"x{i} = {i};" for i in range(170))
        source = "void f() {\n" + body + "\nwhile (x0 > 0) { x1 = 2; }\n}"
        stream = tokenize(source)
        assert stream.truncated
        graph = build_graph(stream)
        assert graph.adjacency.shape == (STREAM_CAPACITY, STREAM_CAPACITY)
