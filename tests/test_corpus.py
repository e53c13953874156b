import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulngraph.corpus import (FunctionRecord, describe_cwe, load_dataset,
                              save_dataset, select, split)
from vulngraph.errors import DataError


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")


def make_records(n, vulnerable_every=None):
    records = []
    for i in range(n):
        cwe = None
        start = end = None
        if vulnerable_every and i % vulnerable_every == 0:
            cwe, start, end = "CWE-119", 1, 1
        records.append(FunctionRecord(
            id=f"r{i}", source=f"int f{i}() {{ return {i}; }}",
            language="c", cwe=cwe, vul_start=start, vul_end=end))
    return records


class TestLoad:
    def test_minimal_benign_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "source": "int f(){return 0;}",
                            "language": "c"}])
        records = load_dataset(path)
        assert len(records) == 1
        assert records[0].cwe is None
        assert not records[0].is_vulnerable

    def test_start_after_end_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "bad", "source": "a\nb\nc\nd",
                            "language": "c", "cwe": "CWE-119",
                            "vul_start": 3, "vul_end": 2}])
        with pytest.raises(DataError, match="bad"):
            load_dataset(path)

    def test_range_within_line_count_accepted(self, tmp_path):
        source = "int f(int n) {\n  int x = n;\n  return x;\n}"
        assert len(source.split("\n")) == 4  # the line-count oracle
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "ok", "source": source, "language": "c",
                            "cwe": "CWE-119", "vul_start": 2, "vul_end": 2}])
        records = load_dataset(path)
        assert records[0].vul_start == 2

    def test_range_beyond_line_count_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "over", "source": "int f(){return 0;}",
                            "language": "c", "cwe": "CWE-119",
                            "vul_start": 1, "vul_end": 2}])
        with pytest.raises(DataError, match="over"):
            load_dataset(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "source": "int f(){}", "language": "c"}\n'
                        "{not json}\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "source": "x = 1;", "language": "c",
                            "cwe": "CWE-777", "vul_start": 1, "vul_end": 1}])
        with pytest.raises(DataError, match="CWE-777"):
            load_dataset(path)

    def test_binary_label_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "source": "x = 1;", "language": "c",
                            "cwe": "VULN", "vul_start": 1, "vul_end": 1}])
        assert load_dataset(path)[0].cwe == "VULN"

    def test_benign_with_range_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "a", "source": "x = 1;", "language": "c",
                            "vul_start": 1, "vul_end": 1}])
        with pytest.raises(DataError):
            load_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "a", "source": "x = 1;", "language": "c"},
            {"id": "a", "source": "y = 2;", "language": "c"},
        ])
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        source_rows = [
            {"id": "a", "source": "int f(){\nreturn 0;\n}", "language": "c",
             "cwe": "CWE-476", "vul_start": 2, "vul_end": 2,
             "file": "x.c", "file_start_line": 10},
            {"id": "b", "source": "void g(){}", "language": "cpp"},
        ]
        path = tmp_path / "d.jsonl"
        write_jsonl(path, source_rows)
        records = load_dataset(path)
        out = tmp_path / "out.jsonl"
        save_dataset(records, out)
        assert load_dataset(out) == records

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_round_trip_keeps_line_break_characters(self, tmp_path, char):
        records = [FunctionRecord(id=f"a{char}", language="c",
                                  source=f'int f(){{\nchar *s = "{char}";\n}}'),
                   FunctionRecord(id="b", language="c", source="void g(){}")]
        path = tmp_path / "d.jsonl"
        save_dataset(records, path)
        assert char in path.read_text(encoding="utf-8")
        assert load_dataset(path) == records


class TestSplit:
    def test_even_division(self):
        s = split(make_records(100), seed=7)
        assert (len(s.train), len(s.val), len(s.test)) == (80, 10, 10)

    def test_deterministic(self):
        records = make_records(50)
        assert split(records, seed=3) == split(records, seed=3)
        assert split(records, seed=3) != split(records, seed=4)

    def test_remainder_goes_to_train_first(self):
        s = split(make_records(101), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (81, 10, 10)

    def test_too_few_records(self):
        with pytest.raises(DataError):
            split(make_records(9), seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=10, max_value=400),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_split_is_a_partition(self, n, seed):
        records = make_records(n)
        s = split(records, seed)
        ids = {r.id for r in records}
        assert set(s.train) | set(s.val) | set(s.test) == ids
        assert len(s.train) + len(s.val) + len(s.test) == n
        assert not set(s.train) & set(s.val)
        assert not set(s.train) & set(s.test)
        assert not set(s.val) & set(s.test)
        # 80:10:10 within one record of the exact proportions
        assert abs(len(s.train) - 0.8 * n) <= 1
        assert abs(len(s.val) - 0.1 * n) <= 1
        assert abs(len(s.test) - 0.1 * n) <= 1

    def test_select_preserves_order(self):
        records = make_records(12)
        picked = select(records, ["r3", "r1"])
        assert [r.id for r in picked] == ["r3", "r1"]


class TestCatalog:
    def test_describe_null_pointer(self):
        assert "NULL Pointer Dereference" in describe_cwe("CWE-476")

    def test_describe_integer_overflow(self):
        assert "Integer Overflow" in describe_cwe("CWE-190")

    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(DataError, match="CWE-119"):
            describe_cwe("CWE-999")

    def test_exactly_ten_classes_bijective(self, catalog):
        assert len(catalog) == 10
        indices = sorted(catalog.class_index(c) for c in catalog.ids())
        assert indices == list(range(1, 11))
        for cwe in catalog.ids():
            assert catalog.cwe_for_index(catalog.class_index(cwe)) == cwe

    def test_descriptions_are_short(self, catalog):
        for cwe in catalog.ids():
            assert len(catalog.describe(cwe)) <= 200
