import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadapt import corpus
from metadapt.corpus import (ClassSplit, DataError, Example, Vocab,
                             embed_sentence, gen_synthetic_corpus, load_embeddings,
                             load_jsonl_dataset, split_classes, tokenize)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestTokenize:
    def test_basic(self):
        assert tokenize("Senate committee advances bill") == \
            ["senate", "committee", "advances", "bill"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_strip(self):
        assert tokenize("Robert Mueller.") == ["robert", "mueller"]

    def test_inner_punctuation_kept(self):
        assert tokenize("it's co-op") == ["it's", "co-op"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("hello -- world !!") == ["hello", "world"]

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_tokens_lowercase_no_edge_punct(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()
            assert tok == tok.strip("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    @settings(max_examples=200)
    def test_idempotent(self, text):
        toks = tokenize(text)
        assert tokenize(" ".join(toks)) == toks


class TestLoadJsonl:
    def test_two_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "alpha beta", "label": "a"},
                           {"text": "gamma", "label": "b"}])
        ds = load_jsonl_dataset(path)
        assert len(ds.examples) == 2
        assert ds.classes == {0, 1}
        assert ds.label_names == ("a", "b")
        assert ds.examples[0].token_ids == (0, 1)
        assert ds.examples[1].token_ids == (2,)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="no examples"):
            load_jsonl_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_jsonl_dataset(tmp_path / "absent.jsonl")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            load_jsonl_dataset(path)

    def test_missing_field_reports_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "ok", "label": "a"}, {"text": "no label"}])
        with pytest.raises(DataError, match=":2:"):
            load_jsonl_dataset(path)

    def test_empty_text_skipped_with_count(self, tmp_path, caplog):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "... !!", "label": "a"},
                           {"text": "kept", "label": "a"}])
        with caplog.at_level("WARNING"):
            ds = load_jsonl_dataset(path)
        assert len(ds.examples) == 1
        assert ds.skipped == 1
        assert any("skipped 1" in r.message for r in caplog.records)

    def test_labels_first_appearance_order(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": "x", "label": "z"},
                           {"text": "y", "label": "a"},
                           {"text": "w", "label": "z"}])
        ds = load_jsonl_dataset(path)
        assert ds.label_names == ("z", "a")
        assert [ex.label for ex in ds.examples] == [0, 1, 0]

    def test_class_index_partitions(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"text": f"tok{i}", "label": f"c{i % 3}"}
                           for i in range(9)])
        ds = load_jsonl_dataset(path)
        seen = sorted(i for ix in ds.class_index.values() for i in ix)
        assert seen == list(range(9))
        for c, ix in ds.class_index.items():
            assert all(ds.examples[i].label == c for i in ix)
            assert ix.dtype == np.intp and not ix.flags.writeable
        # the index arrays take no part in equality, which they would make ambiguous
        assert ds == load_jsonl_dataset(path)

    def test_custom_fields_and_truncation(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"body": "a b c d e", "cat": "x"},
                           {"body": "f g", "cat": "y"}])
        ds = load_jsonl_dataset(path, label_field="cat", text_field="body", max_len=3)
        assert len(ds.examples[0].token_ids) == 3


def write_vec(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for tok, vals in rows:
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vals) + "\n")


class TestLoadEmbeddings:
    def test_three_tokens(self, tmp_path):
        path = tmp_path / "e.vec"
        rows = [("a", [1.0, 2.0, 3.0, 4.0]),
                ("b", [0.5, 0.25, -1.0, 0.0]),
                ("c", [9.0, 8.0, 7.0, 6.0])]
        write_vec(path, rows)
        vocab = Vocab.from_tokens(["a", "b", "c"])
        table = load_embeddings(path, vocab)
        assert table.dim == 4
        assert table.oov_count == 0
        for i, (_, vals) in enumerate(rows):
            assert np.array_equal(table.matrix[i], vals)

    def test_oov_zero_row(self, tmp_path):
        path = tmp_path / "e.vec"
        write_vec(path, [("a", [1.0, 2.0])])
        vocab = Vocab.from_tokens(["a", "missing"])
        table = load_embeddings(path, vocab)
        assert table.oov_count == 1
        assert np.array_equal(table.matrix[1], [0.0, 0.0])

    def test_header_sets_dim(self, tmp_path):
        path = tmp_path / "e.vec"
        rng = np.random.default_rng(0)
        rows = [("a", list(rng.normal(size=300))), ("b", list(rng.normal(size=300)))]
        write_vec(path, rows, header="2 300")
        table = load_embeddings(path, Vocab.from_tokens(["a", "b"]))
        assert table.dim == 300
        assert np.allclose(table.matrix[0], rows[0][1])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("a 1.0 2.0\nb 1.0 2.0 3.0\n")
        with pytest.raises(DataError, match="dimension mismatch.*'b'"):
            load_embeddings(path, Vocab.from_tokens(["a", "b"]))

    def test_non_numeric_reports_token(self, tmp_path):
        path = tmp_path / "e.vec"
        path.write_text("a 1.0 oops\n")
        with pytest.raises(DataError, match="non-numeric.*'a'"):
            load_embeddings(path, Vocab.from_tokens(["a"]))

    def test_order_independent(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [(f"t{i}", list(rng.normal(size=5))) for i in range(6)]
        vocab = Vocab.from_tokens([t for t, _ in rows])
        p1, p2 = tmp_path / "a.vec", tmp_path / "b.vec"
        write_vec(p1, rows)
        write_vec(p2, rows[::-1])
        t1 = load_embeddings(p1, vocab)
        t2 = load_embeddings(p2, vocab)
        assert np.array_equal(t1.matrix, t2.matrix)

    def test_extra_tokens_ignored(self, tmp_path):
        path = tmp_path / "e.vec"
        write_vec(path, [("a", [1.0]), ("unused", [2.0])])
        table = load_embeddings(path, Vocab.from_tokens(["a"]))
        assert table.matrix.shape == (1, 1)


_LINES = {   # a corpus and an embedding file, four lines each, whose
    # line 3 ends in a Latin-1 "\u00e9"
    "dataset": [b'{"label": "a", "text": "w0"}'] * 2
    + [b'{"label": "b", "text": "caf\xe9"}', b'{"label": "b", "text": "w1"}'],
    "embeddings": [b"w0 1 2", b"w1 3 4", b"caf\xe9 5 6", b"w2 7 8"],
}


def load(kind, path):
    if kind == "dataset":
        return load_jsonl_dataset(path)
    return load_embeddings(path, Vocab.from_tokens(["w0", "w1", "w2"]))


class TestNotUtf8:
    """A line that does not decode is a DataError numbered as every other
    loader error numbers its line, from one read of the file."""

    @pytest.mark.parametrize("kind", sorted(_LINES))
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_line_numbered_as_text_lines(self, kind, newline, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(newline.join(_LINES[kind]) + newline)
        with pytest.raises(DataError, match=r"bad.txt:3: not UTF-8 text: "
                                            r"'utf-8' codec can't decode byte 0xe9"):
            load(kind, path)
        # a line that decodes but does not parse gets the same number
        lines = list(_LINES[kind])
        lines[2] = b"{" if kind == "dataset" else b"w1 5"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(DataError, match=r"bad.txt:3: "):
            load(kind, path)

    @pytest.mark.parametrize("kind", sorted(_LINES))
    def test_file_opened_once(self, kind, tmp_path, monkeypatch):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\n".join(_LINES[kind]))
        opened = []

        def counting(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(corpus, "open", counting, raising=False)
        with pytest.raises(DataError, match="not UTF-8 text"):
            load(kind, path)
        assert opened == [path]


class TestVocab:
    def test_contiguous_ids(self):
        vocab = Vocab.from_tokens(["x", "y", "z"])
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocab.from_tokens(["x", "x"])


class TestSplitClasses:
    def test_sizes_disjoint_20news_shape(self):
        # 20-class corpus split 8/5/7
        rng = np.random.default_rng(0)
        split = split_classes(range(20), (8, 5, 7), rng)
        assert (len(split.train_classes), len(split.val_classes),
                len(split.test_classes)) == (8, 5, 7)
        assert not split.train_classes & split.val_classes
        assert not split.train_classes & split.test_classes
        assert not split.val_classes & split.test_classes
        union = split.train_classes | split.val_classes | split.test_classes
        assert len(union) == 20

    def test_exhaustive(self):
        rng = np.random.default_rng(0)
        split = split_classes({1, 2, 3}, (3, 0, 0), rng)
        assert split.train_classes == {1, 2, 3}
        assert not split.val_classes and not split.test_classes

    def test_deterministic(self):
        a = split_classes(range(10), (4, 3, 3), np.random.default_rng(7))
        b = split_classes(range(10), (4, 3, 3), np.random.default_rng(7))
        assert a == b

    def test_counts_exceed(self):
        with pytest.raises(ValueError):
            split_classes(range(3), (2, 1, 1), np.random.default_rng(0))

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            ClassSplit(frozenset({1}), frozenset({1}), frozenset())


class TestEmbedSentence:
    def make_table(self):
        rng = np.random.default_rng(3)
        ds, table, vocab = gen_synthetic_corpus(3, 4, 6, 1, 8, 4, seed=3)
        return ds, table

    def test_single_token(self, tmp_path):
        path = tmp_path / "e.vec"
        write_vec(path, [("a", [1.0, 2.0, 3.0])])
        table = load_embeddings(path, Vocab.from_tokens(["a"]))
        W = embed_sentence(Example(token_ids=(0,), label=0), table)
        assert W.shape == (3, 1)
        assert np.array_equal(W[:, 0], [1.0, 2.0, 3.0])

    def test_repeated_tokens_identical_columns(self, tmp_path):
        path = tmp_path / "e.vec"
        write_vec(path, [("a", [1.0, -1.0]), ("b", [2.0, 0.5])])
        table = load_embeddings(path, Vocab.from_tokens(["a", "b"]))
        W = embed_sentence(Example(token_ids=(1, 0, 1), label=0), table)
        assert np.array_equal(W[:, 0], W[:, 2])
        assert np.array_equal(W[:, 0], [2.0, 0.5])

    def test_columns_match_fixture_rows(self, tmp_path):
        path = tmp_path / "e.vec"
        rows = [("a", [1.0, 2.0, 3.0, 4.0]),
                ("b", [5.0, 6.0, 7.0, 8.0]),
                ("c", [-1.0, -2.0, -3.0, -4.0])]
        write_vec(path, rows)
        table = load_embeddings(path, Vocab.from_tokens(["a", "b", "c"]))
        W = embed_sentence(Example(token_ids=(2, 0, 1), label=0), table)
        assert W.shape == (4, 3)
        assert np.array_equal(W[:, 0], rows[2][1])
        assert np.array_equal(W[:, 1], rows[0][1])
        assert np.array_equal(W[:, 2], rows[1][1])

    def test_round_trip_every_column_is_a_row(self):
        ds, table = self.make_table()
        for ex in ds.examples[:10]:
            W = embed_sentence(ex, table)
            assert W.shape == (table.dim, len(ex.token_ids))
            for j, tid in enumerate(ex.token_ids):
                assert np.array_equal(W[:, j], table.matrix[tid])

    def test_empty_rejected(self):
        ds, table = self.make_table()
        with pytest.raises(ValueError):
            embed_sentence(Example(token_ids=(), label=0), table)
