"""Vocabulary, transliteration, corpus loading, mixing, and batching."""

import unicodedata

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charnmt.data import (BOS_ID, EOS_ID, PAD_ID, UNK_ID, ParallelCorpus,
                          TransliterationTable, Vocabulary, batch_from_rows,
                          build_vocab, decode, encode, encode_pair,
                          load_parallel, make_batches, mix_corpora,
                          read_lines, transliterate, write_lines)

from conftest import rand_rng


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_build_vocab_counts_reserved_block():
    corpus = ParallelCorpus(pairs=[("ab", "ba")])
    vocab = build_vocab([corpus], 1)
    assert vocab.size == 6  # PAD, BOS, EOS, UNK, a, b


def test_build_vocab_min_count_threshold():
    corpus = ParallelCorpus(pairs=[("aa", "aaz")])
    vocab = build_vocab([corpus], 2)
    assert encode("z", vocab) == [UNK_ID]
    assert encode("a", vocab) != [UNK_ID]


def test_build_vocab_order_independent():
    pairs = [("ab", "cd"), ("ef", "gh")]
    v1 = build_vocab([ParallelCorpus(pairs=pairs)], 1)
    v2 = build_vocab([ParallelCorpus(pairs=pairs[::-1])], 1)
    assert v1.chars == v2.chars


def test_build_vocab_rejects_empty():
    with pytest.raises(ValueError):
        build_vocab([], 1)


def test_build_vocab_ids_lexicographic():
    corpus = ParallelCorpus(pairs=[("cba", "cba")])
    vocab = build_vocab([corpus], 1)
    assert encode("abc", vocab) == [4, 5, 6]


def test_encode_empty_string_wraps():
    vocab = build_vocab([ParallelCorpus(pairs=[("a", "a")])], 1)
    assert encode_pair("", "", vocab) == ([EOS_ID], [BOS_ID], [EOS_ID])


def test_encode_unknown_char():
    vocab = build_vocab([ParallelCorpus(pairs=[("ab", "ab")])], 1)
    ids = encode("a¤b", vocab)
    assert ids == [encode("a", vocab)[0], UNK_ID, encode("b", vocab)[0]]


@pytest.mark.invariant
def test_round_trip_random_strings():
    vocab = build_vocab([ParallelCorpus(pairs=[("abcdefgh", "abcdefgh")])], 1)
    rng = rand_rng(40)
    alphabet = "abcdefgh"
    for _ in range(50):
        s = "".join(alphabet[i] for i in rng.integers(0, 8, size=rng.integers(0, 30)))
        assert decode(encode(s, vocab), vocab) == s


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab([ParallelCorpus(pairs=[("abc", "xyz")])], 1)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.chars == vocab.chars
    assert encode("axbycz", loaded) == encode("axbycz", vocab)


# ---------------------------------------------------------------------------
# transliteration
# ---------------------------------------------------------------------------

def test_transliterate_appends_separator():
    table = TransliterationTable(mapping={"利": "tjh", "用": "et"})
    assert transliterate("利用", table) == "tjh|et|"


def test_transliterate_empty_table_is_identity():
    table = TransliterationTable(mapping={})
    assert transliterate("any text 123", table) == "any text 123"


def test_transliterate_mixed_passthrough():
    table = TransliterationTable(mapping={"利": "tjh"})
    assert transliterate("a利b", table) == "atjh|b"


@pytest.mark.parametrize("form", ["NFC", "NFD"])
def test_transliteration_table_from_tsv(tmp_path, form):
    # an NFD key (e + combining acute) is read as the one character of NFC text
    path = tmp_path / "table.tsv"
    path.write_text(unicodedata.normalize(form, "利\ttjh\n用\tet\né\te\n"), encoding="utf-8")
    table = TransliterationTable.from_tsv(path)
    assert transliterate("利用é", table) == "tjh|et|e|"


def test_transliteration_table_rejects_duplicates(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("利\ttjh\n利\tqqq\n", encoding="utf-8")
    with pytest.raises(ValueError):
        TransliterationTable.from_tsv(path)


# ---------------------------------------------------------------------------
# text files
# ---------------------------------------------------------------------------

@pytest.mark.invariant
@pytest.mark.parametrize("raw, message", [
    (b"\xef\xbb\xbfab\n", "byte-order mark not allowed"),
    (b"ab\r\ncd\r\n", "line 1 holds a CR"),
    (b"ab\ncd\ref\n", "line 2 holds a CR"),
    (b"ab\n\xff\n", "not UTF-8"),
], ids=["bom", "crlf", "lone-cr", "not-utf8"])
def test_read_lines_rejects_naming_the_file(tmp_path, raw, message):
    path = tmp_path / "in.txt"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        read_lines(path)
    assert str(err.value).startswith(f"{path}: {message}")


@pytest.mark.invariant
def test_read_lines_keeps_empty_lines_and_normalizes_nfc(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(unicodedata.normalize("NFD", "é\n\nb"), encoding="utf-8")
    assert read_lines(path) == ["é", "", "b"]


@pytest.mark.invariant
@pytest.mark.parametrize("lines", [[], [""], ["a", "", "é b"]])
def test_write_lines_round_trips(tmp_path, lines):
    path = tmp_path / "out.txt"
    write_lines(path, lines)
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()
    assert read_lines(path) == lines


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def test_load_parallel_pairs_lines(tmp_path):
    (tmp_path / "s.txt").write_text("one\ntwo\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("uno\ndos\n", encoding="utf-8")
    corpus = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
    assert corpus.pairs == [("one", "uno"), ("two", "dos")]


def test_load_parallel_rejects_count_mismatch(tmp_path):
    (tmp_path / "s.txt").write_text("one\ntwo\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("uno\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")


@pytest.mark.invariant
def test_load_parallel_rejects_empty_line_with_number(tmp_path):
    (tmp_path / "s.txt").write_text("one\n\nthree\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
    assert "2" in str(err.value)


@pytest.mark.invariant
def test_load_parallel_rejects_crlf_and_bom(tmp_path):
    (tmp_path / "s.txt").write_bytes(b"one\r\ntwo\r\n")
    (tmp_path / "t.txt").write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
    (tmp_path / "s2.txt").write_bytes(b"\xef\xbb\xbfone\n")
    (tmp_path / "t2.txt").write_text("a\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_parallel(tmp_path / "s2.txt", tmp_path / "t2.txt")


@pytest.mark.invariant
def test_load_parallel_normalizes_nfc(tmp_path):
    decomposed = "é"  # e + combining acute
    (tmp_path / "s.txt").write_text(decomposed + "\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("e\n", encoding="utf-8")
    corpus = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt")
    assert corpus.pairs[0][0] == "é"


# ---------------------------------------------------------------------------
# corpus mixing
# ---------------------------------------------------------------------------

@pytest.mark.invariant
def test_mix_corpora_preserves_multiset():
    a = ParallelCorpus(pairs=[(f"a{i}", f"A{i}") for i in range(3)])
    b = ParallelCorpus(pairs=[(f"b{i}", f"B{i}") for i in range(4)])
    mixed = mix_corpora([a, b], seed=1)
    assert len(mixed.pairs) == 7
    assert sorted(mixed.pairs) == sorted(a.pairs + b.pairs)


def test_mix_corpora_deterministic():
    a = ParallelCorpus(pairs=[(str(i), str(i)) for i in range(20)])
    m1 = mix_corpora([a], seed=9)
    m2 = mix_corpora([a], seed=9)
    assert m1.pairs == m2.pairs
    assert m1.pairs != a.pairs  # the seeded shuffle actually permutes


def test_mix_corpora_rejects_empty_list():
    with pytest.raises(ValueError):
        mix_corpora([], seed=0)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _toy_vocab():
    return build_vocab([ParallelCorpus(pairs=[("abcdefgh", "abcdefgh")])], 1)


def test_encode_pair_layout():
    vocab = _toy_vocab()
    src, tgt_in, tgt_out = encode_pair("ab", "cd", vocab)
    assert src == encode("ab", vocab) + [EOS_ID]
    assert tgt_in == [BOS_ID] + encode("cd", vocab)
    assert tgt_out == encode("cd", vocab) + [EOS_ID]


@pytest.mark.invariant
def test_batch_masks_mark_exactly_the_pads():
    vocab = _toy_vocab()
    batch = batch_from_rows([encode_pair("abcd", "ab", vocab),
                             encode_pair("ab", "abcdef", vocab)])
    assert np.array_equal(batch.src_mask, batch.src_ids != PAD_ID)
    assert np.array_equal(batch.tgt_mask, batch.tgt_out_ids != PAD_ID)
    assert (batch.tgt_in_ids[:, 0] == BOS_ID).all()
    # every real non-BOS input token is the previous position's output token,
    # and every row's real output content ends with EOS
    real = batch.tgt_in_ids[:, 1:] != PAD_ID
    assert np.array_equal(batch.tgt_in_ids[:, 1:][real], batch.tgt_out_ids[:, :-1][real])
    lengths = batch.tgt_mask.sum(axis=1)
    for row, n in enumerate(lengths):
        assert batch.tgt_out_ids[row, n - 1] == EOS_ID


def test_single_batch_when_budget_is_large():
    vocab = _toy_vocab()
    corpus = ParallelCorpus(pairs=[("ab", "cd"), ("ef", "gh")])
    batches = make_batches(corpus, vocab, max_tokens=10_000, seed=0)
    assert len(batches) == 1
    assert len(batches[0].src_ids) == 2


def test_oversize_pair_error_names_line():
    vocab = _toy_vocab()
    corpus = ParallelCorpus(pairs=[("ab", "cd"), ("abcdefgh", "a")])
    with pytest.raises(ValueError) as err:
        make_batches(corpus, vocab, max_tokens=6, seed=0)
    assert "line 2" in str(err.value)


@pytest.mark.invariant
def test_batches_cover_corpus_exactly_once():
    vocab = _toy_vocab()
    rng = rand_rng(41)
    pairs = []
    for i in range(37):
        n = int(rng.integers(1, 8))
        s = "".join("abcdefgh"[j] for j in rng.integers(0, 8, size=n))
        pairs.append((s, s[::-1]))
    corpus = ParallelCorpus(pairs=pairs)
    batches = make_batches(corpus, vocab, max_tokens=40, seed=3)
    seen = []
    for batch in batches:
        for row in range(len(batch.src_ids)):
            src = decode(batch.src_ids[row][batch.src_mask[row]][:-1].tolist(), vocab)
            tgt = decode(batch.tgt_out_ids[row][batch.tgt_mask[row]][:-1].tolist(), vocab)
            seen.append((src, tgt))
    assert sorted(seen) == sorted(pairs)


def test_batches_respect_token_budget():
    vocab = _toy_vocab()
    rng = rand_rng(42)
    pairs = []
    for _ in range(60):
        n = int(rng.integers(1, 9))
        s = "".join("abcdefgh"[j] for j in rng.integers(0, 8, size=n))
        pairs.append((s, s))
    corpus = ParallelCorpus(pairs=pairs)
    budget = 30
    for batch in make_batches(corpus, vocab, max_tokens=budget, seed=4):
        width = max(batch.src_ids.shape[1], batch.tgt_in_ids.shape[1])
        assert len(batch.src_ids) * width <= budget


_TEXT = st.text("abcdefgh", max_size=12)


@pytest.mark.invariant
@given(pairs=st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=30),
       slack=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_batches_pack_any_corpus_once_within_budget(pairs, slack, seed):
    """Over random corpora and any budget that fits the longest pair, every
    pair lands in exactly one row, no batch exceeds the budget, and the masks
    mark exactly the real ids."""
    vocab = _toy_vocab()
    budget = max(max(len(s), len(t)) + 1 for s, t in pairs) + slack
    seen = []
    for batch in make_batches(ParallelCorpus(pairs=pairs), vocab, max_tokens=budget, seed=seed):
        rows, width = batch.src_ids.shape[0], max(batch.src_ids.shape[1],
                                                   batch.tgt_in_ids.shape[1])
        assert rows * width <= budget
        assert np.array_equal(batch.src_mask, batch.src_ids != PAD_ID)
        assert np.array_equal(batch.tgt_mask, batch.tgt_in_ids != PAD_ID)
        assert np.array_equal(batch.tgt_mask, batch.tgt_out_ids != PAD_ID)
        for row in range(rows):
            seen.append((decode(batch.src_ids[row][batch.src_mask[row]][:-1].tolist(), vocab),
                         decode(batch.tgt_out_ids[row][batch.tgt_mask[row]][:-1].tolist(),
                                vocab)))
    assert sorted(seen) == sorted(pairs)


def test_batch_order_is_seeded():
    vocab = _toy_vocab()
    pairs = [("a" * (i % 7 + 1), "b") for i in range(40)]
    corpus = ParallelCorpus(pairs=pairs)
    b1 = make_batches(corpus, vocab, max_tokens=24, seed=5)
    b2 = make_batches(corpus, vocab, max_tokens=24, seed=5)
    assert all(np.array_equal(x.src_ids, y.src_ids) for x, y in zip(b1, b2))
