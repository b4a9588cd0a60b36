import hashlib
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import corpus as cp
from synsum import synthetic as syn
from synsum.corpus import (
    Document,
    ParsedSentence,
    STOP_ID,
    START_ID,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    encode_example,
    ids_to_tokens,
    load_corpus,
    write_corpus,
)
from oracles import (
    build_vocabulary_oracle,
    generate_documents_oracle,
    vocabulary_load_oracle,
)


def make_doc(sent_tokens, reference):
    """Left-headed chain trees are enough for corpus-level tests."""
    sentences = []
    for toks in sent_tokens:
        heads = [0] + list(range(1, len(toks)))
        labels = ["root"] + ["dep"] * (len(toks) - 1)
        sentences.append(ParsedSentence(tokens=list(toks), heads=heads, labels=labels))
    return Document(sentences=sentences, reference=list(reference))


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


VALID_RECORD = {
    "sentences": [
        {"tokens": ["cats", "sleep"], "heads": [2, 0], "labels": ["nsubj", "root"]}
    ],
    "reference": ["cats"],
}


# ---------------------------------------------------------------------------
# loading


def test_load_corpus_preserves_order(tmp_path):
    rec2 = {
        "sentences": [
            {"tokens": ["dogs", "bark"], "heads": [2, 0], "labels": ["nsubj", "root"]}
        ],
        "reference": ["dogs"],
    }
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [VALID_RECORD, rec2])
    docs = list(load_corpus(path))
    assert len(docs) == 2
    assert docs[0].source_tokens == ["cats", "sleep"]
    assert docs[1].source_tokens == ["dogs", "bark"]


def test_load_corpus_invalid_json_names_file_and_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [VALID_RECORD])
    with open(path, "a") as fh:
        fh.write('{"reference": \n')
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
        list(load_corpus(path))


def test_load_corpus_names_file_and_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [VALID_RECORD])
    with open(path, "ab") as fh:
        fh.write(b'{"reference": ["caf\xe9"]}\n')
    where = re.escape(str(path))
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{where}: line 2: not UTF-8 \\(byte 0xe9\\)$"):
        list(load_corpus(path))


def test_load_corpus_rejects_cycle_with_line_number(tmp_path):
    bad = {
        "sentences": [
            {"tokens": ["a", "b"], "heads": [2, 1], "labels": ["dep", "dep"]}
        ],
        "reference": ["a"],
    }
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [VALID_RECORD, bad])
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{re.escape(str(path))}: line 2: "):
        list(load_corpus(path))


def test_load_corpus_rejects_multi_root(tmp_path):
    bad = {
        "sentences": [
            {"tokens": ["a", "b"], "heads": [0, 0], "labels": ["root", "root"]}
        ],
        "reference": ["a"],
    }
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [bad])
    with pytest.raises(cp.CorpusFormatError, match="root"):
        list(load_corpus(path))


def test_load_corpus_rejects_rooted_cycle(tmp_path):
    bad = {
        "sentences": [
            {"tokens": ["a", "b", "c"], "heads": [0, 3, 2],
             "labels": ["root", "dep", "dep"]}
        ],
        "reference": ["a"],
    }
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [bad])
    with pytest.raises(cp.CorpusFormatError, match="cycle"):
        list(load_corpus(path))


def test_load_corpus_rejects_length_mismatch(tmp_path):
    bad = {
        "sentences": [{"tokens": ["a", "b"], "heads": [0], "labels": ["root"]}],
        "reference": ["a"],
    }
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [bad])
    with pytest.raises(cp.CorpusFormatError, match="lengths"):
        list(load_corpus(path))


def _with(sentence=None, **record):
    """VALID_RECORD with some fields of the record and its sentence replaced."""
    bad = json.loads(json.dumps(VALID_RECORD))
    bad["sentences"][0].update(sentence or {})
    bad.update(record)
    return bad


@pytest.mark.parametrize("bad, where", [
    # each of these loaded without an error when fields were coerced
    (_with(reference="cats"), "field 'reference'"),
    (_with({"tokens": "ab"}), "sentence 0: field 'tokens'"),
    (_with({"labels": "xy"}), "sentence 0: field 'labels'"),
    (_with({"tokens": [None, "sleep"]}), "sentence 0: field 'tokens'"),
    (_with({"heads": [2.9, 0]}), "sentence 0: field 'heads'"),
    (_with({"heads": ["2", 0]}), "sentence 0: field 'heads'"),
    (_with({"heads": [True, 0]}), "sentence 0: field 'heads'"),
    (_with(reference=["cats", 3]), "field 'reference'"),
    (_with(sentences=["cats sleep"]), "field 'sentences'"),
    (_with(sentences={"tokens": ["cats"]}), "field 'sentences'"),
    (["cats"], "a record must be a JSON object"),
])
def test_load_corpus_rejects_a_field_of_the_wrong_type(tmp_path, bad, where):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [VALID_RECORD, bad])
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{re.escape(str(path))}: line 2(: |, ){where}"):
        list(load_corpus(path))


def test_load_corpus_names_a_missing_field(tmp_path):
    bad = _with()
    del bad["sentences"][0]["heads"]
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [bad])
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{re.escape(str(path))}: line 1, sentence 0: "
                       "missing field 'heads'"):
        list(load_corpus(path))


def test_write_then_load_round_trip(tmp_path):
    docs = syn.generate_documents(seed=3, size=5)
    path = tmp_path / "round.jsonl"
    write_corpus(docs, path)
    loaded = list(load_corpus(path))
    assert len(loaded) == len(docs)
    for a, b in zip(docs, loaded):
        assert a.reference == b.reference
        for sa, sb in zip(a.sentences, b.sentences):
            assert (sa.tokens, sa.heads, sa.labels) == (sb.tokens, sb.heads, sb.labels)


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocabulary_frequency_order():
    docs = [make_doc([["a", "a", "b"]], [])]
    vocab = build_vocabulary(docs, cap=6)
    assert vocab.token_to_id["a"] == 4
    assert vocab.token_to_id["b"] == 5
    vocab5 = build_vocabulary(docs, cap=5)
    assert vocab5.token_to_id["a"] == 4
    assert "b" not in vocab5.token_to_id


def test_build_vocabulary_tie_broken_by_first_appearance():
    docs = [make_doc([["x", "y"], ["y", "x"]], [])]
    vocab = build_vocabulary(docs, cap=6)
    assert vocab.token_to_id["x"] < vocab.token_to_id["y"]


def test_build_vocabulary_empty_corpus_raises():
    with pytest.raises(ValueError, match="empty"):
        build_vocabulary([], cap=10)


def test_build_vocabulary_cap_must_exceed_reserved():
    with pytest.raises(ValueError, match="reserved"):
        build_vocabulary([make_doc([["a"]], [])], cap=4)


def test_build_vocabulary_against_counter_oracle():
    docs = syn.generate_documents(seed=11, size=1000)
    vocab = build_vocabulary(docs, cap=200)
    assert vocab.size == 200

    counts = Counter()
    for doc in docs:
        for tok in doc.source_tokens:
            counts[tok] += 1
        for tok in doc.reference:
            counts[tok] += 1
    kept = vocab.id_to_token[4:]
    kept_counts = [counts[t] for t in kept]
    assert kept_counts == sorted(kept_counts, reverse=True)
    # nothing outside the vocabulary is more frequent than anything inside
    out_max = max(c for t, c in counts.items() if t not in vocab.token_to_id)
    assert out_max <= min(kept_counts)


def test_build_vocabulary_deterministic():
    docs = syn.generate_documents(seed=4, size=10)
    v1 = build_vocabulary(docs, cap=30)
    v2 = build_vocabulary(docs, cap=30)
    assert v1.id_to_token == v2.id_to_token


def test_vocabulary_file_round_trip(tmp_path):
    docs = [make_doc([["alpha", "beta", "alpha"]], ["alpha"])]
    vocab = build_vocabulary(docs, cap=10)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha"  # id 4 = first line after the 4 reserved ids
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


def test_vocabulary_load_names_file_and_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"alpha\nbeta\n\xffgamma\n")
    where = re.escape(str(path))
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{where}: line 3: not UTF-8 \\(byte 0xff\\)$"):
        Vocabulary.load(path)


@settings(max_examples=150, deadline=None)
@given(data=st.lists(st.sampled_from([b"a", b"\xc3\xa9", b" ", b"\n", b"\r",
                                      b"\r\n", b"\xff", b"\xc3", b"\x00",
                                      b"\xef\xbb\xbf"]),
                     max_size=40).map(b"".join))
def test_vocabulary_parsed_from_its_bytes_is_the_file_loaded(tmp_path_factory,
                                                             data):
    """What ``synsum decode`` hashes and parses, the bytes read once, gives
    the vocabulary of loading the file, and of reading it line by line
    (``vocabulary_load_oracle``), or the same named error: newlines
    translated (``\r``, ``\r\n``), empty lines and a missing final newline
    kept as text mode keeps them, a byte-order mark kept in the first token,
    non-UTF-8 bytes reported with file and line."""
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    path.write_bytes(data)

    def load(loader, *args):
        try:
            vocab = loader(*args)
        except cp.CorpusFormatError as exc:
            return str(exc)
        return vocab.id_to_token, vocab.token_to_id

    want = load(vocabulary_load_oracle, path)
    assert load(Vocabulary.load, path, data) == want
    assert load(Vocabulary.load, path) == want


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(st.tuples(
    st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
             min_size=1, max_size=3),
    st.lists(st.sampled_from("abcdefgh"), max_size=4)), min_size=1,
    max_size=6), cap=st.integers(5, 14))
def test_vocabulary_ranks_ties_by_first_appearance_as_the_oracle(docs, cap):
    """Frequent ties among few token types: the vocabulary is the one the
    token-by-token count ranks by (-count, first appearance)."""
    corpus = [make_doc(sentences, reference) for sentences, reference in docs]
    got = build_vocabulary(corpus, cap=cap)
    want = build_vocabulary_oracle(corpus, cap=cap)
    assert got.id_to_token == want.id_to_token
    assert got.token_to_id == want.token_to_id


@settings(max_examples=120, deadline=None)
@given(syllables=st.lists(st.sampled_from(["x", "y", "zz", "th", "e", "i",
                                           "t", "xy", "ee"]),
                          min_size=1, max_size=4),
       size=st.integers(1, 30), every=st.integers(1, 3),
       seed=st.integers(0, 1000))
def test_entity_pool_runs_out_at_the_oracles_draw(syllables, size, every,
                                                  seed):
    """Syllable pools of 1 to 64 names, prefix-free (``x``, ``y``, ``zz``)
    or not (``t``, ``th``; ``x``, ``xy``), some making template words
    (``the``, ``it``), with corpora that use them up: the documents, or the
    error and the draw it fires at, are the oracle's, which counts the pool
    at the first rejected draw."""
    grammar = syn.GrammarConfig(syllables=syllables, distractor_every=every)

    def generate(fn):
        try:
            return fn(seed, size, grammar)
        except ValueError as exc:
            return str(exc)

    assert generate(syn.generate_documents) == generate(
        generate_documents_oracle)


def test_read_lines_splits_and_numbers_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes("a b\r\nc\rd\n\u00e9\n".encode())
    assert list(cp.read_lines(path)) == [
        (1, "a b\n"), (2, "c\n"), (3, "d\n"), (4, "\u00e9\n")]


# ---------------------------------------------------------------------------
# encoding


@pytest.fixture
def small_vocab():
    docs = [make_doc([["went", "home", "stay", "cats"]], ["went"])]
    return build_vocabulary(docs, cap=10)


def test_encode_all_in_vocab(small_vocab):
    doc = make_doc([["went", "home"]], ["home"])
    ex = encode_example(doc, small_vocab)
    assert ex.oov_tokens == []
    assert ex.source_ext_ids == ex.source_ids
    assert ex.target_ids[0] == START_ID
    assert ex.target_ids[-1] == STOP_ID


def test_encode_oov_gets_first_extended_id(small_vocab):
    doc = make_doc([["qzx", "went", "home"]], ["qzx"])
    ex = encode_example(doc, small_vocab)
    assert ex.source_ids[0] == UNK_ID
    assert ex.source_ext_ids[0] == small_vocab.size
    assert ex.oov_tokens == ["qzx"]
    assert ex.target_ext_ids[1] == small_vocab.size
    assert ex.target_ids[1] == UNK_ID


def test_encode_repeated_oovs_share_ids(small_vocab):
    doc = make_doc(
        [["foo", "went", "bar", "foo"], ["baz", "home", "foo", "stay", "cats", "bar"]],
        ["foo", "baz"],
    )
    ex = encode_example(doc, small_vocab)
    assert ex.oov_tokens == ["foo", "bar", "baz"]
    v = small_vocab.size
    assert ex.source_ext_ids[0] == v
    assert ex.source_ext_ids[3] == v  # repeat shares the id
    assert ex.source_ext_ids[2] == v + 1
    assert ex.source_ext_ids[4] == v + 2
    assert ex.target_ext_ids[1:3] == [v, v + 2]


def test_encode_reference_oov_absent_from_source_is_unk(small_vocab):
    doc = make_doc([["went", "home"]], ["zzz"])
    ex = encode_example(doc, small_vocab)
    assert ex.target_ids[1] == UNK_ID
    assert ex.target_ext_ids[1] == UNK_ID


def test_encode_round_trip_reproduces_source(small_vocab):
    doc = make_doc([["qzx", "went", "qzx", "blorp"]], [])
    ex = encode_example(doc, small_vocab)
    assert ids_to_tokens(ex.source_ext_ids, small_vocab, ex.oov_tokens) == \
        doc.source_tokens


def test_encode_truncates_whole_sentences(small_vocab):
    doc = make_doc([["a", "b", "c"], ["d", "e"], ["f", "g"]], ["a"])
    ex = encode_example(doc, small_vocab, max_source_len=5)
    assert ex.truncated_sentences == 1
    assert len(ex.source_ids) == 5
    assert ex.sentence_bounds == [(0, 3), (3, 5)]


def test_encode_target_truncation_recorded(small_vocab):
    doc = make_doc([["a", "b"]], ["a"] * 7)
    ex = encode_example(doc, small_vocab, max_target_len=4)
    assert ex.truncated_target == 3
    assert len(ex.target_ids) == 6  # START + 4 + STOP


def test_encode_rejects_a_negative_target_length(small_vocab):
    doc = make_doc([["a", "b"]], ["a", "b", "a"])
    with pytest.raises(ValueError, match="max_target_len must be nonnegative"):
        encode_example(doc, small_vocab, max_target_len=-1)
    ex = encode_example(doc, small_vocab, max_target_len=0)
    assert ex.truncated_target == 3
    assert len(ex.target_ids) == 2  # START + STOP


def test_encode_ids_within_extended_range(small_vocab):
    for seed in range(3):
        for doc in syn.generate_documents(seed=seed, size=4):
            ex = encode_example(doc, small_vocab)
            hi = small_vocab.size + len(ex.oov_tokens)
            assert all(0 <= i < hi for i in ex.source_ext_ids)
            assert all(0 <= i < hi for i in ex.target_ext_ids)
            assert all(0 <= i < small_vocab.size for i in ex.source_ids)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_encode_decode_round_trip_property(seed):
    docs = syn.generate_documents(seed=seed, size=2)
    vocab = build_vocabulary(docs, cap=12)  # tiny cap forces many OOVs
    for doc in docs:
        ex = encode_example(doc, vocab)
        assert ids_to_tokens(ex.source_ext_ids, vocab, ex.oov_tokens) == \
            doc.source_tokens


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_same_seed_byte_identical(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    syn.generate_synthetic_corpus(seed=7, size=16, out_path=p1)
    syn.generate_synthetic_corpus(seed=7, size=16, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == \
        hashlib.sha256(p2.read_bytes()).hexdigest()


def test_synthetic_different_seeds_differ(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    syn.generate_synthetic_corpus(seed=7, size=16, out_path=p1)
    syn.generate_synthetic_corpus(seed=8, size=16, out_path=p2)
    assert p1.read_bytes() != p2.read_bytes()


def test_synthetic_sentences_pass_invariants():
    for doc in syn.generate_documents(seed=5, size=20):
        doc.validate()
        assert 2 <= len(doc.sentences) <= 4


def test_synthetic_reference_tokens_contained_in_source():
    for doc in syn.generate_documents(seed=7, size=16):
        source = set(doc.source_tokens)
        assert all(tok in source for tok in doc.reference)


def test_synthetic_entities_are_oov_under_default_cap():
    # the guarantee A4 rests on: planted entities never enter the vocabulary
    docs = syn.generate_documents(seed=7, size=16)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    template = syn.GrammarConfig().template_types()
    for doc in docs:
        entity = doc.reference[0]
        assert entity not in template
        assert entity not in vocab.token_to_id
        ex = encode_example(doc, vocab)
        assert entity in ex.oov_tokens
        # verb and object of the reference stay in-vocabulary
        assert doc.reference[1] in vocab.token_to_id
        assert doc.reference[2] in vocab.token_to_id


@pytest.mark.parametrize("seed,size,grammar,digest", [
    (11, 1000, syn.GrammarConfig(),
     "1aa24b755019d025aaaa0b8fb713da5494ae7829ea1f8aec155b0489aa16ac21"),
    (3, 50, syn.GrammarConfig(copy_place=True, distractor_every=1),
     "70f18c48eaae4e847cf0969369cbb2b7296139f0b9f0c0c8d11421eb5c347553"),
    # uses all 27 names, with many redrawn collisions on the way
    (5, 18, syn.GrammarConfig(syllables=["a", "b", "c"]),
     "ffec508e5191217a2b68a2eb8718500db02888afee44dc40089f9fed802ae1d1"),
    # "the" is a template word, so it is never an entity
    (2, 8, syn.GrammarConfig(syllables=["t", "h", "e"]),
     "000d2af47f1399d8d69c3e91be1e2dc87d6d09390780759ecbad78e655523b67"),
])
def test_synthetic_corpus_bytes_are_pinned(tmp_path, seed, size, grammar,
                                           digest):
    path = tmp_path / "c.jsonl"
    syn.generate_synthetic_corpus(seed=seed, size=size, out_path=path,
                                  grammar=grammar)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_synthetic_exhausted_syllable_pool_raises():
    grammar = syn.GrammarConfig(syllables=["a", "b"])
    with pytest.raises(ValueError, match=r"syllable pool \['a', 'b'\].* 8 "):
        syn.generate_documents(seed=0, size=9, grammar=grammar)


def test_synthetic_size_validation():
    with pytest.raises(ValueError):
        syn.generate_documents(seed=1, size=0)


@pytest.mark.parametrize("token", ["", " ", "a b", "a\nb", "a\tb", "a\r",
                                   "a\u00a0b", "a\u2028b"])
@pytest.mark.parametrize("where", ["source", "reference"])
def test_load_corpus_rejects_tokens_that_break_files(tmp_path, token, where):
    bad = json.loads(json.dumps(VALID_RECORD))
    if where == "source":
        bad["sentences"][0]["tokens"][1] = token
    else:
        bad["reference"][0] = token
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [VALID_RECORD, bad])
    with pytest.raises(cp.CorpusFormatError,
                       match=f"^{re.escape(str(path))}: line 2: {where} token "
                       ".* empty or contains"):
        list(load_corpus(path))


def test_vocabulary_interrupted_save_leaves_old_file(tmp_path):
    path = tmp_path / "vocab.txt"
    build_vocabulary([make_doc([["alpha", "beta"]], ["alpha"])],
                     cap=10).save(path)
    before = path.read_bytes()
    vocab = build_vocabulary([make_doc([["gamma", "delta"]], ["gamma"])],
                             cap=10)
    vocab.id_to_token.append(None)  # the write dies after two lines
    with pytest.raises(TypeError):
        vocab.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]
