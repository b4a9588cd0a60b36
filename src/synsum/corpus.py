"""Parsed-document ingestion, vocabulary construction and id encoding.

Corpus files are UTF-8 JSON lines, one document per line:

    {"sentences": [{"tokens": [...], "heads": [...], "labels": [...]}, ...],
     "reference": [...]}

Heads follow the CoNLL-U convention: 0 marks the syntactic root, any other
value is the 1-based index of the head within the same sentence. Tokens are
consumed verbatim; lowercasing and tokenization are the upstream parser's
job. A source or reference token that is empty or contains whitespace is a
``CorpusFormatError``: it would break the one-token-per-line vocabulary file
and the space-joined summaries.

Out-of-vocabulary source tokens get per-document temporary ids directly
after the fixed vocabulary, in first-occurrence order, so a copying decoder
can emit them; reference tokens that match a source OOV reuse its temporary
id, all other unknown reference tokens fall back to UNK.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .fileio import atomic_write
from .graph import DocumentGraph, build_document_graph

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "START_ID",
    "STOP_ID",
    "RESERVED_TOKENS",
    "CorpusFormatError",
    "read_lines",
    "ParsedSentence",
    "Document",
    "Vocabulary",
    "EncodedExample",
    "load_corpus",
    "write_corpus",
    "build_vocabulary",
    "encode_example",
    "ids_to_tokens",
]

PAD_ID, UNK_ID, START_ID, STOP_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")

DEFAULT_MAX_SOURCE_LEN = 400
DEFAULT_MAX_TARGET_LEN = 100


class CorpusFormatError(ValueError):
    """A corpus record is malformed; the message names file, line and
    invariant."""


# undecodable bytes 0x80-0xff, as the surrogateescape error handler maps them
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_lines(path: str | Path,
               data: bytes | None = None) -> Iterator[tuple[int, str]]:
    """The lines of a UTF-8 text file with their 1-based numbers, split and
    newline-translated as ``open(path, encoding="utf-8")`` does. A file that
    is not UTF-8 is a ``CorpusFormatError`` naming the file, the first line
    that is not and its first bad byte. ``data``, when given, is the file's
    content, already read: it is split in the file's place, and ``path``
    only names the file."""
    def text(errors: str = "strict"):
        if data is None:
            return open(path, encoding="utf-8", errors=errors)
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                errors=errors)

    try:
        with text() as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # read again to find the line: the decoder reports only an offset
        # into the chunk it was decoding
        with text("surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                bad = _ESCAPED_BYTE.search(line)
                if bad:
                    raise CorpusFormatError(
                        f"{path}: line {line_no}: not UTF-8 (byte "
                        f"0x{ord(bad.group()) - 0xDC00:02x})") from None
        raise


@dataclass
class ParsedSentence:
    tokens: list[str]
    heads: list[int]   # 0 = root, otherwise 1-based head index
    labels: list[str]

    def validate(self) -> None:
        n = len(self.tokens)
        if n < 1:
            raise ValueError("sentence must contain at least one token")
        if len(self.heads) != n or len(self.labels) != n:
            raise ValueError(
                f"tokens/heads/labels lengths differ: "
                f"{n}/{len(self.heads)}/{len(self.labels)}"
            )
        roots = [i for i, h in enumerate(self.heads) if h == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        for i, h in enumerate(self.heads):
            if not 0 <= h <= n:
                raise ValueError(f"head index {h} at token {i} outside [0, {n}]")
        # tree check: everything must be reachable from the root
        children: list[list[int]] = [[] for _ in range(n)]
        for i, h in enumerate(self.heads):
            if h != 0:
                children[h - 1].append(i)
        seen = [False] * n
        stack = [roots[0]]
        while stack:
            node = stack.pop()
            if seen[node]:
                raise ValueError("dependency heads contain a cycle")
            seen[node] = True
            stack.extend(children[node])
        if not all(seen):
            raise ValueError("dependency heads contain a cycle or orphan")


@dataclass
class Document:
    sentences: list[ParsedSentence]
    reference: list[str]

    def validate(self) -> None:
        if not self.sentences:
            raise ValueError("document must contain at least one sentence")
        for sent in self.sentences:
            sent.validate()

    @property
    def source_tokens(self) -> list[str]:
        return [tok for sent in self.sentences for tok in sent.tokens]


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def save(self, path: str | Path) -> None:
        """One non-reserved token per line; line number + 4 reserved = id.
        Written atomically: an interrupted save leaves the old file."""
        with atomic_write(path) as fh:
            for token in self.id_to_token[len(RESERVED_TOKENS):]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path: str | Path, data: bytes | None = None) -> "Vocabulary":
        """The vocabulary file at ``path``, or parsed from ``data``, its
        bytes already read (so that a caller hashes exactly what it parses).

        The bytes are decoded once, newlines translated as text mode does
        (``\r\n`` and ``\r`` to ``\n``) and split once: the lines of
        ``read_lines``. Bytes that are not UTF-8 go through ``read_lines``,
        whose error names the file and the line.
        """
        if data is None:
            data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            lines = [line.rstrip("\n") for _, line in read_lines(path, data)]
        else:
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            if not lines[-1]:  # the final newline ends a line, none follows
                lines.pop()
        id_to_token = list(RESERVED_TOKENS) + lines
        token_to_id = dict(zip(id_to_token, range(len(id_to_token))))
        return cls(token_to_id=token_to_id, id_to_token=id_to_token)


@dataclass
class EncodedExample:
    source_ids: list[int]        # OOVs mapped to UNK
    source_ext_ids: list[int]    # OOVs mapped to vocab_size + k
    oov_tokens: list[str]        # per-document OOV list, first-occurrence order
    target_ids: list[int]        # START ... STOP, all OOVs as UNK
    target_ext_ids: list[int]    # START ... STOP, source OOVs as extended ids
    sentence_bounds: list[tuple[int, int]]
    graph: DocumentGraph
    source_tokens: list[str]
    reference_tokens: list[str]
    truncated_sentences: int = 0
    truncated_target: int = 0

    @property
    def n(self) -> int:
        return len(self.source_ids)


def _check_tokens(tokens: list[str], kind: str, where: str) -> None:
    # the vocabulary file holds one token per line and summaries are joined
    # on spaces, so a token must be exactly one whitespace-split field
    for tok in tokens:
        if tok.split() != [tok]:
            raise CorpusFormatError(
                f"{where}: {kind} token {tok!r} is empty or contains "
                "whitespace"
            )


_KINDS = {str: "strings", int: "integers"}


def _typed_list(obj: dict, key: str, kind: type, where: str) -> list:
    """``obj[key]`` if it is a list of exactly ``kind``: a JSON ``true`` is
    no integer, and neither is ``2.9`` or ``"2"``."""
    if key not in obj:
        raise CorpusFormatError(f"{where}: missing field {key!r}")
    value = obj[key]
    bad = ([v for v in value if type(v) is not kind]
           if isinstance(value, list) else [value])
    if bad:
        raise CorpusFormatError(f"{where}: field {key!r} must be a list of "
                                f"{_KINDS[kind]}, got {json.dumps(bad[0])}")
    return value


def _parse_record(obj, where: str) -> Document:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: a record must be a JSON object")
    if not isinstance(obj.get("sentences"), list) or not all(
            isinstance(s, dict) for s in obj["sentences"]):
        raise CorpusFormatError(
            f"{where}: field 'sentences' must be a list of objects")
    sentences = [
        ParsedSentence(
            tokens=_typed_list(s, "tokens", str, f"{where}, sentence {k}"),
            heads=_typed_list(s, "heads", int, f"{where}, sentence {k}"),
            labels=_typed_list(s, "labels", str, f"{where}, sentence {k}"),
        )
        for k, s in enumerate(obj["sentences"])
    ]
    reference = _typed_list(obj, "reference", str, where)
    for sent in sentences:
        _check_tokens(sent.tokens, "source", where)
    _check_tokens(reference, "reference", where)
    doc = Document(sentences=sentences, reference=reference)
    try:
        doc.validate()
    except ValueError as exc:
        raise CorpusFormatError(f"{where}: {exc}")
    return doc


def load_corpus(path: str | Path) -> Iterator[Document]:
    """Stream documents from a JSON-lines corpus file, validating each. A
    malformed record is a ``CorpusFormatError`` that starts
    ``<path>: line N:``."""
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        where = f"{path}: line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{where}: invalid JSON ({exc.msg})")
        yield _parse_record(obj, where)


def document_to_record(doc: Document) -> dict:
    return {
        "sentences": [
            {"tokens": s.tokens, "heads": s.heads, "labels": s.labels}
            for s in doc.sentences
        ],
        "reference": doc.reference,
    }


def write_corpus(docs: Iterable[Document], path: str | Path) -> int:
    """Write documents as JSON lines; returns the number written. Written
    atomically: a failure leaves the old file, if any, as it was."""
    count = 0
    with atomic_write(path) as fh:
        for doc in docs:
            fh.write(json.dumps(document_to_record(doc), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def build_vocabulary(docs: Iterable[Document], cap: int) -> Vocabulary:
    """Keep the ``cap`` most frequent source+reference tokens.

    Frequency ties are broken by first appearance in the corpus.
    """
    if cap <= len(RESERVED_TOKENS):
        raise ValueError(
            f"cap must exceed the {len(RESERVED_TOKENS)} reserved tokens, got {cap}"
        )
    # a Counter keeps its keys in order of first appearance
    counts: Counter[str] = Counter()
    n_docs = 0
    for doc in docs:
        n_docs += 1
        for sent in doc.sentences:
            counts.update(sent.tokens)
        counts.update(doc.reference)
    if n_docs == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    # sorted is stable, reversed too: ties keep the order of first appearance
    ranked = sorted(counts, key=counts.__getitem__, reverse=True)
    kept = ranked[: cap - len(RESERVED_TOKENS)]
    id_to_token = list(RESERVED_TOKENS) + kept
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id=token_to_id, id_to_token=id_to_token)


def encode_example(
    doc: Document,
    vocab: Vocabulary,
    max_source_len: int = DEFAULT_MAX_SOURCE_LEN,
    max_target_len: int = DEFAULT_MAX_TARGET_LEN,
) -> EncodedExample:
    """Map one document to ids, building its graph and OOV extension.

    Over-long sources are truncated by dropping whole trailing sentences so
    every retained sentence keeps a complete dependency tree; the number of
    dropped sentences and reference tokens is recorded on the result.
    """
    if max_target_len < 0:
        raise ValueError(
            f"max_target_len must be nonnegative, got {max_target_len}"
        )
    doc.validate()
    sentences = list(doc.sentences)
    truncated_sentences = 0
    while sentences and sum(len(s.tokens) for s in sentences) > max_source_len:
        sentences.pop()
        truncated_sentences += 1
    if not sentences:
        raise ValueError(
            f"first sentence alone exceeds max_source_len={max_source_len}"
        )

    reference = list(doc.reference)
    truncated_target = 0
    if len(reference) > max_target_len:
        truncated_target = len(reference) - max_target_len
        reference = reference[:max_target_len]

    kept_doc = Document(sentences=sentences, reference=reference)
    source_tokens = kept_doc.source_tokens

    source_ids: list[int] = []
    source_ext_ids: list[int] = []
    oov_tokens: list[str] = []
    oov_index: dict[str, int] = {}
    for tok in source_tokens:
        tid = vocab.token_to_id.get(tok)
        if tid is None:
            source_ids.append(UNK_ID)
            if tok not in oov_index:
                oov_index[tok] = len(oov_tokens)
                oov_tokens.append(tok)
            source_ext_ids.append(vocab.size + oov_index[tok])
        else:
            source_ids.append(tid)
            source_ext_ids.append(tid)

    target_ids = [START_ID]
    target_ext_ids = [START_ID]
    for tok in reference:
        tid = vocab.token_to_id.get(tok)
        target_ids.append(tid if tid is not None else UNK_ID)
        if tid is not None:
            target_ext_ids.append(tid)
        elif tok in oov_index:
            target_ext_ids.append(vocab.size + oov_index[tok])
        else:
            target_ext_ids.append(UNK_ID)
    target_ids.append(STOP_ID)
    target_ext_ids.append(STOP_ID)

    bounds = []
    start = 0
    for sent in sentences:
        bounds.append((start, start + len(sent.tokens)))
        start += len(sent.tokens)

    return EncodedExample(
        source_ids=source_ids,
        source_ext_ids=source_ext_ids,
        oov_tokens=oov_tokens,
        target_ids=target_ids,
        target_ext_ids=target_ext_ids,
        sentence_bounds=bounds,
        graph=build_document_graph(kept_doc),
        source_tokens=source_tokens,
        reference_tokens=reference,
        truncated_sentences=truncated_sentences,
        truncated_target=truncated_target,
    )


def ids_to_tokens(
    ext_ids: Sequence[int], vocab: Vocabulary, oov_tokens: Sequence[str]
) -> list[str]:
    """Map extended ids back to surface forms through vocab plus OOV list."""
    out = []
    for ext_id in ext_ids:
        if ext_id < vocab.size:
            out.append(vocab.id_to_token[ext_id])
        else:
            out.append(oov_tokens[ext_id - vocab.size])
    return out
