import hashlib
import json
import struct

import numpy as np
import pytest

from synsum import cli
from synsum import synthetic as syn
from synsum.cli import decode_corpus, main, write_manifest
from synsum.corpus import STOP_ID, Vocabulary, encode_example, ids_to_tokens, load_corpus
from synsum.decoder import encode_document, greedy_decode, initial_state, make_step_fn
from synsum.graph import build_document_graph
from synsum.training import (
    CheckpointError,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
)
from oracles import edge_tuples, graph_from_record


TRAIN_FLAGS = [
    "--cap", str(syn.default_vocab_cap()),
    "--epochs", "2",
    "--d-emb", "6", "--d-h", "4", "--d-g", "8", "--d-dec", "6", "--d-attn", "6",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-train")
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--seed", "7", "--size", "8",
                 "--out", str(corpus)]) == 0
    out_dir = root / "run"
    assert main(["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                 "--seed", "3", *TRAIN_FLAGS]) == 0
    return corpus, out_dir


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic_hash(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert main(["synth", "--seed", "5", "--size", "6", "--out", str(out1),
                 "--json"]) == 0
    h1 = json.loads(capsys.readouterr().out)["hash"]
    assert main(["synth", "--seed", "5", "--size", "6", "--out", str(out2),
                 "--json"]) == 0
    h2 = json.loads(capsys.readouterr().out)["hash"]
    assert h1 == h2
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_size_zero_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1", "--size", "0",
              "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code == 2


def test_synth_output_loads_cleanly(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["synth", "--seed", "2", "--size", "4", "--out", str(out)]) == 0
    docs = list(load_corpus(out))
    assert len(docs) == 4
    for doc in docs:
        doc.validate()


def test_synth_writes_manifest(tmp_path):
    out = tmp_path / "m.jsonl"
    assert main(["synth", "--seed", "2", "--size", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "m.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 2
    assert manifest["outputs"]["corpus_hash"].startswith("sha256:")


# ---------------------------------------------------------------------------
# train


def test_train_outputs_and_manifest(trained_dir):
    corpus, out_dir = trained_dir
    assert (out_dir / "model.ckpt").exists()
    assert (out_dir / "vocab.txt").exists()
    assert (out_dir / "metrics.log").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "train"
    assert manifest["config"]["train"]["learning_rate"] == 0.15
    assert manifest["config"]["train"]["init_accumulator"] == 0.1
    assert manifest["config"]["gate_disabled"] is False
    assert manifest["inputs"]["corpus_hash"].startswith("sha256:")
    log_lines = (out_dir / "metrics.log").read_text().splitlines()
    assert len(log_lines) == 2
    assert all("nll" in line and "coverage" in line for line in log_lines)


def test_train_ablate_gcn_recorded_in_manifest(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    main(["synth", "--seed", "1", "--size", "4", "--out", str(corpus)])
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                 "--ablate-gcn", "--epochs", "1", *TRAIN_FLAGS[:2]]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["gate_disabled"] is True
    assert manifest["config"]["gcn_disabled"] is True


def test_train_contradictory_ablation_flags(tmp_path):
    corpus = tmp_path / "c.jsonl"
    main(["synth", "--seed", "1", "--size", "4", "--out", str(corpus)])
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(corpus),
              "--out-dir", str(tmp_path / "r"),
              "--ablate-gate", "--ablate-gcn"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# decode


def test_decode_beam_one_matches_library_greedy(trained_dir, tmp_path):
    corpus, out_dir = trained_dir
    out = tmp_path / "summaries.txt"
    assert main(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(out), "--beam", "1", "--max-dec-len", "8",
                 "--len-penalty", "0.0"]) == 0
    lines = out.read_text().splitlines()

    ckpt = load_checkpoint(out_dir / "model.ckpt")
    params = params_from_checkpoint(ckpt)
    vocab = Vocabulary.load(out_dir / "vocab.txt")
    for line, doc in zip(lines, load_corpus(corpus)):
        example = encode_example(doc, vocab)
        enc, _, ctx = encode_document(example, params)
        hyp = greedy_decode(make_step_fn(ctx, params),
                            initial_state(enc, params), max_len=8)
        expected = ids_to_tokens([t for t in hyp.tokens if t != STOP_ID],
                                 vocab, example.oov_tokens)
        assert line.split() == expected


def test_decode_reruns_byte_identical(trained_dir, tmp_path):
    corpus, out_dir = trained_dir
    outs = []
    for name in ("s1.txt", "s2.txt"):
        out = tmp_path / name
        assert main(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                     "--corpus", str(corpus),
                     "--vocab", str(out_dir / "vocab.txt"),
                     "--out", str(out), "--beam", "2",
                     "--max-dec-len", "8"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_decode_refuses_vocab_hash_mismatch(trained_dir, tmp_path, capsys):
    corpus, out_dir = trained_dir
    tampered = tmp_path / "vocab.txt"
    tampered.write_text((out_dir / "vocab.txt").read_text() + "sneaky\n")
    code = main(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--corpus", str(corpus), "--vocab", str(tampered),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    assert "hash mismatch" in capsys.readouterr().err


def test_decode_non_utf8_vocabulary_names_file_and_line(trained_dir, tmp_path,
                                                        capsys):
    corpus, out_dir = trained_dir
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes((out_dir / "vocab.txt").read_bytes() + b"caf\xe9\n")
    lines = len(vocab.read_bytes().splitlines())
    ckpt = load_checkpoint(out_dir / "model.ckpt")
    save_checkpoint(tmp_path / "model.ckpt", params_from_checkpoint(ckpt),
                    ckpt.step, vocab_hash=cli.file_hash(vocab))
    code = main(["decode", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--corpus", str(corpus), "--vocab", str(vocab),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {vocab}: line {lines}: not UTF-8 (byte 0xe9)\n")


def test_decode_truncated_checkpoint_is_a_clean_error(trained_dir, tmp_path,
                                                      capsys):
    corpus, out_dir = trained_dir
    data = (out_dir / "model.ckpt").read_bytes()
    header_end = 20 + struct.unpack("<Q", data[12:20])[0]
    truncated = tmp_path / "model.ckpt"
    truncated.write_bytes(data[:header_end + 8])  # inside a record header
    code = main(["decode", "--checkpoint", str(truncated),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: truncated checkpoint")


def test_decode_empty_checkpoint_is_a_clean_error(trained_dir, tmp_path,
                                                  capsys):
    corpus, out_dir = trained_dir
    empty = tmp_path / "model.ckpt"
    empty.write_bytes(b"")
    code = main(["decode", "--checkpoint", str(empty),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: truncated checkpoint")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def edit_header(data: bytes, edit) -> bytes:
    """Rewrite a checkpoint's JSON header, keeping its digest consistent."""
    header_end = 20 + struct.unpack("<Q", data[12:20])[0]
    header = json.loads(data[20:header_end])
    edit(header)
    blob = json.dumps(header.get("config"), sort_keys=True).encode()
    header["config_digest"] = hashlib.sha256(blob).hexdigest()
    encoded = json.dumps(header, sort_keys=True).encode()
    return (data[:12] + struct.pack("<Q", len(encoded)) + encoded
            + data[header_end:])


def swap_first_params(header):
    names = header["params"]
    names[0], names[1] = names[1], names[0]


MALFORMED_CHECKPOINTS = {
    "header without step": (
        lambda data: edit_header(data, lambda h: h.pop("step")),
        "lacks 'step'"),
    "unknown config key": (
        lambda data: edit_header(data, lambda h: h["config"].update(d_extra=3)),
        "unknown model config keys"),
    "trailing bytes": (lambda data: data + b"JUNK", "4 trailing bytes"),
    "version 2": (lambda data: data[:8] + struct.pack("<I", 2) + data[12:],
                  "unsupported checkpoint version 2"),
    "record names out of header order": (
        lambda data: edit_header(data, swap_first_params),
        "where the header lists"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_decode_malformed_checkpoint_header_is_a_clean_error(
        case, trained_dir, tmp_path, capsys):
    corpus, out_dir = trained_dir
    corrupt, message = MALFORMED_CHECKPOINTS[case]
    data = corrupt((out_dir / "model.ckpt").read_bytes())
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(data)
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(data)
    code = main(["decode", "--checkpoint", str(bad),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("key,value", [("d_h", 0), ("d_emb", -1),
                                       ("d_attn", 0), ("gcn_layers", -1)])
def test_decode_checkpoint_with_impossible_widths_is_a_clean_error(
        key, value, trained_dir, tmp_path, capsys):
    corpus, out_dir = trained_dir
    data = edit_header((out_dir / "model.ckpt").read_bytes(),
                       lambda h: h["config"].update({key: value}))
    message = f"bad config in checkpoint header: {key} must be"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(data)
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(data)
    code = main(["decode", "--checkpoint", str(bad),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_decode_manifest_hashes_the_checkpoint_file(trained_dir, tmp_path):
    corpus, out_dir = trained_dir
    out = tmp_path / "s.txt"
    assert main(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(out), "--beam", "1", "--max-dec-len", "4"]) == 0
    manifest = json.loads(out.with_name("s.txt.manifest.json").read_text())
    digest = hashlib.sha256((out_dir / "model.ckpt").read_bytes()).hexdigest()
    assert manifest["inputs"]["checkpoint_hash"] == f"sha256:{digest}"


def test_decode_dump_gates(trained_dir, tmp_path):
    corpus, out_dir = trained_dir
    gates = tmp_path / "gates.jsonl"
    assert main(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(tmp_path / "s.txt"), "--beam", "1",
                 "--max-dec-len", "6", "--dump-gates", str(gates)]) == 0
    records = [json.loads(line) for line in gates.read_text().splitlines()]
    docs = list(load_corpus(corpus))
    assert len(records) == len(docs)
    for record, doc in zip(records, docs):
        n = len(doc.source_tokens)
        assert len(record["attention"]) == n
        assert len(record["gate_mean"]) == n
        assert abs(sum(record["attention"]) - 1.0) < 1e-6


def test_decode_bottom_up_threshold_runs(trained_dir, tmp_path):
    corpus, out_dir = trained_dir
    out = tmp_path / "masked.txt"
    assert main(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                 "--out", str(out), "--beam", "2", "--max-dec-len", "8",
                 "--bottom-up-threshold", "0.1"]) == 0
    assert len(out.read_text().splitlines()) == 8


# ---------------------------------------------------------------------------
# eval


def test_eval_identity_scores_one(trained_dir, tmp_path, capsys):
    corpus, _ = trained_dir
    candidates = tmp_path / "cands.txt"
    with open(candidates, "w") as fh:
        for doc in load_corpus(corpus):
            fh.write(" ".join(doc.reference) + "\n")
    assert main(["eval", "--candidates", str(candidates),
                 "--references", str(corpus), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for metric in ("R1", "R2", "RL"):
        assert report["metrics"][metric]["f1"] == 1.0


def test_eval_hand_fixture_through_cli(tmp_path, capsys):
    corpus = tmp_path / "refs.jsonl"
    record = {
        "sentences": [{"tokens": ["the", "cat"], "heads": [2, 0],
                       "labels": ["det", "root"]}],
        "reference": ["the", "cat"],
    }
    corpus.write_text(json.dumps(record) + "\n")
    candidates = tmp_path / "cands.txt"
    candidates.write_text("the cat sat\n")
    assert main(["eval", "--candidates", str(candidates),
                 "--references", str(corpus), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["metrics"]["R1"]["f1"] - 0.8) < 1e-9
    assert abs(report["metrics"]["R2"]["f1"] - 2 / 3) < 1e-9


def test_eval_count_mismatch_names_both_counts(trained_dir, tmp_path, capsys):
    corpus, _ = trained_dir
    candidates = tmp_path / "cands.txt"
    candidates.write_text("hello\n")
    assert main(["eval", "--candidates", str(candidates),
                 "--references", str(corpus)]) == 1
    err = capsys.readouterr().err
    assert "1 candidates" in err and "8 references" in err


@pytest.mark.parametrize("resamples", ["0", "-3"])
def test_eval_rejects_fewer_than_one_resample(trained_dir, tmp_path, capsys,
                                              resamples):
    corpus, _ = trained_dir
    candidates = tmp_path / "cands.txt"
    candidates.write_text("".join(" ".join(doc.reference) + "\n"
                                  for doc in load_corpus(corpus)))
    assert main(["eval", "--candidates", str(candidates),
                 "--references", str(corpus),
                 "--resamples", resamples]) == 1
    assert capsys.readouterr().err == (
        f"error: n_resamples must be at least 1, got {resamples}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cands.txt"]


def test_eval_empty_candidate_flagged(tmp_path, capsys):
    corpus = tmp_path / "refs.jsonl"
    record = {
        "sentences": [{"tokens": ["hi"], "heads": [0], "labels": ["root"]}],
        "reference": ["hi"],
    }
    corpus.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
    candidates = tmp_path / "cands.txt"
    candidates.write_text("hi\n\n")
    assert main(["eval", "--candidates", str(candidates),
                 "--references", str(corpus), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degenerate_rows"] == [1]


def test_eval_malformed_reference_record_names_file_and_line(trained_dir,
                                                            tmp_path, capsys):
    corpus, _ = trained_dir
    candidates = tmp_path / "cands.txt"
    candidates.write_text("".join(
        " ".join(doc.reference) + "\n" for doc in load_corpus(corpus)))
    references = tmp_path / "refs.jsonl"
    lines = corpus.read_text().splitlines(keepends=True)
    references.write_text(lines[0] + "[]\n" + "".join(lines[2:]))
    assert main(["eval", "--candidates", str(candidates),
                 "--references", str(references)]) == 1
    assert capsys.readouterr().err == (
        f"error: {references}: line 2: a record must be a JSON object\n")


@pytest.mark.parametrize("bad", ["candidates", "references"])
def test_eval_non_utf8_byte_names_file_and_line(trained_dir, tmp_path, capsys,
                                                bad):
    corpus, _ = trained_dir
    paths = {"candidates": tmp_path / "cands.txt",
             "references": tmp_path / "refs.jsonl"}
    paths["candidates"].write_text("".join(
        " ".join(doc.reference) + "\n" for doc in load_corpus(corpus)))
    paths["references"].write_bytes(corpus.read_bytes())
    with open(paths[bad], "r+b") as fh:
        fh.seek(len(fh.readline()))  # the first byte of line 2
        fh.write(b"\xff")
    assert main(["eval", "--candidates", str(paths["candidates"]),
                 "--references", str(paths["references"])]) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[bad]}: line 2: not UTF-8 (byte 0xff)\n")


# ---------------------------------------------------------------------------
# graph-inspect


def test_graph_inspect_fixture_stats(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    record = {
        "sentences": [{"tokens": ["cats", "sleep"], "heads": [2, 0],
                       "labels": ["nsubj", "root"]}],
        "reference": ["cats"],
    }
    corpus.write_text(json.dumps(record) + "\n")
    assert main(["graph-inspect", "--corpus", str(corpus), "--index", "0",
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["edges"] == {"FWD": 1, "BWD": 1, "SELF": 2, "ADJ": 0}


def test_graph_inspect_fwd_equals_bwd(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    main(["synth", "--seed", "4", "--size", "3", "--out", str(corpus)])
    capsys.readouterr()  # drop the synth output
    for index in range(3):
        assert main(["graph-inspect", "--corpus", str(corpus),
                     "--index", str(index), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["edges"]["FWD"] == stats["edges"]["BWD"]


def test_graph_inspect_export_round_trip(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    main(["synth", "--seed", "4", "--size", "2", "--out", str(corpus)])
    export = tmp_path / "graph.json"
    assert main(["graph-inspect", "--corpus", str(corpus), "--index", "1",
                 "--export", str(export), "--json"]) == 0
    record = json.loads(export.read_text())
    graph = graph_from_record(record)
    docs = list(load_corpus(corpus))
    direct = build_document_graph(docs[1])
    assert sorted(edge_tuples(graph)) == sorted(edge_tuples(direct))


def test_graph_inspect_index_out_of_range(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    main(["synth", "--seed", "4", "--size", "2", "--out", str(corpus)])
    assert main(["graph-inspect", "--corpus", str(corpus),
                 "--index", "9"]) == 1
    assert "out of range" in capsys.readouterr().err


def decode_args(corpus, out_dir, out, *extra):
    return ["decode", "--checkpoint", str(out_dir / "model.ckpt"),
            "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
            "--out", str(out), "--beam", "1", "--max-dec-len", "4", *extra]


def corpus_with_bad_fourth_record(corpus, path):
    lines = corpus.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ['{"sentences": 5}'] + lines[3:])
                    + "\n")


def test_decode_failure_leaves_no_output_or_manifest(trained_dir, tmp_path,
                                                     capsys):
    corpus, out_dir = trained_dir
    bad = tmp_path / "bad.jsonl"
    corpus_with_bad_fourth_record(corpus, bad)
    work = tmp_path / "work"
    work.mkdir()
    out = work / "s.txt"
    code = main(decode_args(bad, out_dir, out, "--dump-gates",
                            str(work / "gates.jsonl")))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 4: ")
    assert list(work.iterdir()) == []


def test_decode_failure_keeps_earlier_output_byte_identical(trained_dir,
                                                            tmp_path):
    corpus, out_dir = trained_dir
    out = tmp_path / "s.txt"
    manifest = tmp_path / "s.txt.manifest.json"
    assert main(decode_args(corpus, out_dir, out)) == 0
    before = {p.name: p.read_bytes() for p in (out, manifest)}
    bad = tmp_path / "bad.jsonl"
    corpus_with_bad_fourth_record(corpus, bad)
    assert main(decode_args(bad, out_dir, out)) == 1
    assert {p.name: p.read_bytes() for p in (out, manifest)} == before
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*"))


@pytest.mark.parametrize("token", ["", "two words", "new\nline", "tab\t"])
@pytest.mark.parametrize("where", ["source", "reference"])
def test_train_and_decode_reject_tokens_that_break_files(
        trained_dir, tmp_path, capsys, token, where):
    corpus, out_dir = trained_dir
    record = json.loads(corpus.read_text().splitlines()[0])
    if where == "source":
        record["sentences"][0]["tokens"][0] = token
    else:
        record["reference"][0] = token
    bad = tmp_path / "bad.jsonl"
    bad.write_text(corpus.read_text() + json.dumps(record) + "\n")
    line = len(corpus.read_text().splitlines()) + 1

    assert main(["train", "--corpus", str(bad), "--out-dir",
                 str(tmp_path / "run"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}: {where} token")
    assert not (tmp_path / "run" / "vocab.txt").exists()

    assert main(decode_args(bad, out_dir, tmp_path / "s.txt")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {line}: {where} token")
    assert "Traceback" not in err
    assert not (tmp_path / "s.txt").exists()


def test_train_rejects_a_corpus_field_of_the_wrong_type(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "1", "--size", "4",
                 "--out", str(corpus)]) == 0
    record = json.loads(corpus.read_text().splitlines()[0])
    record["sentences"][0]["heads"][0] = float(record["sentences"][0]["heads"][0])
    corpus.write_text(corpus.read_text() + json.dumps(record) + "\n")
    capsys.readouterr()

    assert main(["train", "--corpus", str(corpus), "--out-dir",
                 str(tmp_path / "run"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}: line 5, sentence 0: field "
                          "'heads' must be a list of integers")
    assert not (tmp_path / "run").exists()


def test_train_writes_epoch_telemetry_beside_the_log(trained_dir):
    _, out_dir = trained_dir
    records = [json.loads(line) for line in
               (out_dir / "metrics.jsonl").read_text().splitlines()]
    log_lines = (out_dir / "metrics.log").read_text().splitlines()
    assert len(records) == len(log_lines) == 2
    for record, line in zip(records, log_lines):
        assert record["grad_norm"] > 0.0 and 0.0 <= record["clip_rate"] <= 1.0
        assert line == (f"epoch {record['epoch']} step {record['step']} "
                        f"nll {record['nll']:.6f} coverage "
                        f"{record['coverage']:.6f} total {record['total']:.6f}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["outputs"]["metrics_jsonl"] == str(out_dir / "metrics.jsonl")


def test_synth_failure_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    # 3,000 documents need more nonce entity names than the syllables make
    assert main(["synth", "--seed", "1", "--size", "3000",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_failure_leaves_no_output(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "1", "--size", "4",
                 "--out", str(corpus)]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                 "--max-src-len", "1", *TRAIN_FLAGS]) == 1
    assert "max_source_len=1" in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("flag", ["--lr", "--init-acc", "--cov-weight",
                                  "--clip-norm"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_non_finite_optimizer_values(tmp_path, capsys, flag,
                                                   value):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "1", "--size", "4",
                 "--out", str(corpus)]) == 0
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                 flag, value, *TRAIN_FLAGS]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags,message", [
    (["--batch-size", "-1"], "batch_size must be at least 1"),
    (["--batch-size", "0"], "batch_size must be at least 1"),
    (["--epochs", "-3"], "epochs must be at least 1"),
    (["--epochs", "0"], "epochs must be at least 1"),
    (["--d-h", "0"], "d_h must be at least 1"),
    (["--d-emb", "-1"], "d_emb must be at least 1"),
    (["--d-g", "0"], "d_g must be at least 1"),
    (["--d-dec", "0"], "d_dec must be at least 1"),
    (["--d-attn", "0"], "d_attn must be at least 1"),
    (["--gcn-layers", "-1"], "gcn_layers must be nonnegative"),
    (["--init-acc", "0"], "init_accumulator must be positive"),
    (["--init-acc", "-1"], "init_accumulator must be positive"),
    (["--max-tgt-len", "-1"], "max_target_len must be nonnegative"),
])
def test_train_rejects_impossible_sizes(tmp_path, capsys, flags, message):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "1", "--size", "4",
                 "--out", str(corpus)]) == 0
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                 *TRAIN_FLAGS, *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_stop_below_must_be_finite(tmp_path, value):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(corpus), "--out-dir",
              str(tmp_path / "run"), "--stop-below", value, *TRAIN_FLAGS])
    assert exc.value.code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


@pytest.mark.parametrize("flag", ["--len-penalty", "--bottom-up-threshold"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_decode_rejects_non_finite_values(trained_dir, tmp_path, flag, value):
    corpus, out_dir = trained_dir
    with pytest.raises(SystemExit) as exc:
        main(decode_args(corpus, out_dir, tmp_path / "s.txt", flag, value))
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-3"])
def test_decode_rejects_max_dec_len_below_one(trained_dir, tmp_path, value):
    corpus, out_dir = trained_dir
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for source in (corpus, empty):
        with pytest.raises(SystemExit) as exc:
            main(decode_args(source, out_dir, tmp_path / "s.txt",
                             "--max-dec-len", value))
        assert exc.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]


@pytest.mark.parametrize("value", ["1000", "-5000", "-400", "-410"])
def test_decode_rejects_a_length_penalty_out_of_range(trained_dir, tmp_path,
                                                      capsys, value):
    # ((5 + 30) / 6) ** 1000 overflows and ** -5000 rounds to 0; at -400 and
    # -410 a 30-token summary at the probability floor would score -inf
    corpus, out_dir = trained_dir
    code = main(decode_args(corpus, out_dir, tmp_path / "s.txt",
                            "--max-dec-len", "30", "--len-penalty", value,
                            "--dump-gates", str(tmp_path / "gates.jsonl")))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: length penalty alpha {float(value)} is out of range")
    assert list(tmp_path.iterdir()) == []


def test_decode_length_penalty_bound_is_tight(trained_dir, tmp_path, capsys):
    # at length 30, 30 * ln(1e-12) over the penalty is -inf from -399 on
    corpus, out_dir = trained_dir
    for value, code in (("-399", 1), ("-398", 0)):
        out = tmp_path / value / "s.txt"
        out.parent.mkdir()
        assert main(decode_args(corpus, out_dir, out, "--max-dec-len", "30",
                                "--len-penalty", value)) == code
        assert out.exists() == (code == 0)
    assert "error: length penalty alpha -399.0" in capsys.readouterr().err


def checkpoint_header(path):
    data = path.read_bytes()
    (length,) = struct.unpack("<Q", data[12:20])
    return json.loads(data[20:20 + length])


def test_train_no_coverage_writes_it_into_the_checkpoint(trained_dir,
                                                         tmp_path):
    corpus, out_dir = trained_dir
    assert checkpoint_header(out_dir / "model.ckpt")["config"]["use_coverage"]
    run = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus), "--out-dir", str(run),
                 "--seed", "3", "--no-coverage", *TRAIN_FLAGS]) == 0
    assert checkpoint_header(run / "model.ckpt")["config"]["use_coverage"] \
        is False


def test_decode_no_coverage_turns_coverage_off_for_the_run_only(
        trained_dir, tmp_path, monkeypatch):
    corpus, out_dir = trained_dir
    ckpt_path = out_dir / "model.ckpt"
    before = ckpt_path.read_bytes()
    # this small model's summaries are the same with coverage on, so also
    # record the config each decoded document sees
    seen = []
    real = cli.encode_document

    def record(example, params, *rest):
        seen.append(params.config.use_coverage)
        return real(example, params, *rest)

    monkeypatch.setattr(cli, "encode_document", record)
    out = tmp_path / "s.txt"
    assert main(decode_args(corpus, out_dir, out, "--beam", "2",
                            "--max-dec-len", "8", "--no-coverage")) == 0
    assert seen and not any(seen)
    manifest = json.loads((tmp_path / "s.txt.manifest.json").read_text())
    assert manifest["config"]["no_coverage"] is True
    assert manifest["config"]["model"]["use_coverage"] is False

    ckpt = load_checkpoint(ckpt_path)
    assert ckpt.config.use_coverage
    ckpt.config.use_coverage = False
    params = params_from_checkpoint(ckpt)
    vocab = Vocabulary.load(out_dir / "vocab.txt")
    examples = [encode_example(doc, vocab) for doc in load_corpus(corpus)]
    expected = [" ".join(tokens) for tokens, _ in
                decode_corpus(examples, params, vocab, beam=2, max_len=8,
                              alpha=0.4)]
    assert out.read_text().splitlines() == expected
    assert ckpt_path.read_bytes() == before


@pytest.mark.parametrize("case,message", [
    ("only w", "selector/b is missing, expected shape ()"),
    ("two-entry b", "selector/b is of shape (2,), expected shape ()"),
    ("one column too many", "selector/w is of shape (17,), expected shape (16,)"),
])
def test_decode_rejects_a_malformed_content_selector(trained_dir, tmp_path,
                                                     capsys, case, message):
    corpus, out_dir = trained_dir
    ckpt = load_checkpoint(out_dir / "model.ckpt")
    extras = dict(ckpt.extras)
    if case == "only w":
        extras = {"selector/w": extras["selector/w"]}
    elif case == "two-entry b":
        extras["selector/b"] = np.zeros(2)
    else:
        for key in ("w", "mean", "std"):
            extras[f"selector/{key}"] = np.ones(ckpt.config.enc_dim + 1)
    bad = tmp_path / "model.ckpt"
    save_checkpoint(bad, params_from_checkpoint(ckpt), step=ckpt.step,
                    vocab_hash=ckpt.vocab_hash, extras=extras)
    out = tmp_path / "out" / "s.txt"
    out.parent.mkdir()
    args = decode_args(corpus, out_dir, out, "--bottom-up-threshold", "0.3")
    args[args.index("--checkpoint") + 1] = str(bad)
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint content {message}\n")
    assert list(out.parent.iterdir()) == []


def test_manifest_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "manifest.json"
    with pytest.raises(ValueError):
        write_manifest(path, {"config": {"len_penalty": float("nan")}})
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# a written path that names another file of the run


def snapshot(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def assert_collision_refused(argv, root, capsys, names):
    """The run exits with a usage error naming both paths and writes nothing."""
    before = snapshot(root)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{names} name the same file" in err
    assert snapshot(root) == before


def test_synth_refuses_a_manifest_over_its_corpus(tmp_path, capsys):
    out = tmp_path / "k.jsonl"
    assert_collision_refused(
        ["synth", "--seed", "1", "--size", "2", "--out", str(out),
         "--manifest", str(tmp_path / "sub" / ".." / "k.jsonl")],
        tmp_path, capsys, "--out and the manifest")
    assert not out.exists()


@pytest.mark.parametrize("target", ["corpus.jsonl", "run/model.ckpt"])
def test_train_refuses_a_manifest_over_another_file(tmp_path, capsys, target):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--seed", "1", "--size", "4",
                 "--out", str(corpus)]) == 0
    names = ("--corpus and the manifest" if target == "corpus.jsonl"
             else "model.ckpt in --out-dir and the manifest")
    assert_collision_refused(
        ["train", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
         "--manifest", str(tmp_path / target), *TRAIN_FLAGS],
        tmp_path, capsys, names)
    assert not (tmp_path / "run").exists()


def test_train_refuses_an_output_over_its_corpus(tmp_path, capsys):
    corpus = tmp_path / "run" / "vocab.txt"
    corpus.parent.mkdir()
    assert main(["synth", "--seed", "1", "--size", "4",
                 "--out", str(corpus)]) == 0
    assert_collision_refused(
        ["train", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
         *TRAIN_FLAGS],
        tmp_path, capsys, "--corpus and vocab.txt in --out-dir")


@pytest.mark.parametrize("flags, names", [
    (["--dump-gates", "s.txt"], "--out and --dump-gates"),
    (["--manifest", "s.txt"], "--out and the manifest"),
    (["--manifest", "gates.jsonl", "--dump-gates", "gates.jsonl"],
     "--dump-gates and the manifest"),
])
def test_decode_refuses_a_side_output_over_another_file(
        trained_dir, tmp_path, capsys, monkeypatch, flags, names):
    corpus, out_dir = trained_dir
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.txt").write_text("earlier summaries\n")
    assert_collision_refused(
        decode_args(corpus, out_dir, tmp_path / "s.txt", *flags),
        tmp_path, capsys, names)


def test_decode_refuses_an_output_over_one_of_its_inputs(trained_dir, tmp_path,
                                                         capsys):
    corpus, out_dir = trained_dir
    assert_collision_refused(
        decode_args(corpus, out_dir, tmp_path / "s.txt", "--manifest",
                    str(out_dir / "model.ckpt")),
        out_dir, capsys, "--checkpoint and the manifest")
    assert_collision_refused(
        decode_args(corpus, out_dir, corpus), corpus.parent, capsys,
        "--corpus and --out")


def test_eval_refuses_a_manifest_over_its_candidates(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    assert main(["synth", "--seed", "4", "--size", "1",
                 "--out", str(corpus)]) == 0
    candidates = tmp_path / "cand.txt"
    candidates.write_text("a b c\n")
    assert_collision_refused(
        ["eval", "--candidates", str(candidates), "--references", str(corpus),
         "--manifest", str(candidates)],
        tmp_path, capsys, "--candidates and the manifest")


@pytest.mark.parametrize("flags, names", [
    (["--export", "e.json", "--manifest", "e.json"],
     "--export and the manifest"),
    (["--export", "c.jsonl"], "--corpus and --export"),
])
def test_graph_inspect_refuses_a_written_path_over_another_file(
        tmp_path, capsys, monkeypatch, flags, names):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "4", "--size", "2",
                 "--out", "c.jsonl"]) == 0
    assert_collision_refused(
        ["graph-inspect", "--corpus", str(tmp_path / "c.jsonl"), *flags],
        tmp_path, capsys, names)


# sha256 of graph-inspect's text output, --json output and --export file for
# documents 0, 1, 7 and 39 of `synsum synth --seed 3 --size 40` (documents 1
# and 39 have the same parse trees)
GRAPH_INSPECT_PINS = {
    0: (
        "ae7dcbb78c1c6ff88288f2a523f5ec47eada5041140435ad4a2312520335091a",
        "1685a859e61f4029ad413b5bcbbf632f35e0889ad3129a7bb13053616e6637f7",
        "24669b79bf2790bc0cb589e07f8ba81f8ab6ecede1ee61f38b96df3bc1c07df7",
    ),
    1: (
        "e11c7acaad7abd6811d8ccf8f468cdc483c7e90becb7b0a420508708b4834f64",
        "5a3bbde71ce21e127b5bb175fb717b063db8eecee05543d8ae6d4b8b520e6ac4",
        "c9c7daa134db7af1bcd9f18ded14e850e106112b4d8910beaf8ee9aca84e5f2d",
    ),
    7: (
        "a99698fd61da2b655fd7c6e968823dac0af85d58dc3ce0a0d778079c9462ad39",
        "a645425d00aa8eea71810566e31c8a937b724c02878497858b960e4b089d6675",
        "5004fe92aa8709c6753ab494c00e175a54425c84f3d8143e9083b8c76b44c94b",
    ),
    39: (
        "e11c7acaad7abd6811d8ccf8f468cdc483c7e90becb7b0a420508708b4834f64",
        "5a3bbde71ce21e127b5bb175fb717b063db8eecee05543d8ae6d4b8b520e6ac4",
        "c9c7daa134db7af1bcd9f18ded14e850e106112b4d8910beaf8ee9aca84e5f2d",
    ),
}


@pytest.mark.parametrize("index", [0, 1, 7, 39])
def test_graph_inspect_outputs_are_pinned(tmp_path, capsys, index):
    corpus = tmp_path / "c.jsonl"
    assert main(["synth", "--seed", "3", "--size", "40",
                 "--out", str(corpus)]) == 0
    capsys.readouterr()
    inspect = ["graph-inspect", "--corpus", str(corpus), "--index", str(index)]
    assert main(inspect) == 0
    text = capsys.readouterr().out
    export = tmp_path / "e.json"
    assert main([*inspect, "--json", "--export", str(export)]) == 0
    as_json = capsys.readouterr().out
    digests = tuple(hashlib.sha256(data).hexdigest() for data in
                    (text.encode(), as_json.encode(), export.read_bytes()))
    assert digests == GRAPH_INSPECT_PINS[index]
