"""Command-line pipeline: synth, train, decode, eval, graph-inspect.

Every subcommand materializes its full configuration (defaults included)
into a run manifest, alongside content hashes of its file inputs; two runs
with equal manifests produce byte-identical primary outputs. A subcommand
writes its outputs only once its work has succeeded, each to a temporary
file that replaces the target (``fileio.atomic_write``), and its manifest
last, so a run that fails leaves no partial output and no manifest
describing one. All randomness flows from the --seed flags, never from the
clock or the OS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import synthetic
from .corpus import (
    CorpusFormatError,
    EncodedExample,
    STOP_ID,
    Vocabulary,
    build_vocabulary,
    encode_example,
    ids_to_tokens,
    load_corpus,
)
from .decoder import (
    ContentSelector,
    beam_search,
    encode_document,
    initial_state,
    make_step_fn,
    train_content_selector,
)
from .fileio import atomic_write
from .gate import GatedDocument
from .graph import build_document_graph, export_graph, graph_stats
from .metrics import evaluate_pairs
from .model import ModelConfig, ModelParams
from .training import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
    train,
)

__all__ = ["decode_corpus", "main"]


class CliError(Exception):
    """Fatal condition reported to stderr with a nonzero exit code."""


def bytes_hash(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


def file_hash(path: str | Path) -> str:
    return bytes_hash(Path(path).read_bytes())


def write_manifest(path: Path, manifest: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    out = Path(args.out)
    manifest_path = Path(args.manifest) if args.manifest else Path(
        str(out) + ".manifest.json"
    )
    synthetic.generate_synthetic_corpus(seed=args.seed, size=args.size,
                                        out_path=out)
    corpus_hash = file_hash(out)
    write_manifest(manifest_path, {
        "subcommand": "synth",
        "seed": args.seed,
        "config": {"size": args.size},
        "inputs": {},
        "outputs": {"corpus": str(out), "corpus_hash": corpus_hash},
    })
    emit({"corpus": str(out), "documents": args.size, "hash": corpus_hash},
         args.json)
    return 0


# ---------------------------------------------------------------------------
# train


def _model_config_from_args(args, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        d_emb=args.d_emb,
        d_h=args.d_h,
        d_g=args.d_g,
        gcn_layers=args.gcn_layers,
        d_dec=args.d_dec,
        d_attn=args.d_attn,
        ablate_gate=args.ablate_gate or args.ablate_gcn,
        ablate_gcn=args.ablate_gcn,
        use_coverage=not args.no_coverage,
        tie_fwd_bwd=args.tie_directions,
    )


def cmd_train(args) -> int:
    out_dir = Path(args.out_dir)
    manifest_path = Path(args.manifest) if args.manifest else out_dir / "manifest.json"

    docs = list(load_corpus(args.corpus))
    vocab = build_vocabulary(docs, cap=args.cap)
    train_config = TrainConfig(
        learning_rate=args.lr,
        init_accumulator=args.init_acc,
        coverage_weight=args.cov_weight,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        clip_norm=args.clip_norm,
    )
    model_config = _model_config_from_args(args, vocab.size)
    examples = [
        encode_example(d, vocab, max_source_len=args.max_src_len,
                       max_target_len=args.max_tgt_len)
        for d in docs
    ]
    result = train(examples, model_config, train_config,
                   stop_below=args.stop_below)

    # the content selector trains separately, on the fused encoder states
    extras = {}
    if not args.no_selector:
        states, targets = [], []
        for ex in examples:
            enc, _, _ = encode_document(ex, result.params)
            states.append(enc.fused.data.copy())
            ref = set(ex.reference_tokens)
            targets.append(
                np.array([1.0 if tok in ref else 0.0 for tok in ex.source_tokens])
            )
        selector = train_content_selector(states, targets, seed=args.seed)
        extras = {
            "selector/w": selector.w,
            "selector/b": np.array(selector.b),
            "selector/mean": selector.mean,
            "selector/std": selector.std,
        }

    # every output lands only now that the work has succeeded
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab_path = out_dir / "vocab.txt"
    vocab.save(vocab_path)
    vocab_hash = file_hash(vocab_path)
    ckpt_path = out_dir / "model.ckpt"
    save_checkpoint(
        ckpt_path, result.params,
        step=result.history[-1].step if result.history else 0,
        vocab_hash=vocab_hash,
        accumulators=result.accumulators,
        extras=extras,
    )
    log_path = out_dir / "metrics.log"
    with atomic_write(log_path) as log:
        for stats in result.history:
            log.write(stats.log_line() + "\n")
    jsonl_path = out_dir / "metrics.jsonl"
    with atomic_write(jsonl_path) as fh:
        for stats in result.history:
            fh.write(json.dumps(asdict(stats), sort_keys=True) + "\n")
    write_manifest(manifest_path, {
        "subcommand": "train",
        "seed": args.seed,
        "config": {
            "model": model_config.to_dict(),
            "train": vars(train_config).copy(),
            "cap": args.cap,
            "max_src_len": args.max_src_len,
            "max_tgt_len": args.max_tgt_len,
            "stop_below": args.stop_below,
            "gate_disabled": model_config.ablate_gate,
            "gcn_disabled": model_config.ablate_gcn,
        },
        "inputs": {"corpus": str(args.corpus),
                   "corpus_hash": file_hash(args.corpus)},
        "outputs": {
            "checkpoint": str(ckpt_path),
            "vocab": str(vocab_path),
            "vocab_hash": vocab_hash,
            "metrics_log": str(log_path),
            "metrics_jsonl": str(jsonl_path),
        },
    })

    payload = {
        "checkpoint": str(ckpt_path),
        "vocab": str(vocab_path),
        "epochs_run": len(result.history),
        "final_loss": result.final_loss,
        "halted": result.halted,
    }
    if result.halted:
        payload["halt_reason"] = result.halt_reason
    emit(payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# decode


def decode_corpus(
    examples: Iterable[EncodedExample],
    params: ModelParams,
    vocab: Vocabulary,
    beam: int,
    max_len: int,
    alpha: float,
    selector: ContentSelector | None = None,
    threshold: float | None = None,
    damp: bool = False,
) -> Iterator[tuple[list[str], GatedDocument]]:
    """Decode each example as it is drawn: encode it, mask its copy
    attention with ``selector`` at ``threshold`` when a selector is given
    (``damp`` reweights by the selection probabilities instead), beam-search
    it and detokenise. Yields the summary tokens and the document's gate.

    ``encode_document`` and ``beam_search`` are looked up as this module's
    attributes, so wrapping them here (perfbench's tracer and its beam-4
    log-probability check) sees every decoded document.
    """
    for example in examples:
        enc, gated, ctx = encode_document(example, params)
        mask = None
        if selector is not None:
            mask = selector.predict(enc.fused.data, threshold)
            mask.damp = damp
        hyp = beam_search(make_step_fn(ctx, params, mask=mask),
                          initial_state(enc, params),
                          beam=beam, max_len=max_len, alpha=alpha)
        ids = [t for t in hyp.tokens if t != STOP_ID]
        yield ids_to_tokens(ids, vocab, example.oov_tokens), gated


def cmd_decode(args) -> int:
    # one read: the manifest hashes the very bytes that were parsed
    ckpt_bytes = Path(args.checkpoint).read_bytes()
    ckpt = load_checkpoint(ckpt_bytes)
    checkpoint_hash = bytes_hash(ckpt_bytes)
    del ckpt_bytes  # free the raw copy before the parameters are built
    vocab_hash = file_hash(args.vocab)
    if vocab_hash != ckpt.vocab_hash:
        raise CliError(
            f"vocabulary hash mismatch: checkpoint expects {ckpt.vocab_hash}, "
            f"file {args.vocab} has {vocab_hash}"
        )
    vocab = Vocabulary.load(args.vocab)
    config = ckpt.config
    if args.no_coverage:
        config.use_coverage = False
    params = params_from_checkpoint(ckpt)

    selector = None
    if args.bottom_up_threshold is not None:
        if "selector/w" not in ckpt.extras:
            raise CliError(
                "checkpoint carries no content selector; retrain without "
                "--no-selector to use --bottom-up-threshold"
            )
        selector = ContentSelector(
            w=ckpt.extras["selector/w"],
            b=float(ckpt.extras["selector/b"]),
            mean=ckpt.extras["selector/mean"],
            std=ckpt.extras["selector/std"],
        )
    elif args.bottom_up_damp:
        raise CliError("--bottom-up-damp requires --bottom-up-threshold")

    out = Path(args.out)
    manifest_path = Path(args.manifest) if args.manifest else Path(
        str(out) + ".manifest.json"
    )
    manifest = {
        "subcommand": "decode",
        "seed": 0,
        "config": {
            "beam": args.beam,
            "max_dec_len": args.max_dec_len,
            "len_penalty": args.len_penalty,
            "bottom_up_threshold": args.bottom_up_threshold,
            "bottom_up_damp": args.bottom_up_damp,
            "no_coverage": args.no_coverage,
            "model": config.to_dict(),
        },
        "inputs": {
            "checkpoint": str(args.checkpoint),
            "checkpoint_hash": checkpoint_hash,
            "corpus": str(args.corpus),
            "corpus_hash": file_hash(args.corpus),
            "vocab": str(args.vocab),
            "vocab_hash": vocab_hash,
        },
        "outputs": {"summaries": str(out)},
    }

    examples = (encode_example(doc, vocab) for doc in load_corpus(args.corpus))
    # summaries and gates land only once every document has decoded, and
    # the manifest after them, so a failed decode leaves every path as it was
    with atomic_write(out) as fh, (
        atomic_write(args.dump_gates) if args.dump_gates
        else contextlib.nullcontext()
    ) as gates_fh:
        for index, (tokens, gated) in enumerate(decode_corpus(
                examples, params, vocab, args.beam, args.max_dec_len,
                args.len_penalty, selector, args.bottom_up_threshold,
                args.bottom_up_damp)):
            fh.write(" ".join(tokens) + "\n")
            if gates_fh is not None:
                record = {
                    "index": index,
                    "attention": None if gated.attention is None
                    else [round(float(v), 8) for v in gated.attention.data],
                    "gate_mean": None if gated.gate is None
                    else [round(float(v), 8)
                          for v in gated.gate.data.mean(axis=1)],
                }
                gates_fh.write(json.dumps(record) + "\n")
    write_manifest(manifest_path, manifest)
    emit({"summaries": str(out), "hash": file_hash(out)}, args.json)
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    candidates = []
    with open(args.candidates, encoding="utf-8") as fh:
        for line in fh:
            candidates.append(line.strip().split() if line.strip() else [])
    references = [doc.reference for doc in load_corpus(args.references)]
    if len(candidates) != len(references):
        raise CliError(
            f"candidate/reference count mismatch: {len(candidates)} candidates "
            f"vs {len(references)} references"
        )
    report = evaluate_pairs(candidates, references,
                            n_resamples=args.resamples, seed=args.seed)
    manifest_path = Path(args.manifest) if args.manifest else Path(
        str(args.candidates) + ".eval-manifest.json"
    )
    write_manifest(manifest_path, {
        "subcommand": "eval",
        "seed": args.seed,
        "config": {"resamples": args.resamples},
        "inputs": {
            "candidates": str(args.candidates),
            "candidates_hash": file_hash(args.candidates),
            "references": str(args.references),
            "references_hash": file_hash(args.references),
        },
        "outputs": {},
    })
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.format_text())
    return 0


# ---------------------------------------------------------------------------
# graph-inspect


def cmd_graph_inspect(args) -> int:
    docs = list(load_corpus(args.corpus))
    if not 0 <= args.index < len(docs):
        raise CliError(
            f"document index {args.index} out of range for corpus of "
            f"{len(docs)} documents"
        )
    manifest_path = Path(args.manifest) if args.manifest else Path(
        str(args.corpus) + ".graph-manifest.json"
    )
    graph = build_document_graph(docs[args.index])
    stats = graph_stats(graph)
    if args.export:
        with atomic_write(args.export) as fh:
            fh.write(json.dumps(export_graph(graph), sort_keys=True) + "\n")
    write_manifest(manifest_path, {
        "subcommand": "graph-inspect",
        "seed": 0,
        "config": {"index": args.index, "export": args.export},
        "inputs": {"corpus": str(args.corpus),
                   "corpus_hash": file_hash(args.corpus)},
        "outputs": {"export": args.export},
    })
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        print(f"nodes: {stats['nodes']}")
        print("edges: " + ", ".join(f"{k}={v}" for k, v in stats["edges"].items()))
        print(f"max_in_degree: {stats['max_in_degree']}")
        print("root chain: " + " -> ".join(str(r) for r in stats["roots"]))
        print("labels: " + ", ".join(f"{k}={v}" for k, v in stats["labels"].items()))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synsum",
        description="Syntax-aware abstractive summarizer, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=50_000,
                   help="vocabulary size cap including reserved ids")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lr", type=float, default=0.15)
    p.add_argument("--init-acc", type=float, default=0.1)
    p.add_argument("--cov-weight", type=float, default=1.0)
    p.add_argument("--clip-norm", type=float, default=2.0)
    p.add_argument("--d-emb", type=int, default=25)
    p.add_argument("--d-h", type=int, default=32)
    p.add_argument("--d-g", type=int, default=64)
    p.add_argument("--gcn-layers", type=int, default=2)
    p.add_argument("--d-dec", type=int, default=64)
    p.add_argument("--d-attn", type=int, default=64)
    p.add_argument("--max-src-len", type=int, default=400)
    p.add_argument("--max-tgt-len", type=int, default=100)
    p.add_argument("--stop-below", type=float, default=None,
                   help="stop once epoch-mean loss falls below this value")
    p.add_argument("--ablate-gate", action="store_true",
                   help="bypass the selective gate")
    p.add_argument("--ablate-gcn", action="store_true",
                   help="drop graph convolutions and the gate")
    p.add_argument("--tie-directions", action="store_true",
                   help="share one weight matrix across dependency directions")
    p.add_argument("--no-coverage", action="store_true")
    p.add_argument("--no-selector", action="store_true",
                   help="skip content-selector training")
    p.add_argument("--manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("decode", help="decode summaries with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--max-dec-len", type=int, default=30)
    p.add_argument("--len-penalty", type=float, default=0.4)
    p.add_argument("--bottom-up-threshold", type=float, default=None)
    p.add_argument("--bottom-up-damp", action="store_true",
                   help="reweight copy attention by selector scores instead "
                        "of hard masking")
    p.add_argument("--no-coverage", action="store_true")
    p.add_argument("--dump-gates",
                   help="write per-token pooling attention and mean gate")
    p.add_argument("--manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", help="score candidate summaries with ROUGE")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True,
                   help="reference corpus in jsonl format")
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("graph-inspect", help="print document-graph statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--export", help="write the edge list as a JSON record")
    p.add_argument("--manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_graph_inspect)

    return parser


def validate_args(parser: argparse.ArgumentParser, args) -> None:
    def require_finite(flag: str, value: float | None) -> None:
        if value is not None and not math.isfinite(value):
            parser.error(f"{flag} must be a finite number, got {value}")

    if args.command == "synth" and args.size < 1:
        parser.error("--size must be >= 1")
    if args.command == "train":
        if args.ablate_gate and args.ablate_gcn:
            parser.error(
                "--ablate-gate is redundant with --ablate-gcn; pass only one"
            )
        if args.cap <= 4:
            parser.error("--cap must exceed the 4 reserved ids")
        require_finite("--stop-below", args.stop_below)
    if args.command == "decode":
        if args.beam < 1:
            parser.error("--beam must be >= 1")
        require_finite("--len-penalty", args.len_penalty)
        require_finite("--bottom-up-threshold", args.bottom_up_threshold)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_args(parser, args)
    try:
        return args.fn(args)
    except (CliError, CorpusFormatError, CheckpointError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
