#!/usr/bin/env python3
"""Ablation study on held-out synthetic data.

Trains the full model, the gate-ablated model and the GCN-ablated model on
the same corpus across several seeds, then compares validation ROUGE-1 F1
from greedy decoding (beam 1 at length penalty 0). The expected direction is
full >= no-gate >= no-gcn.
"""

import argparse
import time

import numpy as np

from synsum import synthetic as syn
from synsum.cli import decode_corpus
from synsum.corpus import build_vocabulary, encode_example
from synsum.metrics import rouge
from synsum.model import ModelConfig
from synsum.training import TrainConfig, train


def validation_f1(params, val_examples, vocab, max_len=8):
    summaries = decode_corpus(val_examples, params, vocab, beam=1,
                              max_len=max_len, alpha=0.0)
    scores = [rouge(tokens, ex.reference_tokens, "R1").f1
              for ex, (tokens, _) in zip(val_examples, summaries)]
    return float(np.mean(scores))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus-seed", type=int, default=11)
    parser.add_argument("--size", type=int, default=500)
    parser.add_argument("--held-out", type=int, default=100)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--easy-grammar", action="store_true",
                        help="use the default grammar instead of the harder "
                             "place-copying one (saturates quickly)")
    args = parser.parse_args(argv)

    grammar = None if args.easy_grammar else \
        syn.GrammarConfig(copy_place=True, distractor_every=1)
    docs = syn.generate_documents(seed=args.corpus_seed, size=args.size,
                                  grammar=grammar)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap(grammar))
    examples = [encode_example(d, vocab) for d in docs]
    train_ex = examples[: -args.held_out]
    val_ex = examples[-args.held_out:]
    print(f"corpus: {args.size} docs, vocab {vocab.size}, "
          f"{len(train_ex)} train / {len(val_ex)} validation")

    variants = {
        "full": dict(ablate_gate=False, ablate_gcn=False),
        "-Attn-Gate": dict(ablate_gate=True, ablate_gcn=False),
        "-GCNs": dict(ablate_gate=True, ablate_gcn=True),
    }
    ordered = 0
    for seed in args.seeds:
        row = {}
        for name, flags in variants.items():
            config = ModelConfig(vocab_size=vocab.size, d_emb=16, d_h=16,
                                 d_g=32, gcn_layers=2, d_dec=32, d_attn=32,
                                 **flags)
            t0 = time.perf_counter()
            result = train(train_ex, config,
                           TrainConfig(epochs=args.epochs, seed=seed))
            row[name] = validation_f1(result.params, val_ex, vocab)
            print(f"  seed {seed} {name:>10}: val R1-F1 {row[name]:.4f} "
                  f"(train loss {result.final_loss:.3f}, "
                  f"{time.perf_counter() - t0:.0f}s)")
        ok = row["full"] >= row["-Attn-Gate"] >= row["-GCNs"]
        ordered += ok
        print(f"  seed {seed} ordering full >= -Attn-Gate >= -GCNs: "
              f"{'holds' if ok else 'violated'}")
    print(f"ordering held in {ordered}/{len(args.seeds)} seeds")


if __name__ == "__main__":
    main()
