"""ROUGE-1/2/L and bootstrapped corpus evaluation.

ROUGE-N uses clipped n-gram overlap counts; ROUGE-L uses the longest common
subsequence over the flat token sequences. F1 is the harmonic mean of
precision and recall and defined as zero when there is no overlap. Empty
candidates or references yield all-zero scores with a ``degenerate`` flag
rather than an error.

Corpus means come with 95% bootstrap confidence intervals: per-example
scores are resampled with replacement (seeded, 1000 resamples by default)
and the 2.5th/97.5th percentiles of the resample means bound the interval.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Score",
    "MetricSummary",
    "RougeReport",
    "METRICS",
    "rouge",
    "rouge_all",
    "bootstrap_ci",
    "evaluate_pairs",
]

METRICS = ("R1", "R2", "RL")


@dataclass
class Score:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False  # an input sequence was empty


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    prev = [0] * (len(b) + 1)
    for i in range(len(a)):
        cur = [0] * (len(b) + 1)
        for j in range(len(b)):
            if a[i] == b[j]:
                cur[j + 1] = prev[j] + 1
            else:
                cur[j + 1] = max(prev[j + 1], cur[j])
        prev = cur
    return prev[len(b)]


def _prf(overlap: float, cand_total: float, ref_total: float,
         degenerate: bool = False) -> Score:
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return Score(precision, recall, f1, degenerate)


def rouge(candidate: Sequence[str], reference: Sequence[str],
          metric: str) -> Score:
    """Precision/recall/F1 of one candidate against one reference."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if not candidate or not reference:
        return Score(0.0, 0.0, 0.0, degenerate=True)
    if metric == "RL":
        lcs = _lcs_length(candidate, reference)
        return _prf(lcs, len(candidate), len(reference))
    n = 1 if metric == "R1" else 2
    cand_grams = _ngrams(candidate, n)
    ref_grams = _ngrams(reference, n)
    overlap = sum(min(cnt, ref_grams[g]) for g, cnt in cand_grams.items())
    return _prf(overlap, sum(cand_grams.values()), sum(ref_grams.values()))


def rouge_all(candidate: Sequence[str], reference: Sequence[str]) -> dict[str, Score]:
    return {metric: rouge(candidate, reference, metric) for metric in METRICS}


def bootstrap_ci(
    values: Sequence[float],
    n_resamples: int = 1000,
    seed: int = 0,
    level: float = 95.0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of ``values``."""
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ValueError("bootstrap over an empty sample")
    if data.size == 1:
        return float(data[0]), float(data[0])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=(n_resamples, data.size))
    means = data[idx].mean(axis=1)
    lo = (100.0 - level) / 2.0
    return (
        float(np.percentile(means, lo)),
        float(np.percentile(means, 100.0 - lo)),
    )


@dataclass
class MetricSummary:
    mean_precision: float
    mean_recall: float
    mean_f1: float
    ci_precision: tuple[float, float]
    ci_recall: tuple[float, float]
    ci_f1: tuple[float, float]


@dataclass
class RougeReport:
    summaries: dict[str, MetricSummary]
    n_examples: int
    degenerate_rows: list[int] = field(default_factory=list)

    def format_text(self) -> str:
        lines = [f"examples: {self.n_examples}"]
        if self.degenerate_rows:
            lines.append(f"degenerate rows (empty input): {self.degenerate_rows}")
        for metric, s in self.summaries.items():
            lines.append(
                f"{metric}: P {s.mean_precision:.4f} "
                f"[{s.ci_precision[0]:.4f}, {s.ci_precision[1]:.4f}]  "
                f"R {s.mean_recall:.4f} "
                f"[{s.ci_recall[0]:.4f}, {s.ci_recall[1]:.4f}]  "
                f"F1 {s.mean_f1:.4f} "
                f"[{s.ci_f1[0]:.4f}, {s.ci_f1[1]:.4f}]"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "n_examples": self.n_examples,
            "degenerate_rows": self.degenerate_rows,
            "metrics": {
                metric: {
                    "precision": s.mean_precision,
                    "recall": s.mean_recall,
                    "f1": s.mean_f1,
                    "ci_precision": list(s.ci_precision),
                    "ci_recall": list(s.ci_recall),
                    "ci_f1": list(s.ci_f1),
                }
                for metric, s in self.summaries.items()
            },
        }


def evaluate_pairs(
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    n_resamples: int = 1000,
    seed: int = 0,
) -> RougeReport:
    """Per-example ROUGE with bootstrapped means over a decoded corpus."""
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise ValueError("nothing to evaluate")
    per_example: dict[str, list[Score]] = {m: [] for m in METRICS}
    degenerate_rows = []
    for row, (cand, ref) in enumerate(zip(candidates, references)):
        scores = rouge_all(cand, ref)
        if any(s.degenerate for s in scores.values()):
            degenerate_rows.append(row)
        for metric in METRICS:
            per_example[metric].append(scores[metric])
    summaries = {}
    for metric in METRICS:
        rows = per_example[metric]
        p = [s.precision for s in rows]
        r = [s.recall for s in rows]
        f1 = [s.f1 for s in rows]
        summaries[metric] = MetricSummary(
            mean_precision=float(np.mean(p)),
            mean_recall=float(np.mean(r)),
            mean_f1=float(np.mean(f1)),
            ci_precision=bootstrap_ci(p, n_resamples, seed),
            ci_recall=bootstrap_ci(r, n_resamples, seed),
            ci_f1=bootstrap_ci(f1, n_resamples, seed),
        )
    return RougeReport(
        summaries=summaries,
        n_examples=len(candidates),
        degenerate_rows=degenerate_rows,
    )
