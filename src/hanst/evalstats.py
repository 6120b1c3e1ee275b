"""Metrics, the citation-score transform, significance tests, run
aggregation, and corpus-level citation statistics."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import permutations

import numpy as np

from .corpus import check_fields, json_lines
from .errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateInputError,
    UndefinedMetricError,
    UndefinedTestError,
)


# ---------------------------------------------------------------------------
# prediction records
# ---------------------------------------------------------------------------

@dataclass
class PredictionRecord:
    """One model output for one example in one run."""

    id: str
    gold: float
    pred: float
    prob: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise ConfigurationError(f"probability must be in [0, 1], got {self.prob}")

    @classmethod
    def from_json(cls, obj: dict) -> "PredictionRecord":
        return cls(id=obj["id"], gold=obj["gold"], pred=obj["pred"],
                   prob=obj.get("prob"), seed=obj.get("seed"))


def save_predictions(records: list[PredictionRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def load_predictions(path) -> list[PredictionRecord]:
    """Each line's record; a run (a seed) predicts each id once."""
    records, seen = [], set()
    for where, obj in json_lines(path, {"id": "str", "gold": "float", "pred": "float"}):
        check_fields(obj, {"prob": "float | None", "seed": "int | None"}, where, optional=True)
        for key in ("gold", "pred"):   # json reads NaN and Infinity
            if not math.isfinite(obj[key]):
                raise ConfigurationError(f"{where}: {key!r} must be finite, got {obj[key]}")
        try:
            rec = PredictionRecord.from_json(obj)
        except ConfigurationError as exc:   # a prob outside [0, 1]
            raise ConfigurationError(f"{where}: {exc}") from None
        if (rec.seed, rec.id) in seen:
            raise ConfigurationError(f"{where}: seed {rec.seed!r} already predicted id {rec.id!r}")
        seen.add((rec.seed, rec.id))
        records.append(rec)
    if not records:
        raise ConfigurationError(f"{path}: no predictions")
    return records


# ---------------------------------------------------------------------------
# citation-score transform
# ---------------------------------------------------------------------------

def citation_score(n: int) -> float:
    """Natural log of (citations + 1)."""
    if n < 0:
        raise DegenerateInputError(f"citation count must be non-negative, got {n}")
    return math.log1p(n)


def inverse_citation_score(score: float) -> int:
    """Round-trips citation_score exactly on integers up to 10**6."""
    try:
        return max(0, round(math.expm1(score)))
    except (OverflowError, ValueError):   # expm1 overflows past about 709.78; NaN has no int
        raise DegenerateInputError(f"score {score} has no citation count") from None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _aligned(golds, preds) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(golds, dtype=np.float64)
    p = np.asarray(preds, dtype=np.float64)
    if g.shape != p.shape:
        raise AlignmentError(f"golds {g.shape} vs preds {p.shape}")
    if g.size == 0:
        raise UndefinedMetricError("empty inputs")
    # a NaN compares false, so a rank or a count would quietly leave it out
    if not (np.isfinite(g).all() and np.isfinite(p).all()):
        raise UndefinedMetricError("inputs hold NaN or inf")
    return g, p


def mse(golds, preds) -> float:
    g, p = _aligned(golds, preds)
    return float(np.mean((g - p) ** 2))


def mae(golds, preds) -> float:
    g, p = _aligned(golds, preds)
    return float(np.mean(np.abs(g - p)))


def accuracy(golds, preds) -> float:
    g, p = _aligned(golds, preds)
    return float(np.mean(g == p))


def r2_score(golds, preds) -> float:
    """1 minus MSE over the population variance of the golds.

    Exactly 0 for the constant gold-mean predictor, exactly 1 for perfect
    predictions; negative when worse than predicting the mean.
    """
    g, p = _aligned(golds, preds)
    if g.size < 2:
        raise UndefinedMetricError("r2 needs at least 2 examples")
    variance = float(np.mean((g - np.mean(g)) ** 2))
    if variance == 0.0:
        raise UndefinedMetricError("r2 undefined for zero-variance golds")
    return 1.0 - float(np.mean((g - p) ** 2)) / variance


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)   # each group of equal values ends at this rank
    return (ends - (counts - 1) / 2.0)[group]


def auc_roc(golds, probs) -> float:
    """Probability a random positive outranks a random negative; ties get
    half credit. Computed from average ranks (Mann-Whitney form)."""
    g, p = _aligned(golds, probs)
    pos = g == 1
    n_pos = int(pos.sum())
    n_neg = len(g) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs both classes in the golds")
    ranks = _average_ranks(p)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    return float((xc * yc).sum()) / denom


def spearman_rho(x, y) -> tuple[float, float]:
    """Rank correlation with a two-sided p-value.

    p is exact (full permutation enumeration) for n <= 8 and a Student-t
    approximation above.
    """
    x, y = _aligned(x, y)
    n = len(x)
    if n < 3:
        raise UndefinedMetricError("spearman needs at least 3 pairs")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise UndefinedMetricError("spearman undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rho = _pearson(rx, ry)
    if n <= 8:
        threshold = abs(rho) - 1e-12
        hits = sum(abs(_pearson(rx, np.array(perm))) >= threshold for perm in permutations(ry))
        p = hits / math.factorial(n)
    elif abs(rho) >= 1.0:
        p = 0.0
    else:
        t2 = rho * rho * (n - 2) / (1.0 - rho * rho)
        df = n - 2
        # imported here: it costs ~0.3 s and ~18 MiB, and only `stats` gets here
        from scipy.special import betainc
        p = float(betainc(df / 2.0, 0.5, df / (df + t2)))
    return rho, p


# ---------------------------------------------------------------------------
# significance tests
# ---------------------------------------------------------------------------

@dataclass
class SignificanceResult:
    test_kind: str
    statistic: float
    p_value: float
    system_a: str
    system_b: str
    n: int


def mcnemar_exact(golds, preds_a, preds_b, system_a: str = "A",
                  system_b: str = "B") -> SignificanceResult:
    """Two-sided exact binomial test on discordant prediction pairs."""
    g = np.asarray(golds)
    a = np.asarray(preds_a)
    b = np.asarray(preds_b)
    if not (g.shape == a.shape == b.shape):
        raise AlignmentError(f"golds {g.shape}, A {a.shape}, B {b.shape}")
    a_right = a == g
    b_right = b == g
    n_ab = int(np.sum(a_right & ~b_right))
    n_ba = int(np.sum(~a_right & b_right))
    m = n_ab + n_ba
    k = min(n_ab, n_ba)
    if m == 0:
        p = 1.0
    else:
        # exact integer tail: 2 * P(Bin(m, 1/2) <= k)
        tail = sum(math.comb(m, i) for i in range(k + 1))
        p = min(1.0, 2.0 * tail / 2 ** m)
    return SignificanceResult(test_kind="mcnemar-exact", statistic=float(k),
                              p_value=p, system_a=system_a, system_b=system_b,
                              n=len(g))


def _signed_rank_tail(ranks: np.ndarray, w: float) -> float:
    """P(W+ <= w) under the null (each rank positive with probability 1/2).

    Exact dynamic program over doubled ranks (doubling keeps .5 average
    ranks integral).
    """
    doubled = np.rint(ranks * 2).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=object)
    counts[0] = 1
    for r in doubled:
        shifted = np.zeros(total + 1, dtype=object)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    limit = int(math.floor(w * 2 + 1e-9))
    favorable = int(sum(counts[: limit + 1]))
    return favorable / 2 ** len(ranks)


def wilcoxon_signed_rank(errors_a, errors_b, system_a: str = "A",
                         system_b: str = "B") -> SignificanceResult:
    """Two-sided paired test on per-example error differences.

    Zero differences are dropped; tied magnitudes share average ranks. The
    p-value is exact (rank-sum enumeration) for n <= 25 and a tie-corrected
    normal approximation above.
    """
    a, b = _aligned(errors_a, errors_b)
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        raise UndefinedTestError("all differences are zero")
    if n < 6:
        raise UndefinedTestError(f"need at least 6 non-zero differences, got {n}")
    ranks = _average_ranks(np.abs(diffs))
    w_pos = float(ranks[diffs > 0].sum())
    w_neg = float(ranks[diffs < 0].sum())
    statistic = min(w_pos, w_neg)
    if n <= 25:
        p = min(1.0, 2.0 * _signed_rank_tail(ranks, statistic))
    else:
        _, tie_sizes = np.unique(np.abs(diffs), return_counts=True)
        mean_w = n * (n + 1) / 4.0
        var_w = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_sizes ** 3 - tie_sizes)).sum()) / 48.0
        z = (statistic - mean_w) / math.sqrt(var_w)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return SignificanceResult(test_kind="wilcoxon-signed-rank", statistic=statistic,
                              p_value=p, system_a=system_a, system_b=system_b, n=n)


# ---------------------------------------------------------------------------
# run aggregation
# ---------------------------------------------------------------------------

def vote_aggregate(runs: list[list[PredictionRecord]], task: str) -> list[PredictionRecord]:
    """Combine per-run predictions example-wise: modal class for
    classification, mean score for regression. `runs` is not empty."""
    if task == "classify" and len(runs) % 2 == 0:
        raise ConfigurationError(f"classification voting needs an odd run count, got {len(runs)}")
    base = {rec.id: rec for rec in runs[0]}
    order = [rec.id for rec in runs[0]]
    per_id: dict[str, list[PredictionRecord]] = {rid: [] for rid in order}
    for run in runs:
        ids = {rec.id for rec in run}
        if ids != set(order):
            missing = sorted(set(order) ^ ids)
            raise AlignmentError(f"runs cover different example sets; mismatched ids: {missing[:5]}")
        for rec in run:
            if rec.gold != base[rec.id].gold:
                raise AlignmentError(f"conflicting gold labels for example {rec.id!r}")
            per_id[rec.id].append(rec)
    combined = []
    for rid in order:
        recs = per_id[rid]
        if task == "classify":
            votes = Counter(int(r.pred) for r in recs)
            pred = float(max(votes, key=lambda c: (votes[c], c)))
        else:
            pred = float(np.mean([r.pred for r in recs]))
        combined.append(PredictionRecord(id=rid, gold=base[rid].gold, pred=pred,
                                         prob=None, seed=None))
    return combined


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation of a non-empty list (n-1
    denominator; 0 when n = 1)."""
    arr = np.asarray(values, dtype=np.float64)
    if np.all(arr == arr[0]):
        return float(arr[0]), 0.0
    return float(np.mean(arr)), float(np.std(arr, ddof=1))


def build_report(task: str, per_run_metrics: dict[str, list[float]]) -> dict:
    """Report schema: task, per-metric mean/std/per-run, and an empty
    significance list (`hanst significance` prints its results instead)."""
    metrics = {}
    for name in sorted(per_run_metrics):
        values = [float(v) for v in per_run_metrics[name]]
        mean, std = mean_std(values)
        metrics[name] = {"mean": mean, "std": std, "per_run": values}
    return {
        "task": task,
        "metrics": metrics,
        "significance": [],
    }


# ---------------------------------------------------------------------------
# corpus citation statistics
# ---------------------------------------------------------------------------

@dataclass
class CitationStats:
    group_means: dict[str, float]
    group_stds: dict[str, float]
    group_sizes: dict[str, int]
    rho: float
    p_value: float
    histogram: list[tuple[int, int, int, str]]   # (bin_start, bin_end, count, group)


def corpus_citation_stats(labels: list[dict], truncate_at: int, bin_width: int) -> CitationStats:
    """Group citation means/stds, right-truncated histograms, and the rank
    correlation between acceptance and citation count, from the documents' labels.

    Every document must carry a citation count. When every document also
    carries the acceptance flag the groups are accepted and rejected;
    otherwise there is one group, "all", and rho and p are NaN.
    """
    for name, value in (("truncate_at", truncate_at), ("bin_width", bin_width)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    if not all("citation_count" in lb for lb in labels):
        raise DegenerateInputError("citation statistics need a citation count on every document")
    if all("accepted" in lb for lb in labels):
        groups = {"accepted": [lb["citation_count"] for lb in labels if lb["accepted"]],
                  "rejected": [lb["citation_count"] for lb in labels if not lb["accepted"]]}
        for name, counts in groups.items():
            if not counts:
                raise DegenerateInputError(f"no documents in group {name!r}")
        rho, p = spearman_rho([float(lb["accepted"]) for lb in labels],
                              [float(lb["citation_count"]) for lb in labels])
    else:
        groups = {"all": [lb["citation_count"] for lb in labels]}
        rho = p = float("nan")
    means = {g: float(np.mean(v)) for g, v in groups.items()}
    stds = {g: float(np.std(v)) for g, v in groups.items()}
    sizes = {g: len(v) for g, v in groups.items()}
    # rows run to the bin that holds the largest count below truncate_at
    top = min(max(lb["citation_count"] for lb in labels), truncate_at - 1)
    n_bins = top // bin_width + 1
    histogram = []
    for group, counts in groups.items():
        hits = np.bincount([c // bin_width for c in counts if c < truncate_at], minlength=n_bins)
        histogram.extend((i * bin_width, min((i + 1) * bin_width, truncate_at), int(n), group)
                         for i, n in enumerate(hits))
    return CitationStats(group_means=means, group_stds=stds, group_sizes=sizes,
                         rho=rho, p_value=p, histogram=histogram)


def histogram_csv_lines(stats: CitationStats) -> list[str]:
    lines = ["bin_start,bin_end,count,group"]
    for start, end, count, group in stats.histogram:
        lines.append(f"{start},{end},{count},{group}")
    return lines
