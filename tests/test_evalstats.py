import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (auc_brute_force, mcnemar_binomial_oracle, spearman_permutation_oracle,
                     wilcoxon_sign_enumeration)
from hanst import evalstats as es
from hanst.errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateInputError,
    UndefinedMetricError,
    UndefinedTestError,
)


class TestCitationScore:
    def test_zero(self):
        assert es.citation_score(0) == 0.0

    def test_one(self):
        assert abs(es.citation_score(1) - math.log(2)) < 1e-15

    def test_round_trip(self):
        for n in list(range(0, 1001)) + [10 ** 4, 10 ** 5, 10 ** 6]:
            assert es.inverse_citation_score(es.citation_score(n)) == n

    def test_strictly_increasing(self):
        scores = [es.citation_score(n) for n in range(200)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_negative_rejected(self):
        with pytest.raises(DegenerateInputError):
            es.citation_score(-1)


class TestRegressionMetrics:
    def test_r2_perfect(self):
        assert es.r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_predictor_exactly_zero(self):
        golds = [0.3, 1.7, 2.9, 0.1, 4.4]
        mean = float(np.mean(golds))
        assert es.r2_score(golds, [mean] * len(golds)) == 0.0

    def test_r2_worse_than_mean(self):
        assert es.r2_score([0.0, 2.0], [2.0, 0.0]) == -3.0

    def test_r2_zero_variance(self):
        with pytest.raises(UndefinedMetricError):
            es.r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_r2_needs_two(self):
        with pytest.raises(UndefinedMetricError):
            es.r2_score([1.0], [1.0])

    def test_mse_mae_identical(self):
        assert es.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert es.mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_mae_single(self):
        assert es.mse([0.0], [3.0]) == 9.0
        assert es.mae([0.0], [3.0]) == 3.0

    def test_mae_example(self):
        assert es.mae([0.0, 4.0], [1.0, 1.0]) == 2.0

    def test_against_exact_rational_summation(self):
        rng = np.random.default_rng(0)
        golds = rng.integers(-8, 8, size=17) / 16.0
        preds = rng.integers(-8, 8, size=17) / 16.0
        exact_mse = sum((Fraction(g) - Fraction(p)) ** 2
                        for g, p in zip(golds, preds)) / len(golds)
        exact_mae = sum(abs(Fraction(g) - Fraction(p))
                        for g, p in zip(golds, preds)) / len(golds)
        assert abs(es.mse(golds, preds) - float(exact_mse)) < 1e-12
        assert abs(es.mae(golds, preds) - float(exact_mae)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        golds = rng.normal(size=12)
        preds = rng.normal(size=12)
        perm = rng.permutation(12)
        assert es.mse(golds, preds) == pytest.approx(es.mse(golds[perm], preds[perm]), abs=1e-15)
        assert es.r2_score(golds, preds) == pytest.approx(es.r2_score(golds[perm], preds[perm]), abs=1e-12)

    def test_alignment(self):
        with pytest.raises(AlignmentError):
            es.mse([1.0, 2.0], [1.0])
        with pytest.raises(UndefinedMetricError):
            es.mae([], [])


class TestAccuracy:
    def test_majority_on_imbalanced_splits(self):
        golds = [0] * 922 + [1] * 78
        assert es.accuracy(golds, [0] * 1000) == 0.922
        golds = [0] * 689 + [1] * 311
        assert es.accuracy(golds, [0] * 1000) == 0.689

    def test_perfect(self):
        assert es.accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_empty(self):
        with pytest.raises(UndefinedMetricError):
            es.accuracy([], [])


class TestAucRoc:
    def test_constant_probability(self):
        assert es.auc_roc([1, 0, 1, 0, 0], [0.3] * 5) == 0.5

    def test_perfect_separation(self):
        assert es.auc_roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_three_quarters(self):
        assert es.auc_roc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == 0.75

    def test_single_class(self):
        with pytest.raises(UndefinedMetricError):
            es.auc_roc([1, 1, 1], [0.2, 0.3, 0.4])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 6)), min_size=2, max_size=50))
    def test_matches_all_pairs_brute_force(self, pairs):
        golds = [g for g, _ in pairs]
        probs = [q / 6.0 for _, q in pairs]
        if len(set(golds)) < 2:
            return
        assert abs(es.auc_roc(golds, probs) - auc_brute_force(golds, probs)) < 1e-12

    def test_matches_mann_whitney_u(self):
        rng = np.random.default_rng(2)
        golds = rng.integers(0, 2, size=40)
        golds[:2] = [0, 1]
        probs = np.round(rng.random(40), 2)
        pos = probs[golds == 1]
        neg = probs[golds == 0]
        u = scipy.stats.mannwhitneyu(pos, neg).statistic
        assert es.auc_roc(golds, probs) == pytest.approx(u / (len(pos) * len(neg)), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        golds = [0, 1] * 10
        probs = rng.random(20)
        a = es.auc_roc(golds, probs)
        b = es.auc_roc(golds, 1.0 / (1.0 + np.exp(-5.0 * probs)))
        assert a == pytest.approx(b, abs=1e-12)


class TestSpearman:
    def test_monotone(self):
        rho, _ = es.spearman_rho([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
        assert rho == 1.0
        # n > 8 at |rho| = 1: the t statistic would divide by zero, so p is 0
        assert es.spearman_rho(range(10), range(10)) == (1.0, 0.0)

    def test_reversed(self):
        rho, _ = es.spearman_rho([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
        assert rho == -1.0

    def test_exact_p_matches_permutation_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.permutation(6).astype(float)
            y = rng.permutation(6).astype(float)
            rho, p = es.spearman_rho(x, y)
            rho_o, p_o = spearman_permutation_oracle(x, y)
            assert rho == pytest.approx(rho_o, abs=1e-12)
            assert p == pytest.approx(p_o, abs=1e-12)

    def test_rho_matches_reference_with_ties(self):
        x = [1.0, 1.0, 2.0, 3.0, 5.0, 5.0, 7.0, 9.0, 11.0, 2.0]
        y = [2.0, 3.0, 3.0, 4.0, 4.0, 6.0, 6.0, 7.0, 9.0, 1.0]
        rho, _ = es.spearman_rho(x, y)
        ref = scipy.stats.spearmanr(x, y)
        assert rho == pytest.approx(ref.statistic, abs=1e-12)

    def test_large_n_p_matches_t_reference(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        y = x + rng.normal(size=40) * 2.0
        rho, p = es.spearman_rho(x, y)
        ref = scipy.stats.spearmanr(x, y)
        assert rho == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_constant_vector(self):
        with pytest.raises(UndefinedMetricError):
            es.spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(UndefinedMetricError):
            es.spearman_rho([1.0, 2.0], [2.0, 1.0])


class TestMcnemar:
    def run(self, b, c, n_total=40):
        # constructed prediction triple with exactly b and c discordant pairs
        golds = np.zeros(n_total, dtype=int)
        preds_a = np.zeros(n_total, dtype=int)
        preds_b = np.zeros(n_total, dtype=int)
        preds_b[:b] = 1          # A right, B wrong
        preds_a[b:b + c] = 1     # A wrong, B right
        return es.mcnemar_exact(golds, preds_a, preds_b)

    def test_no_discordance(self):
        assert self.run(0, 0).p_value == 1.0

    def test_ten_zero(self):
        result = self.run(10, 0)
        assert result.p_value == pytest.approx(1.0 / 512.0, abs=1e-15)

    def test_balanced_discordance_capped(self):
        assert self.run(5, 5).p_value == 1.0

    def test_symmetry(self):
        golds = np.array([0, 1, 0, 1, 0, 1, 1, 0])
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2, size=8)
        b = rng.integers(0, 2, size=8)
        assert es.mcnemar_exact(golds, a, b).p_value == es.mcnemar_exact(golds, b, a).p_value

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12))
    def test_matches_binomial_oracle(self, b, c):
        result = self.run(b, c)
        assert result.p_value == pytest.approx(mcnemar_binomial_oracle(b, c), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_matches_scipy_binomtest(self, b, c):
        if b + c == 0 or b == c:
            return
        ref = scipy.stats.binomtest(min(b, c), b + c, 0.5).pvalue
        assert self.run(b, c).p_value == pytest.approx(ref, abs=1e-12)

    def test_alignment(self):
        with pytest.raises(AlignmentError):
            es.mcnemar_exact([0, 1], [0], [0, 1])


class TestWilcoxon:
    def test_identical_errors_undefined(self):
        with pytest.raises(UndefinedTestError):
            es.wilcoxon_signed_rank([1.0, 2.0, 3.0] * 3, [1.0, 2.0, 3.0] * 3)

    def test_all_positive_n8(self):
        a = [float(i + 2) for i in range(8)]
        b = [float(i + 1) for i in range(8)]
        result = es.wilcoxon_signed_rank(a, b)
        assert result.p_value == pytest.approx(0.0078125, abs=1e-15)
        assert result.n == 8

    def test_too_few_nonzero(self):
        with pytest.raises(UndefinedTestError):
            es.wilcoxon_signed_rank([1.0, 2.0, 3.0, 1.0, 1.0], [0.0, 1.0, 2.0, 1.0, 1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        assert (es.wilcoxon_signed_rank(a, b).p_value
                == es.wilcoxon_signed_rank(b, a).p_value)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=6, max_size=10))
    def test_matches_sign_enumeration(self, quantized):
        # zero second system keeps the differences (and their ties) exact
        diffs = [q / 4.0 for q in quantized]
        if sum(1 for d in diffs if d != 0.0) < 6:
            return
        result = es.wilcoxon_signed_rank(diffs, [0.0] * len(diffs))
        assert result.p_value == pytest.approx(wilcoxon_sign_enumeration(diffs), abs=1e-12)

    def test_exact_matches_scipy_for_tie_free(self):
        rng = np.random.default_rng(8)
        for n in (8, 14, 20, 25):
            diffs = rng.permutation(n) + 1.0
            diffs[rng.random(n) < 0.4] *= -1.0
            b = rng.normal(size=n)
            result = es.wilcoxon_signed_rank(b + diffs, b)
            ref = scipy.stats.wilcoxon(diffs, method="exact")
            assert result.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_normal_approximation_band(self):
        rng = np.random.default_rng(9)
        n = 40
        diffs = rng.normal(size=n) + 0.4
        diffs[diffs == 0.0] = 0.5
        b = rng.normal(size=n)
        result = es.wilcoxon_signed_rank(b + diffs, b)
        ref = scipy.stats.wilcoxon(diffs, method="approx", correction=False)
        assert result.p_value == pytest.approx(ref.pvalue, abs=1e-10)


class TestVoteAggregate:
    def record(self, rid, pred, seed, gold=1.0, prob=None):
        return es.PredictionRecord(id=rid, gold=gold, pred=pred, prob=prob, seed=seed)

    def test_mode(self):
        runs = [[self.record("x", 1.0, s)] for s in (1, 2)] + [[self.record("x", 0.0, 3)]]
        combined = es.vote_aggregate(runs, "classify")
        assert combined[0].pred == 1.0
        assert combined[0].prob is None

    def test_regression_mean(self):
        runs = [[self.record("x", v, s)] for s, v in enumerate([1.0, 2.0, 3.0])]
        combined = es.vote_aggregate(runs, "regress")
        assert combined[0].pred == 2.0

    def test_unanimous(self):
        runs = [[self.record("x", 1.0, s), self.record("y", 0.0, s, gold=0.0)]
                for s in (1, 2, 3)]
        combined = es.vote_aggregate(runs, "classify")
        assert [(r.id, r.pred) for r in combined] == [("x", 1.0), ("y", 0.0)]

    def test_even_run_count_rejected(self):
        runs = [[self.record("x", 1.0, s)] for s in (1, 2)]
        with pytest.raises(ConfigurationError):
            es.vote_aggregate(runs, "classify")

    def test_id_mismatch(self):
        runs = [[self.record("x", 1.0, 1)], [self.record("y", 1.0, 2)],
                [self.record("x", 1.0, 3)]]
        with pytest.raises(AlignmentError, match="y"):
            es.vote_aggregate(runs, "classify")

    def test_conflicting_golds(self):
        runs = [[self.record("x", 1.0, 1, gold=1.0)], [self.record("x", 1.0, 2, gold=0.0)],
                [self.record("x", 1.0, 3, gold=1.0)]]
        with pytest.raises(AlignmentError, match="gold"):
            es.vote_aggregate(runs, "classify")


class TestAggregation:
    def test_constant_values(self):
        assert es.mean_std([0.8, 0.8, 0.8]) == (0.8, 0.0)

    def test_sample_std(self):
        mean, std = es.mean_std([0.78, 0.80, 0.82])
        assert mean == pytest.approx(0.80, abs=1e-15)
        assert std == pytest.approx(0.02, abs=1e-12)

    def test_single_value(self):
        assert es.mean_std([0.5]) == (0.5, 0.0)

    def test_report_schema(self):
        report = es.build_report("classify", {"accuracy": [0.8, 0.9, 1.0]})
        assert set(report) == {"task", "metrics", "significance"}
        entry = report["metrics"]["accuracy"]
        assert set(entry) == {"mean", "std", "per_run"}
        assert entry["per_run"] == [0.8, 0.9, 1.0]
        assert report["significance"] == []
        # deterministic serialization
        a = json.dumps(report, sort_keys=True)
        b = json.dumps(es.build_report("classify", {"accuracy": [0.8, 0.9, 1.0]}),
                       sort_keys=True)
        assert a == b


class TestPredictionRecords:
    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            es.PredictionRecord(id="x", gold=1.0, pred=1.0, prob=1.5)

    def test_jsonl_round_trip(self, tmp_path):
        records = [es.PredictionRecord(id="a", gold=1.0, pred=0.0, prob=0.25, seed=7),
                   es.PredictionRecord(id="b", gold=2.5, pred=2.25, prob=None, seed=7)]
        path = tmp_path / "preds.jsonl"
        es.save_predictions(records, path)
        assert es.load_predictions(path) == records


def stats_label(accepted, citations):
    return {"accepted": accepted, "citation_count": citations}


class TestCorpusCitationStats:
    def test_constructed_correlation(self):
        rng = np.random.default_rng(10)
        labels = [stats_label(True, 10 + int(rng.integers(0, 4))) for _ in range(30)]
        labels += [stats_label(False, int(rng.integers(0, 4))) for _ in range(30)]
        stats = es.corpus_citation_stats(labels)
        assert stats.rho > 0.5
        assert stats.group_means["accepted"] > stats.group_means["rejected"]
        assert stats.group_sizes == {"accepted": 30, "rejected": 30}

    def test_all_zero_citations_surfaces_undefined(self):
        labels = [stats_label(i % 2 == 0, 0) for i in range(10)]
        with pytest.raises(UndefinedMetricError):
            es.corpus_citation_stats(labels)

    def test_one_group_empty(self):
        labels = [stats_label(True, i) for i in range(5)]
        with pytest.raises(DegenerateInputError):
            es.corpus_citation_stats(labels)

    def test_missing_label_kind(self):
        labels = [stats_label(True, 3), {"accepted": False}]
        with pytest.raises(DegenerateInputError):
            es.corpus_citation_stats(labels)

    def test_histogram_truncation_and_csv(self):
        labels = [stats_label(True, 2), stats_label(True, 250),
                stats_label(False, 7), stats_label(False, 3)]
        stats = es.corpus_citation_stats(labels, truncate_at=10, bin_width=5)
        lines = es.histogram_csv_lines(stats)
        assert lines[0] == "bin_start,bin_end,count,group"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 4 for r in rows)
        # doc with 250 citations falls outside the truncated histogram
        accepted_total = sum(int(r[2]) for r in rows if r[3] == "accepted")
        assert accepted_total == 1
        rejected_counts = {(int(r[0]), int(r[1])): int(r[2]) for r in rows if r[3] == "rejected"}
        assert rejected_counts[(0, 5)] == 1
        assert rejected_counts[(5, 10)] == 1

    def test_citation_counts_only_give_one_all_group(self):
        counts = [0, 3, 4, 9, 12, 250]
        labels = [{"citation_count": c} for c in counts]
        # acceptance flags on only some documents still give the single group
        labels[0]["accepted"] = True
        stats = es.corpus_citation_stats(labels, truncate_at=10, bin_width=4)
        assert stats.group_sizes == {"all": 6}
        assert stats.group_means == {"all": float(np.mean(counts))}
        assert stats.group_stds == {"all": float(np.std(counts))}
        assert math.isnan(stats.rho) and math.isnan(stats.p_value)
        assert stats.histogram == [(0, 4, 2, "all"), (4, 8, 1, "all"), (8, 10, 1, "all")]
        assert es.histogram_csv_lines(stats) == [
            "bin_start,bin_end,count,group", "0,4,2,all", "4,8,1,all", "8,10,1,all"]

    def test_rows_stop_at_the_bin_of_the_largest_count(self):
        # a bound of 10^9 wrote 2 * 2 * 10^8 rows, each bin a scan of every count
        labels = [stats_label(True, 2), stats_label(True, 17),
                  stats_label(False, 7), stats_label(False, 3)]
        stats = es.corpus_citation_stats(labels, truncate_at=10 ** 9, bin_width=5)
        assert stats.histogram == [
            (0, 5, 1, "accepted"), (5, 10, 0, "accepted"), (10, 15, 0, "accepted"),
            (15, 20, 1, "accepted"),
            (0, 5, 1, "rejected"), (5, 10, 1, "rejected"), (10, 15, 0, "rejected"),
            (15, 20, 0, "rejected")]
        # the bin of the largest count ends at the bound when the bound cuts it
        stats = es.corpus_citation_stats(labels, truncate_at=16, bin_width=5)
        assert stats.histogram[:4] == [
            (0, 5, 1, "accepted"), (5, 10, 0, "accepted"), (10, 15, 0, "accepted"),
            (15, 16, 0, "accepted")]

    def test_truncated_docs_still_in_group_stats(self):
        labels = [stats_label(True, 2), stats_label(True, 250),
                stats_label(False, 0), stats_label(False, 4)]
        stats = es.corpus_citation_stats(labels, truncate_at=10)
        assert stats.group_means["accepted"] == 126.0
