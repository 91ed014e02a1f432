"""Tests for EER / MinDCF computation and the trial/score text formats."""

import numpy as np
import pytest

from oracles import brute_force_eer, brute_force_min_dcf, report_from_text
from svkit import metrics
from svkit.metrics import (
    DCFParams,
    EvalReport,
    MissingScoresError,
    ScoreSet,
    Trials,
    eer,
    evaluate,
    min_dcf,
    read_scores,
    read_trials,
    roc_points,
    write_scores,
)

TOY_TARGETS = [0.9, 0.8, 0.7]
TOY_NONTARGETS = [0.75, 0.2, 0.1]


def score_set(target_scores, nontarget_scores) -> ScoreSet:
    labels = np.repeat([1, 0], [len(target_scores), len(nontarget_scores)])
    return ScoreSet(labels, np.concatenate([target_scores, nontarget_scores]))


def trials_of(tmp_path, text="1 a b\n") -> Trials:
    path = tmp_path / "trials.txt"
    path.write_text(text)
    return read_trials(path)


@pytest.fixture
def toy() -> ScoreSet:
    return score_set(np.array(TOY_TARGETS), np.array(TOY_NONTARGETS))


def random_score_set(rng) -> ScoreSet:
    n_target = int(rng.integers(1, 51))
    n_nontarget = int(rng.integers(1, 51))
    targets = rng.normal(loc=1.0, size=n_target)
    nontargets = rng.normal(loc=0.0, size=n_nontarget)
    if rng.random() < 0.5:  # quantize to force tied scores
        targets = np.round(targets, 1)
        nontargets = np.round(nontargets, 1)
    return score_set(targets, nontargets)


class TestRocPoints:
    def test_toy_point_at_three_quarters(self, toy):
        thresholds, p_miss, p_fa = roc_points(toy)
        i = int(np.searchsorted(thresholds, 0.75))
        assert thresholds[i] == 0.75
        assert p_miss[i] == 1.0 / 3.0
        assert p_fa[i] == 1.0 / 3.0

    def test_separable_scores_reach_zero_zero(self):
        thresholds, p_miss, p_fa = roc_points(
            score_set(np.array([0.8, 0.9]), np.array([0.1, 0.2]))
        )
        assert np.any((p_miss == 0.0) & (p_fa == 0.0))

    def test_error_rates_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            _, p_miss, p_fa = roc_points(random_score_set(rng))
            assert np.all(np.diff(p_miss) >= 0)
            assert np.all(np.diff(p_fa) <= 0)

    def test_duplicate_scores_collapse_to_one_point(self):
        ss = score_set(np.array([0.5, 0.5, 0.9]), np.array([0.5, 0.1]))
        thresholds, _, _ = roc_points(ss)
        np.testing.assert_array_equal(thresholds, [0.1, 0.5, 0.9])

    def test_single_label_sets_rejected(self):
        with pytest.raises(ValueError, match="no nontarget"):
            roc_points(score_set(np.array([0.5]), np.array([])))
        with pytest.raises(ValueError, match="no target"):
            roc_points(score_set(np.array([]), np.array([0.5])))


class TestEer:
    def test_toy_equal_error_at_one_third(self, toy):
        value, threshold = eer(toy)
        assert value == 1.0 / 3.0
        assert threshold == 0.75

    def test_separable_scores_have_zero_eer(self):
        value, _ = eer(score_set(np.array([0.6, 0.7, 1.0]), np.array([0.0, 0.2, 0.4])))
        assert value == 0.0

    def test_swapped_labels_give_eer_one(self):
        value, _ = eer(score_set(np.array([0.0, 0.2, 0.4]), np.array([0.6, 0.7, 1.0])))
        assert value == 1.0

    def test_all_tied_scores_interpolate_to_half(self):
        value, _ = eer(score_set(np.array([0.5, 0.5]), np.array([0.5])))
        assert value == 0.5

    def test_value_always_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            value, _ = eer(random_score_set(rng))
            assert 0.0 <= value <= 1.0


class TestMinDcf:
    def test_toy_minimum_cost(self, toy):
        raw, threshold = min_dcf(toy, DCFParams(normalize=False))
        assert raw == pytest.approx(0.05 / 3.0, rel=1e-12)
        assert threshold == 0.8
        norm, _ = min_dcf(toy)
        assert norm == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_separable_scores_cost_nothing(self):
        raw, _ = min_dcf(
            score_set(np.array([0.8, 0.9]), np.array([0.1, 0.2])),
            DCFParams(normalize=False),
        )
        assert raw == 0.0

    def test_reject_all_endpoint_bounds_raw_cost(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw, _ = min_dcf(random_score_set(rng), DCFParams(normalize=False))
            assert raw <= 0.05

    def test_normalized_cost_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            value, _ = min_dcf(random_score_set(rng))
            assert 0.0 <= value <= 1.0

    def test_normalization_divides_by_cheapest_trivial_system(self, toy):
        raw, _ = min_dcf(toy, DCFParams(normalize=False))
        norm, _ = min_dcf(toy)
        assert norm == raw / 0.05


class TestOracleEquivalence:
    def test_matches_exhaustive_sweep_on_random_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            ss = random_score_set(rng)
            targets, nontargets = ss.target_scores, ss.nontarget_scores
            got_eer, _ = eer(ss)
            assert got_eer == pytest.approx(
                brute_force_eer(targets, nontargets), abs=1e-12
            )
            got_dcf, _ = min_dcf(ss)
            assert got_dcf == brute_force_min_dcf(targets, nontargets)

    def test_matches_sweep_under_other_cost_parameters(self):
        rng = np.random.default_rng(5)
        params = DCFParams(c_miss=10.0, c_fa=1.0, p_target=0.01)
        for _ in range(20):
            ss = random_score_set(rng)
            got, _ = min_dcf(ss, params)
            expected = brute_force_min_dcf(
                ss.target_scores, ss.nontarget_scores, c_miss=10.0, c_fa=1.0, p_target=0.01
            )
            assert got == expected

    def test_monotone_transforms_leave_metrics_unchanged(self):
        rng = np.random.default_rng(6)
        for transform in (lambda s: 2.0 * s + 1.0, np.exp, np.arctan):
            ss = random_score_set(rng)
            mapped = ScoreSet(ss.labels, transform(ss.scores))
            assert eer(mapped)[0] == eer(ss)[0]
            assert min_dcf(mapped)[0] == min_dcf(ss)[0]


class TestEvaluate:
    def test_toy_report_values(self, toy):
        report = evaluate(toy)
        assert report.eer_pct == 33.3333
        assert report.eer == 1.0 / 3.0
        assert report.eer_threshold == 0.75
        assert report.min_dcf == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report.min_dcf_raw == pytest.approx(0.05 / 3.0, rel=1e-12)
        assert report.dcf_threshold == 0.8
        assert report.n_target == 3
        assert report.n_nontarget == 3

    def test_unnormalized_report(self, toy):
        report = evaluate(toy, DCFParams(normalize=False))
        assert report.min_dcf == report.min_dcf_raw

    def test_report_text_round_trip(self, toy):
        report = evaluate(toy)
        assert report_from_text(EvalReport, report.to_text()) == report

    def test_report_round_trip_on_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            report = evaluate(random_score_set(rng))
            assert report_from_text(EvalReport, report.to_text()) == report

    def test_report_text_is_key_value_lines(self, toy):
        text = evaluate(toy).to_text()
        for line in text.strip().splitlines():
            assert "=" in line
        assert "eer_pct=33.3333" in text
        assert "n_target=3" in text

    def test_one_roc_sweep_per_report_which_eer_and_min_dcf_read(self, toy, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "roc_points", lambda scores: calls.append(1) or roc_points(scores))
        params = DCFParams(c_miss=10.0, p_target=0.01)
        report = evaluate(toy, params)
        assert len(calls) == 1
        assert eer(toy) == (report.eer, report.eer_threshold)
        assert min_dcf(toy, params) == (report.min_dcf, report.dcf_threshold)
        assert len(calls) == 3

    def test_malformed_report_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            report_from_text(EvalReport, "eer_pct\n")
        with pytest.raises(ValueError, match="missing field"):
            report_from_text(EvalReport, "eer_pct=1.0\n")


class TestScoreSet:
    def test_score_count_must_match(self):
        with pytest.raises(ValueError, match="one score per trial"):
            ScoreSet(np.array([1]), np.array([0.1, 0.2]))

    def test_scores_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreSet(np.array([1]), np.array([np.nan]))

    def test_label_split(self, toy):
        np.testing.assert_array_equal(np.sort(toy.target_scores), [0.7, 0.8, 0.9])
        np.testing.assert_array_equal(np.sort(toy.nontarget_scores), [0.1, 0.2, 0.75])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            ScoreSet(np.array([2]), np.array([0.5]))


class TestDcfParams:
    def test_defaults(self):
        params = DCFParams()
        assert (params.c_miss, params.c_fa, params.p_target) == (1.0, 1.0, 0.05)
        assert params.normalize

    def test_costs_must_be_positive(self):
        with pytest.raises(ValueError, match="cost"):
            DCFParams(c_miss=0.0)
        with pytest.raises(ValueError, match="cost"):
            DCFParams(c_fa=-1.0)

    @pytest.mark.parametrize("costs", [{"c_miss": np.nan}, {"c_fa": np.nan}, {"c_miss": np.inf}, {"c_fa": np.inf}])
    def test_costs_must_be_finite(self, costs):
        with pytest.raises(ValueError, match="cost"):
            DCFParams(**costs)

    @pytest.mark.parametrize("costs", [{"c_miss": 5e-324}, {"c_fa": 5e-324, "p_target": 0.9999999999999999}])
    def test_normalizer_must_be_positive_only_when_divided_by(self, costs):
        with pytest.raises(ValueError, match="normalizer"):
            DCFParams(**costs)
        assert DCFParams(**costs, normalize=False).normalizer == 0.0

    def test_p_target_strictly_inside_unit_interval(self):
        with pytest.raises(ValueError, match="p_target"):
            DCFParams(p_target=0.0)
        with pytest.raises(ValueError, match="p_target"):
            DCFParams(p_target=1.0)


class TestTrialFile:
    def test_read_trials(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 spk1/a.wav spk1/b.wav\n\n0 spk1/a.wav spk2/c.wav\n")
        trials = read_trials(path)
        assert trials.ids == ("spk1/a.wav", "spk1/b.wav", "spk2/c.wav")
        assert trials.labels.dtype == np.int8 and trials.labels.tolist() == [1, 0]
        assert trials.enroll.dtype == trials.test.dtype == np.intp
        assert trials.enroll.tolist() == [0, 0]
        assert trials.test.tolist() == [1, 2]

    def test_bad_label_token_rejected(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("2 a.wav b.wav\n")
        with pytest.raises(ValueError, match="trials.txt:1"):
            read_trials(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 a.wav\n")
        with pytest.raises(ValueError, match="expected"):
            read_trials(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no trials"):
            read_trials(path)

    def test_repeated_pair_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 a.wav b.wav\n0 a.wav c.wav\n\n0 a.wav b.wav\n")
        with pytest.raises(ValueError, match=r"trials.txt:4: duplicate trial a.wav vs b.wav \(first on line 1\)"):
            read_trials(path)

    def test_file_that_is_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_bytes(b"1 a\xff b\n")
        with pytest.raises(ValueError, match=r"^\S*trials.txt: 'utf-8' codec can't decode byte 0xff"):
            read_trials(path)

    def test_ids_list_enroll_ids_then_new_test_ids(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 c a\n0 b c\n1 c d\n0 a e\n")
        trials = read_trials(path)
        assert trials.ids == ("c", "b", "a", "d", "e")
        assert (trials.enroll.tolist(), trials.test.tolist()) == ([0, 1, 0, 2], [2, 0, 3, 4])

    def test_swapped_pair_is_a_distinct_trial(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("1 a.wav b.wav\n1 b.wav a.wav\n")
        trials = read_trials(path)
        assert trials.ids == ("a.wav", "b.wav")
        assert (trials.enroll.tolist(), trials.test.tolist()) == ([0, 1], [1, 0])


class TestScoreFile:
    def test_round_trip_at_six_decimals(self, tmp_path):
        path = tmp_path / "scores.txt"
        write_scores(path, trials_of(tmp_path, "1 a.wav b.wav\n0 a.wav c.wav\n"), np.array([0.123456789, -1.5]))
        got = read_scores(path, trials_of(tmp_path, "1 a.wav b.wav\n0 a.wav c.wav\n"))
        assert got[0] == pytest.approx(0.123456789, abs=5e-7)
        assert got[1] == -1.5

    def test_written_scores_have_six_decimals(self, tmp_path):
        path = tmp_path / "scores.txt"
        write_scores(path, trials_of(tmp_path, "1 a b\n"), np.array([0.5]))
        assert path.read_text() == "a b 0.500000\n"

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b 0.5\na b 0.6\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_scores(path, trials_of(tmp_path))

    def test_bad_score_token_rejected(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b not-a-number\n")
        with pytest.raises(ValueError, match="bad score"):
            read_scores(path, trials_of(tmp_path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no scores"):
            read_scores(path, trials_of(tmp_path))

    def test_scores_follow_trial_order(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("c d 0.25\na b 0.75\n")
        scores = read_scores(path, trials_of(tmp_path, "1 a b\n0 c d\n"))
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(scores, [0.75, 0.25])

    def test_missing_scores_listed_naming_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b 0.75\n")
        with pytest.raises(MissingScoresError, match=r"scores.txt: 1 trials have no score: c vs d$"):
            read_scores(path, trials_of(tmp_path, "1 a b\n0 c d\n"))

    def test_long_missing_list_truncated(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("x y 0.5\n")
        trials = trials_of(tmp_path, "".join(f"1 e{i} t{i}\n" for i in range(12)))
        with pytest.raises(MissingScoresError, match=r"12 trials.*e9 vs t9 \(\+2 more\)$"):
            read_scores(path, trials)

    def test_pairs_not_in_the_list_are_checked_then_ignored(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("x y 0.1\na b 0.5\nb a 0.2\n")
        assert read_scores(path, trials_of(tmp_path)).tolist() == [0.5]
        path.write_text("a b 0.5\nx y 0.1\nx y 0.2\n")
        with pytest.raises(ValueError, match="scores.txt:3: duplicate score for x vs y"):
            read_scores(path, trials_of(tmp_path))

    def test_written_file_is_utf8(self, tmp_path):
        path = tmp_path / "scores.txt"
        write_scores(path, trials_of(tmp_path, "1 é.wav ü.wav\n"), np.array([0.5]))
        assert path.read_bytes() == "é.wav ü.wav 0.500000\n".encode("utf-8")
        assert read_scores(path, trials_of(tmp_path, "1 é.wav ü.wav\n")).tolist() == [0.5]

    def test_file_that_is_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_bytes(b"a b\xff 0.5\n")
        with pytest.raises(ValueError, match=r"^\S*scores.txt: 'utf-8' codec can't decode byte 0xff"):
            read_scores(path, trials_of(tmp_path))

    def test_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("a b 0.5\nc d nan\ne f 0.1\na b 0.6\n")
        with pytest.raises(ValueError, match="scores.txt:2: score must be finite, got 'nan'$"):
            read_scores(path, trials_of(tmp_path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_names_file_and_line(self, tmp_path, token):
        path = tmp_path / "scores.txt"
        path.write_text(f"a b 0.5\n\nc d {token}\ne f nan\n")
        with pytest.raises(ValueError, match=f"scores.txt:3: score must be finite, got '{token}'"):
            read_scores(path, trials_of(tmp_path))
