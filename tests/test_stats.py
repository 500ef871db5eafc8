
import re

import numpy as np
import pytest

import oracles
from reseval import pcc, srcc
from reseval.stats import ScoreTable, average_ranks, correlate_table


class TestPcc:
    def test_perfect_linear(self):
        assert pcc([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        assert pcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed(self):
        assert pcc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
        assert oracles.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pcc([1.0, 1.0, 1.0], [1, 2, 3])

    def test_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            pcc([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            pcc([1, 2], [1, 2, 3])

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        assert pcc(x, y) == pytest.approx(pcc(y, x), abs=1e-12)
        assert pcc(3.0 * x + 7.0, y) == pytest.approx(pcc(x, y), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308])
    def test_any_finite_scale(self, scale):
        """Squared deviations near 1e-400 or 1e400 neither underflow to 0 nor overflow."""
        x, y = [1.0, 1.25, 1.75], [1.0, 1.5, 1.25]
        assert pcc([v * scale for v in x], [v * scale for v in y]) == pytest.approx(pcc(x, y), rel=1e-12)
        assert pcc([v * scale for v in x], y) == pytest.approx(pcc(x, y), rel=1e-12)


class TestSrcc:
    def test_monotone_invariance(self):
        x = np.array([0.3, 1.1, 2.4, 3.0, 5.5])
        assert srcc(x, np.exp(x)) == 1.0

    def test_inverse(self):
        assert srcc([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tie_handling_matches_oracle(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 4.0]
        assert list(average_ranks(x)) == oracles.average_ranks(x) == [1.0, 2.5, 2.5, 4.0]
        assert srcc(x, y) == pytest.approx(oracles.spearman(x, y), abs=1e-12)

    def test_rank_then_pearson_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.integers(0, 10, size=30).astype(float)  # plenty of ties
            y = rng.integers(0, 10, size=30).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert srcc(x, y) == pcc(average_ranks(x), average_ranks(y))

    def test_bounded_and_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            p = pcc(x, y)
            s = srcc(x, y)
            assert -1.0 <= p <= 1.0 and -1.0 <= s <= 1.0
            assert p == pytest.approx(oracles.pearson(list(x), list(y)), abs=1e-12)
            assert s == pytest.approx(oracles.spearman(list(x), list(y)), abs=1e-12)


class TestScoreTable:
    def write(self, path, text):
        path.write_text(text)
        return path

    def test_from_csv(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "utt,dsml,mos\na,8.1,3.2\nb,7.4,\n")
        table = ScoreTable.from_csv(path)
        assert list(table.columns) == ["utt", "dsml", "mos"]
        assert table.columns == {"utt": ["a", "b"], "dsml": [8.1, 7.4], "mos": [3.2, None]}

    def test_ragged_rejected(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "utt,a\nx,1,2\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            ScoreTable.from_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "utt,a\nx,fast\n")
        with pytest.raises(ValueError, match="not numeric"):
            correlate_table(ScoreTable.from_csv(path), "a", "a")

    def test_duplicate_ids_rejected(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "utt,a\nx,1\nx,2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate utterance id 'x'$"):
            ScoreTable.from_csv(path)

    @pytest.mark.parametrize("header,name", [("id,a,a,b", "a"), ("id,a,b,a", "a"), ("id,id,a", "id")])
    def test_duplicate_columns_rejected(self, tmp_path, header, name):
        width = header.count(",")
        rows = [f"u{i}" + f",{i}" * width for i in range(3)]
        path = self.write(tmp_path / "t.csv", "\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate column '{name}'$"):
            ScoreTable.from_csv(path)

    @pytest.mark.parametrize("text", [
        "\nutt,a,b\nx,1,2\ny,3,\n",
        "utt,a,b\nx,1,2\n\n\ny,3,\n",
        "utt,a,b\nx,1,2\ny,3,\n\n",
        "utt,a,b\r\nx,1,2\r\n\r\ny,3,\r\n\r\n",
    ], ids=["leading", "between-rows", "trailing", "crlf"])
    def test_blank_lines_skipped(self, tmp_path, text):
        table = ScoreTable.from_csv(self.write(tmp_path / "t.csv", text))
        assert list(table.columns) == ["utt", "a", "b"]
        assert table.columns == {"utt": ["x", "y"], "a": [1.0, 3.0], "b": [2.0, None]}

    def test_blank_only_is_empty(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "\n\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty CSV$"):
            ScoreTable.from_csv(path)

    def test_error_names_the_file_line(self, tmp_path):
        """Blank lines count, so the line number is the one an editor shows."""
        path = self.write(tmp_path / "t.csv", "\nutt,a\n\nx,1\n\ny,fast\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6: cell 'fast' in column 'a' is not numeric$"):
            correlate_table(ScoreTable.from_csv(path), "a", "a")

    def test_first_column_is_the_id_column(self, tmp_path):
        table = ScoreTable({"name": ["x"], "a": [1.0]})
        assert table.id_column == "name"
        path = self.write(tmp_path / "t.csv", "name,a\nx,1\nx,2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate utterance id 'x'$"):
            ScoreTable.from_csv(path)

    def test_missing_column_lists_available(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "utt,a\nx,1\n")
        table = ScoreTable.from_csv(path)
        with pytest.raises(ValueError, match="available: utt, a"):
            table.column("b")

    def test_column_with_a_cell_that_is_no_finite_number_keeps_its_text(self, tmp_path):
        path = self.write(tmp_path / "t.csv", "utt,room,a,b\nu0,x,1,2\nu1,,inf,3\nu2, 12 ,,5\n")
        assert ScoreTable.from_csv(path).columns == {"utt": ["u0", "u1", "u2"], "room": ["x", None, "12"],
                                                      "a": ["1", "inf", None], "b": [2.0, 3.0, 5.0]}

    @pytest.mark.parametrize("metric,score,message", [
        ("room", "b", ":2: cell 'x' in column 'room' is not numeric"),
        ("b", "a", ":3: cell 'inf' in column 'a' is not finite"),
        ("a", "room", ":3: cell 'inf' in column 'a' is not finite"),
    ], ids=["text-metric", "non-finite-score", "metric-first"])
    def test_text_metric_or_score_column_names_its_first_offending_line(self, tmp_path, metric, score, message):
        path = self.write(tmp_path / "t.csv", "utt,room,a,b\nu0,x,1,2\nu1,y,inf,3\nu2,z,fast,5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
            correlate_table(ScoreTable.from_csv(path), metric, score)

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("utt,a\nx,1\n", encoding="utf-8-sig")
        assert ScoreTable.from_csv(path).columns == {"utt": ["x"], "a": [1.0]}


class TestCorrelateTable:
    def make_table(self, pairs, missing=()):
        return ScoreTable({"utt": [f"u{i}" for i in range(len(pairs))],
                           "metric": [m for m, _ in pairs],
                           "score": [None if i in missing else s for i, (_, s) in enumerate(pairs)]})

    def test_self_correlation(self):
        table = self.make_table([(float(i), 2.0 * i) for i in range(10)])
        ((group, result),) = correlate_table(table, "metric", "score")
        assert group is None
        assert result.pcc == pytest.approx(1.0, abs=1e-12)
        assert result.srcc == 1.0
        assert result.n == 10

    def test_missing_rows_dropped(self):
        table = self.make_table([(float(i), float(i * i)) for i in range(10)], missing={4})
        ((_, result),) = correlate_table(table, "metric", "score")
        assert result.n == 9

    def test_too_few_rows(self):
        table = self.make_table([(1.0, 1.0), (2.0, 2.0)], missing={0})
        with pytest.raises(ValueError, match="fewer than 2"):
            correlate_table(table, "metric", "score")

    def test_noisy_linear_fixture(self):
        rng = np.random.default_rng(3)
        metric = rng.uniform(0, 10, 40)
        score = metric + rng.standard_normal(40) * 0.5
        table = self.make_table(list(zip(metric, score)))
        ((_, result),) = correlate_table(table, "metric", "score")
        assert 0.9 <= result.pcc <= 1.0

    def grouped_table(self, groups):
        """Rows whose g is each key of groups, in its order, with that key's (metric, score) pairs."""
        rows = [(f"u{k}_{i}", key, m, sc)
                for k, (key, pairs) in enumerate(groups.items()) for i, (m, sc) in enumerate(pairs)]
        return ScoreTable(dict(zip(("utt", "g", "metric", "score"), map(list, zip(*rows)))))

    def test_group_by_ascending(self):
        """Groups come in ascending order, not the order of their rows; a row without a group is in none."""
        table = self.grouped_table({1.0: [(float(i), -float(i * i)) for i in range(4)],
                                    None: [(10.0, -10.0)],
                                    0.0: [(float(i), float(i)) for i in range(5)]})
        results = correlate_table(table, "metric", "score", group_by="g")
        assert [(group, res.n, res.srcc) for group, res in results] == [(0.0, 5, 1.0), (1.0, 4, -1.0)]

    def test_group_by_text_column(self, tmp_path):
        """A text column groups by its text, ascending; its empty cells are in no group and
        a text column that is neither the metric nor the score column stops nothing."""
        path = tmp_path / "t.csv"
        path.write_text("utt,g,metric,score\n" + "".join(
            f"u{key}{i},{key},{i},{i * sign}\n" for key, sign in (("b", -1), ("9", 1), ("", 7), ("10", 2))
            for i in range(3)))
        results = correlate_table(ScoreTable.from_csv(path), "metric", "score", group_by="g")
        assert [(group, res.n, res.srcc) for group, res in results] == [("10", 3, 1.0), ("9", 3, 1.0), ("b", 3, -1.0)]

    @pytest.mark.parametrize("pairs,message", [
        ([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)], "g=1.0: correlation undefined for a constant sequence"),
        ([(1.0, 1.0)], "g=1.0: fewer than 2 usable rows between 'metric' and 'score'"),
    ], ids=["constant", "one-row"])
    def test_failing_group_named(self, pairs, message):
        table = self.grouped_table({0.0: [(float(i), float(i)) for i in range(3)], 1.0: pairs})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            correlate_table(table, "metric", "score", group_by="g")
