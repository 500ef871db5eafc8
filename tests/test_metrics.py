import csv
import json
import math

import numpy as np
import pytest

import oracles
from conftest import assert_close
from reseval import (
    FrameLabel,
    SceneComponents,
    Signal,
    classify,
    compensation_scalar,
    compute_gain,
    dsml,
    erle,
    evaluate_scene,
    make_grid,
    resl,
    sar,
    sdr,
    ser,
    snr,
)
from reseval.metrics import METRIC_NAMES, aggregate, ratio_db


def random_frames(count, seed=0, n=320):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal(n) * rng.uniform(0.05, 0.5)


class TestComputeGain:
    def test_identity(self):
        e = np.linspace(-1, 1, 320)
        np.testing.assert_allclose(compute_gain(e, e), 1.0)

    def test_half(self):
        e = np.linspace(-1, 1, 320) + 2.0
        np.testing.assert_allclose(compute_gain(0.5 * e, e), 0.5)

    def test_denominator_floor(self):
        e = np.ones(4)
        e[2] = 0.0
        s_hat = np.full(4, 1e-8)
        g = compute_gain(s_hat, e)
        assert g[2] == 1.0

    def test_negative_floor_keeps_sign(self):
        g = compute_gain(np.array([1e-8]), np.array([-1e-9]))
        assert g[0] == -1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            compute_gain(np.ones(3), np.ones(4))


class TestCompensation:
    def test_constant_gain_exact(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(320)
        for c in (0.1, 0.5, 1.0, 2.0):
            assert compensation_scalar(np.full(320, c), s) == pytest.approx(c, abs=1e-12)

    def test_silent_speech_degenerate(self):
        assert compensation_scalar(np.ones(320), np.zeros(320)) == 1.0

    def test_alternating(self):
        g = np.tile([1.0, 0.0], 160)
        assert compensation_scalar(g, np.ones(320)) == pytest.approx(0.5)


class TestDsml:
    def test_constant_attenuation_fully_compensated(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(320)
        for c in (0.1, 0.5, 1.0):
            assert dsml(s, np.full(320, c)) == 120.0

    def test_half_on_half_off(self):
        s = np.ones(320)
        g = np.concatenate([np.ones(160), np.zeros(160)])
        assert dsml(s, g) == pytest.approx(0.0, abs=1e-12)

    def test_zero_gain_destroys_speech(self):
        s = np.ones(320)
        assert dsml(s, np.zeros(320)) == -120.0


class TestResl:
    def test_unity_gain(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(320)
        e = s + rng.standard_normal(320) * 0.3
        assert resl(s, e, np.ones(320)) == pytest.approx(0.0, abs=1e-12)

    def test_half_gain_closed_form(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(320)
        e = s + rng.standard_normal(320) * 0.3
        assert resl(s, e, np.full(320, 0.5)) == pytest.approx(-20 * math.log10(0.5), abs=1e-9)

    def test_zero_gain_clamps_high(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(320)
        e = s + rng.standard_normal(320) * 0.3
        assert resl(s, e, np.zeros(320)) == 120.0


class TestSdrSar:
    def test_perfect(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(320)
        assert sdr(s, s) == 120.0
        assert sar(s, s) == 120.0

    def test_pure_attenuation(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(320)
        assert sdr(s, 0.3 * s) == 120.0

    def test_orthogonal_residual_10db(self):
        s = np.zeros(320)
        s[::2] = 1.0
        r = np.zeros(320)
        r[1::2] = 1.0  # orthogonal to s by construction
        r *= math.sqrt((s @ s) / 10.0 / (r @ r))
        assert sdr(s, s + r) == pytest.approx(10.0, abs=1e-9)

    def test_zero_estimate_gives_zero_db(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(320)
        assert sar(s, np.zeros(320)) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_equal_norm_zero_db(self):
        s = np.zeros(320)
        s[::2] = 1.0
        noise = np.zeros(320)
        noise[1::2] = 1.0
        assert sar(s, s + noise) == pytest.approx(0.0, abs=1e-9)


class TestErleSerSnr:
    def test_erle_cases(self):
        rng = np.random.default_rng(9)
        e = rng.standard_normal(320)
        assert erle(e, e) == pytest.approx(0.0, abs=1e-12)
        assert erle(e, 0.1 * e) == pytest.approx(20.0, abs=1e-9)
        assert erle(e, np.zeros(320)) == 120.0

    def test_ser_cases(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(320)
        s = 2.0 * y
        assert ser(s, y) == pytest.approx(20 * math.log10(2.0), abs=1e-9)
        assert ser(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_snr_floor(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal(320)
        assert snr(s, np.zeros(320)) == 120.0


class TestProperties:
    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = rng.standard_normal(320) * rng.uniform(0.05, 0.5)
            e = s + rng.standard_normal(320) * rng.uniform(0.01, 0.3)
            s_hat = e * rng.uniform(0.2, 1.0) + rng.standard_normal(320) * 0.05
            w = rng.standard_normal(320) * 0.1
            y = rng.standard_normal(320) * 0.2
            g = compute_gain(s_hat, e)
            g_list = list(g)
            assert_close(dsml(s, g), oracles.dsml(list(s), g_list), 1e-9, "dsml")
            assert_close(resl(s, e, g), oracles.resl(list(s), list(e), g_list), 1e-9, "resl")
            assert_close(sdr(s, s_hat), oracles.sdr(list(s), list(s_hat)), 1e-9, "sdr")
            assert_close(sar(s, s_hat), oracles.sar(list(s), list(s_hat)), 1e-9, "sar")
            assert_close(erle(e, s_hat), oracles.erle(list(e), list(s_hat)), 1e-9, "erle")
            assert_close(ser(s, y), oracles.ser(list(s), list(y)), 1e-9, "ser")
            assert_close(snr(s, w), oracles.snr(list(s), list(w)), 1e-9, "snr")
            np.testing.assert_allclose(g, oracles.gain(list(s_hat), list(e)), atol=1e-12)

    def test_attenuation_invariance_on_random_frames(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = rng.standard_normal(320) * 0.2
            e = s + rng.standard_normal(320) * 0.1
            s_hat = 0.7 * e + rng.standard_normal(320) * 0.02
            for c in (0.1, 0.5, 0.9):
                g0 = compute_gain(s_hat, e)
                g1 = compute_gain(c * s_hat, e)
                assert abs(dsml(s, g1) - dsml(s, g0)) < 1e-6
                assert abs(sdr(s, c * s_hat) - sdr(s, s_hat)) < 1e-6
                shift = resl(s, e, g1) - resl(s, e, g0)
                assert abs(shift - (-20 * math.log10(c))) < 1e-6

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            s = rng.standard_normal(320) * 0.2
            e = s + rng.standard_normal(320) * 0.1
            s_hat = 0.6 * e
            for c in (0.25, 4.0):
                g0 = compute_gain(s_hat, e)
                g1 = compute_gain(c * s_hat, c * e)
                assert abs(dsml(s, g1) - dsml(s, g0)) < 1e-9
                assert abs(resl(s, e, g1) - resl(s, e, g0)) < 1e-9

    def test_ratio_db_clamps(self):
        assert ratio_db(0.0, 1.0) == -120.0
        assert ratio_db(1.0, 0.0) == 120.0
        assert ratio_db(1.0, 1.0) == 0.0
        assert ratio_db(1e30, 1.0) == 120.0
        assert ratio_db(1.0, 1e30) == -120.0


def build_scene(n=4800, seed=15, s_hat="identity"):
    """Near-end bursts then far-end bursts so all conditions appear."""
    rng = np.random.default_rng(seed)
    s = np.zeros(n)
    s[: n // 2] = rng.standard_normal(n // 2) * 0.3
    y = np.zeros(n)
    y[n // 3 :] = rng.standard_normal(n - n // 3) * 0.3
    w = rng.standard_normal(n) * 1e-3
    e = s + 0.4 * y + w
    if s_hat == "identity":
        sh = e.copy()
    elif s_hat == "zero":
        sh = np.zeros(n)
    else:
        sh = s_hat
    comps = SceneComponents(s=Signal(s), y=Signal(y), w=Signal(w), e=Signal(e), s_hat=Signal(sh))
    mask = classify(comps.s, comps.y, make_grid(n))
    return comps, mask


class TestEvaluateScene:
    def test_identity_res(self):
        comps, mask = build_scene()
        report = evaluate_scene(comps, mask)
        assert report.aggregates["resl"].mean == pytest.approx(0.0, abs=1e-12)
        assert report.aggregates["erle"].mean == pytest.approx(0.0, abs=1e-12)

    def test_zero_res(self):
        comps, mask = build_scene(s_hat="zero")
        report = evaluate_scene(comps, mask)
        assert report.aggregates["resl"].mean == 120.0
        assert report.aggregates["dsml"].mean == -120.0

    def test_absent_condition_omitted(self):
        n = 3200
        rng = np.random.default_rng(16)
        s = rng.standard_normal(n) * 0.3
        e = s + rng.standard_normal(n) * 0.05
        comps = SceneComponents(s=Signal(s), e=Signal(e), s_hat=Signal(e.copy()))
        mask = classify(comps.s, Signal(e - s), make_grid(n))
        report = evaluate_scene(comps, mask)
        # pure double-talk scene: no single-talk frames, so no sar/erle;
        # absent means omitted, not zero
        assert all(lab == FrameLabel.DOUBLE_TALK.value for lab in report.labels)
        assert "sar" not in report.aggregates
        assert "erle" not in report.aggregates
        # no y/w components given, so no ser/snr either
        assert "ser" not in report.aggregates
        assert "snr" not in report.aggregates

    def test_requires_s_hat(self):
        comps, mask = build_scene()
        bare = SceneComponents(s=comps.s, e=comps.e)
        with pytest.raises(ValueError, match="missing: s_hat"):
            evaluate_scene(bare, mask)

    def test_counts_match_mask(self):
        comps, mask = build_scene()
        report = evaluate_scene(comps, mask)
        counts = mask.counts()
        assert report.aggregates["dsml"].count == counts[FrameLabel.DOUBLE_TALK]
        assert report.aggregates["sar"].count == counts[FrameLabel.NEAR_END]
        assert report.aggregates["erle"].count == counts[FrameLabel.FAR_END]
        assert report.aggregates["ser"].count == mask.grid.n_frames

    def test_aggregate_matches_two_pass_oracle(self):
        comps, mask = build_scene(seed=17)
        report = evaluate_scene(comps, mask)
        for name in METRIC_NAMES:
            values = report.values[name]
            present = values[~np.isnan(values)]
            if present.size == 0:
                continue
            mean, std = oracles.mean_std(list(present))
            agg = report.aggregates[name]
            assert agg.mean == pytest.approx(mean, abs=1e-12)
            assert agg.std == pytest.approx(std, abs=1e-12)

    def test_values_within_clamp(self):
        comps, mask = build_scene(seed=18)
        report = evaluate_scene(comps, mask)
        for name in METRIC_NAMES:
            values = report.values[name]
            present = values[~np.isnan(values)]
            assert np.all(present <= 120.0) and np.all(present >= -120.0)


class TestReportSerialization:
    def test_csv_roundtrip(self, tmp_path):
        comps, mask = build_scene(seed=19)
        report = evaluate_scene(comps, mask)
        path = tmp_path / "frames.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == mask.grid.n_frames
        for i, row in enumerate(rows):
            assert int(row["frame_index"]) == i
            assert row["label"] == report.labels[i]
            for name in METRIC_NAMES:
                cell = row[name]
                value = report.values[name][i]
                if cell == "":
                    assert math.isnan(value)
                else:
                    assert float(cell) == value

    def test_json_shape(self, tmp_path):
        comps, mask = build_scene(seed=20)
        report = evaluate_scene(comps, mask)
        path = tmp_path / "report.json"
        report.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["clamp_db"] == 120.0
        assert payload["aggregates"]["resl"]["condition"] == "double_talk"
        assert payload["frame_counts"]["double_talk"] == report.aggregates["dsml"].count

    def test_aggregate_none_for_empty(self):
        assert aggregate(np.array([np.nan, np.nan]), "double_talk") is None
