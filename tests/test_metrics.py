import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import assert_close
from reseval import (
    ActivityMask,
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
from reseval.framing import HOP
from reseval.metrics import (
    METRIC_NAMES,
    MetricReport,
    _dsml_rows,
    _energy_ratio_rows,
    _gain_rows,
    _projected_rows,
    _resl_rows,
    aggregate,
    ratio_db,
)


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


LABEL_CYCLE = (FrameLabel.DOUBLE_TALK, FrameLabel.NEAR_END, FrameLabel.FAR_END, FrameLabel.SILENCE)


def edge_case_segments(rng):
    """Two-hop (one frame) segments of (s, e, s_hat, y, w), one edge case each.

    Frames straddling two segments mix their cases, so the scene also
    holds frames that are half one edge and half another.
    """
    n = 2 * HOP

    def noise(scale):
        return rng.standard_normal(n) * scale

    def at_one_sample(value):
        x = np.zeros(n)
        x[HOP // 2] = value
        return x

    tiny = np.array([0.0, -0.0, 1e-9, -1e-9, 5e-9, -5e-9, 9.9e-9, -9.9e-9, 1e-12, -1e-12])
    for _ in range(3):  # plain random frames
        s = noise(0.2)
        e = s + noise(0.1)
        yield s, e, 0.7 * e + noise(0.02), noise(0.2), noise(0.05)
    e = noise(0.3)
    yield np.zeros(n), e, 0.5 * e, noise(0.2), noise(0.05)  # all-zero s
    for value in (1e-6, 0.999e-6, 1.001e-6):  # s energy at, below, above 1e-12
        s = at_one_sample(value)
        e = s + noise(0.1)
        yield s, e, 0.6 * e, noise(0.2), noise(0.05)
    s = noise(0.2)
    yield s, rng.choice(tiny, n), noise(0.1), noise(0.2), noise(0.05)  # |e| < 1e-8
    e = s + noise(0.1)
    e[::3] = rng.choice(tiny, e[::3].size)
    yield s, e, 0.5 * e, noise(0.2), noise(0.05)  # some |e| < 1e-8
    s = noise(0.2)
    e = s + noise(0.1)
    yield s, e, np.zeros(n), noise(0.2), noise(0.05)  # s_hat == 0
    yield s, e, e.copy(), np.zeros(n), np.zeros(n)  # unity gain, no echo, no noise
    yield s, e, 0.5 * s, noise(1e-7), noise(1e-7)  # pure speech attenuation, huge SER/SNR
    e = noise(1.0)
    yield s, e, 1e-7 * e, noise(1e-7), noise(1.0)  # erle far past the clamp


def oracle_frame(label, s, e, s_hat, y, w, clamp):
    """Expected metric values of one frame; NaN where the label excludes a metric."""
    s, e, s_hat, y, w = (list(map(float, a)) for a in (s, e, s_hat, y, w))
    out = {name: math.nan for name in METRIC_NAMES}
    if label is FrameLabel.DOUBLE_TALK:
        g = oracles.gain(s_hat, e)
        out["dsml"] = oracles.dsml(s, g, clamp)
        out["resl"] = oracles.resl(s, e, g, clamp)
        out["sdr"] = oracles.sdr(s, s_hat, clamp)
    elif label is FrameLabel.NEAR_END:
        out["sar"] = oracles.sar(s, s_hat, clamp)
    elif label is FrameLabel.FAR_END:
        out["erle"] = oracles.erle(e, s_hat, clamp)
    out["ser"] = oracles.ser(s, y, clamp)
    out["snr"] = oracles.snr(s, w, clamp)
    return out


class TestEvaluateSceneOracles:
    """evaluate_scene per frame against the brute-force oracles, edge frames included."""

    @pytest.mark.parametrize("clamp", [120.0, 60.0])
    def test_every_frame_matches_oracles(self, clamp):
        segments = list(edge_case_segments(np.random.default_rng(31)))
        signals = [np.concatenate(parts) for parts in zip(*segments)]
        comps = SceneComponents(**{name: Signal(x) for name, x in zip(("s", "e", "s_hat", "y", "w"), signals)})
        grid = make_grid(len(comps.s))
        frames = [grid.frame_matrix(x) for x in signals]
        hit_clamp = 0
        # shift the label cycle so every frame is scored under every label
        for shift in range(len(LABEL_CYCLE)):
            labels = tuple(LABEL_CYCLE[(i + shift) % len(LABEL_CYCLE)] for i in range(grid.n_frames))
            report = evaluate_scene(comps, ActivityMask(labels=labels, grid=grid), clamp)
            for i, label in enumerate(labels):
                expected = oracle_frame(label, *(f[i] for f in frames), clamp)
                for name in METRIC_NAMES:
                    got, want = report.values[name][i], expected[name]
                    if math.isnan(want):
                        assert math.isnan(got), (name, i, label)
                    else:
                        assert_close(got, want, 1e-9, f"{name} frame {i} {label.value}")
                        hit_clamp += abs(want) == clamp
        assert hit_clamp > 0


@st.composite
def frame_matrices(draw):
    """Equal-shape small (s, e, s_hat, y) matrices; zeros and 1e-9 amplitudes included."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 24)))
    elements = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))
    scales = st.sampled_from([1.0, 1e-9])
    return [draw(arrays(np.float64, shape, elements=elements)) * draw(scales) for _ in range(4)]


class TestRowKernelProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(frame_matrices())
    def test_row_kernels_match_oracles(self, mats):
        s, e, s_hat, y = mats
        gain = _gain_rows(s_hat, e)
        got = {
            "dsml": _dsml_rows(s, gain, 120.0),
            "resl": _resl_rows(s, e, gain, 120.0),
            "sdr": _projected_rows(s, s_hat, 120.0),
            "erle": _energy_ratio_rows(e, s_hat, 120.0),
            "ser": _energy_ratio_rows(s, y, 120.0),
        }
        for i in range(s.shape[0]):
            rows = [list(map(float, a[i])) for a in (s, e, s_hat, y)]
            g = oracles.gain(rows[2], rows[1])
            assert list(gain[i]) == g
            want = {
                "dsml": oracles.dsml(rows[0], g),
                "resl": oracles.resl(rows[0], rows[1], g),
                "sdr": oracles.sdr(rows[0], rows[2]),
                "erle": oracles.erle(rows[1], rows[2]),
                "ser": oracles.ser(rows[0], rows[3]),
            }
            for name, value in want.items():
                assert_close(got[name][i], value, 1e-9, name)


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

    def test_csv_text_pinned(self):
        # exact bytes: NaN cells empty; the clamp bounds, -0.0 and
        # subnormals written as their shortest repr
        nan = float("nan")
        rows = [
            [120.0, -120.0, -0.0, nan, 0.1, 1 / 3, 1e-300],
            [nan, nan, 2.5e-17, -7.25, -120.0, 120.0, 0.0],
            [-0.0, 12.345678901234567, nan, 60.0, -60.0, nan, 5e-324],
        ]
        columns = np.array(rows).T
        report = MetricReport(
            labels=("double_talk", "near_end_single_talk", "far_end_single_talk"),
            values={name: columns[i] for i, name in enumerate(METRIC_NAMES)},
            aggregates={},
        )
        assert report.to_csv_text() == (
            "frame_index,label,dsml,resl,sdr,sar,erle,ser,snr\n"
            "0,double_talk,120.0,-120.0,-0.0,,0.1,0.3333333333333333,1e-300\n"
            "1,near_end_single_talk,,,2.5e-17,-7.25,-120.0,120.0,0.0\n"
            "2,far_end_single_talk,-0.0,12.345678901234567,,60.0,-60.0,,5e-324\n"
        )

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
