import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import assert_close
from reseval import FrameLabel, Signal, classify, compute_gain, dsml, erle, evaluate_scene, resl, sar, sdr, ser, snr
from reseval.activity import ActivityMask
from reseval.audio import SceneComponents, load_wav, save_wav
from reseval.cli import main
from reseval.common import CLAMP_DB
from reseval.framing import FRAME_LEN, HOP, FrameGrid
from reseval.metrics import (
    COMP_DEGENERATE,
    METRIC_CONDITIONS,
    METRIC_NAMES,
    MetricReport,
    Moments,
    _compensation_rows,
    _dsml_rows,
    _gain_denominator,
    _projected_rows,
    _ratio_rows,
    _resl_rows,
    _row_energy,
    aggregate_metrics,
    aggregates_of,
    scene_rows,
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
    """_compensation_rows: <gain*s, s> / ||s||^2 per row, 1 where s is (near) silent."""

    def compensation(self, gain, s):
        return _compensation_rows(gain * s, s, _row_energy(s))

    def test_constant_gain_exact(self):
        rng = np.random.default_rng(1)
        s = np.tile(rng.standard_normal(320), (4, 1))
        c = np.array([0.1, 0.5, 1.0, 2.0])
        assert self.compensation(c[:, None], s) == pytest.approx(c, abs=1e-12)

    def test_silent_speech_degenerate(self):
        assert self.compensation(np.ones((1, 320)), np.zeros((1, 320))).tolist() == [1.0]

    def test_alternating(self):
        g = np.tile([1.0, 0.0], (1, 160))
        assert self.compensation(g, np.ones((1, 320))) == pytest.approx([0.5])


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


def build_scene(n=4800, seed=15, s_hat="identity"):
    """Near-end bursts then far-end bursts so all conditions appear."""
    rng = np.random.default_rng(seed)
    s = np.zeros(n)
    s[: n // 2] = rng.standard_normal(n // 2) * 0.3
    y = np.zeros(n)
    y[n // 3 :] = rng.standard_normal(n - n // 3) * 0.3
    w = rng.standard_normal(n) * 1e-3
    e = s + 0.4 * y + w
    sh = {"identity": e, "zero": np.zeros(n)}[s_hat]
    comps = SceneComponents(s=Signal(s), y=Signal(y), w=Signal(w), e=Signal(e), s_hat=Signal(sh))
    mask = classify(comps.s, comps.y)
    return comps, mask


class TestEvaluateScene:
    def test_identity_res(self):
        comps, mask = build_scene()
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
        assert report.aggregates["resl"].mean == pytest.approx(0.0, abs=1e-12)
        assert report.aggregates["erle"].mean == pytest.approx(0.0, abs=1e-12)

    def test_zero_res(self):
        comps, mask = build_scene(s_hat="zero")
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
        assert report.aggregates["resl"].mean == 120.0
        assert report.aggregates["dsml"].mean == -120.0

    def test_absent_condition_omitted(self):
        n = 3200
        rng = np.random.default_rng(16)
        s = rng.standard_normal(n) * 0.3
        e = s + rng.standard_normal(n) * 0.05
        comps = SceneComponents(s=Signal(s), e=Signal(e), s_hat=Signal(e.copy()))
        mask = classify(comps.s, Signal(e - s))
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
        # pure double-talk scene: no single-talk frames, so no sar/erle;
        # absent means omitted, not zero
        assert all(lab == FrameLabel.DOUBLE_TALK.value for lab in report.labels)
        assert "sar" not in report.aggregates
        assert "erle" not in report.aggregates
        # no y/w components given, so no ser/snr either
        assert "ser" not in report.aggregates
        assert "snr" not in report.aggregates

    def test_scene_rows_requires_e(self):
        comps, mask = build_scene()
        with pytest.raises(ValueError, match=r"^scene_rows needs s and e \(missing: e\)$"):
            scene_rows(SceneComponents(s=comps.s, y=comps.y, w=comps.w), mask)

    @pytest.mark.parametrize("length", [4800 - 1, 4800 + 1, 4800 - HOP])
    def test_s_hat_of_another_length_rejected(self, length):
        comps, mask = build_scene()
        rows = scene_rows(comps, mask)
        with pytest.raises(ValueError, match="does not match grid signal_len"):
            evaluate_scene(rows, Signal(np.resize(comps.s_hat.samples, length)))

    def test_aggregates_derived_from_values(self):
        """A report holds only labels and values; its aggregates are those of its values, in their order."""
        comps, mask = build_scene()
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
        assert [f.name for f in dataclasses.fields(report)] == ["labels", "values"]
        assert report.labels is mask.labels
        assert report.aggregates == aggregate_metrics(report.values)
        assert list(report.aggregates) == list(report.values) == list(METRIC_NAMES)

    def test_counts_match_mask(self):
        comps, mask = build_scene()
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
        assert report.aggregates["dsml"].count == mask.labels.count(FrameLabel.DOUBLE_TALK)
        assert report.aggregates["sar"].count == mask.labels.count(FrameLabel.NEAR_END)
        assert report.aggregates["erle"].count == mask.labels.count(FrameLabel.FAR_END)
        assert report.aggregates["ser"].count == mask.grid.n_frames

    def test_aggregate_matches_two_pass_oracle(self):
        comps, mask = build_scene(seed=17)
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
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
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
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


def oracle_frame(label, s, e, s_hat, y, w):
    """Expected metric values of one frame; NaN where the label excludes a metric."""
    s, e, s_hat, y, w = (list(map(float, a)) for a in (s, e, s_hat, y, w))
    out = {name: math.nan for name in METRIC_NAMES}
    if label is FrameLabel.DOUBLE_TALK:
        g = oracles.gain(s_hat, e)
        out["dsml"] = oracles.dsml(s, g)
        out["resl"] = oracles.resl(s, e, g)
        out["sdr"] = oracles.sdr(s, s_hat)
    elif label is FrameLabel.NEAR_END:
        out["sar"] = oracles.sar(s, s_hat)
    elif label is FrameLabel.FAR_END:
        out["erle"] = oracles.erle(e, s_hat)
    out["ser"] = oracles.ser(s, y)
    out["snr"] = oracles.snr(s, w)
    return out


class TestEvaluateSceneOracles:
    """evaluate_scene per frame against the brute-force oracles, edge frames included."""

    def test_every_frame_matches_oracles(self):
        segments = list(edge_case_segments(np.random.default_rng(31)))
        signals = [np.concatenate(parts) for parts in zip(*segments)]
        comps = SceneComponents(**{name: Signal(x) for name, x in zip(("s", "e", "s_hat", "y", "w"), signals)})
        grid = FrameGrid(len(comps.s))
        frames = [grid.frame_matrix(x) for x in signals]
        hit_clamp = 0
        # shift the label cycle so every frame is scored under every label
        for shift in range(len(LABEL_CYCLE)):
            labels = tuple(LABEL_CYCLE[(i + shift) % len(LABEL_CYCLE)] for i in range(grid.n_frames))
            report = evaluate_scene(scene_rows(comps, ActivityMask(labels=labels, grid=grid)), comps.s_hat)
            for i, label in enumerate(labels):
                expected = oracle_frame(label, *(f[i] for f in frames))
                for name in METRIC_NAMES:
                    got, want = report.values[name][i], expected[name]
                    if math.isnan(want):
                        assert math.isnan(got), (name, i, label)
                    else:
                        assert_close(got, want, 1e-9, f"{name} frame {i} {label.value}")
                        hit_clamp += abs(want) == CLAMP_DB
        assert hit_clamp > 0


def assert_same_report(got, want):
    assert got.labels == want.labels
    assert list(got.values) == list(want.values)
    for name in want.values:
        assert np.array_equal(got.values[name], want.values[name], equal_nan=True), name
    assert got.aggregates == want.aggregates
    assert list(got.aggregates) == list(want.aggregates)


class TestSceneRowsCache:
    """Rows built once by scene_rows serve every s_hat of their scene."""

    def test_reused_rows_give_the_cold_report(self):
        # edge frames under every label, and s_hats that reach the +-clamp bound
        segments = list(edge_case_segments(np.random.default_rng(32)))
        s, e, s_hat, y, w = (np.concatenate(parts) for parts in zip(*segments))
        grid = FrameGrid(len(s))
        labels = tuple(LABEL_CYCLE[i % len(LABEL_CYCLE)] for i in range(grid.n_frames))
        components = SceneComponents(s=Signal(s), e=Signal(e), y=Signal(y), w=Signal(w))
        mask = ActivityMask(labels=labels, grid=grid)
        s_hats = [Signal(x) for x in (s_hat, np.zeros_like(e), e, 0.5 * s, 1e-7 * e,
                                      np.random.default_rng(33).standard_normal(len(e)) * 0.1)]
        rows = scene_rows(components, mask)
        hit_clamp = 0
        for s_hat in s_hats:
            report = evaluate_scene(rows, s_hat)
            assert_same_report(report, evaluate_scene(scene_rows(components, mask), s_hat))
            hit_clamp += sum(np.count_nonzero(np.abs(v) == CLAMP_DB) for v in report.values.values())
        assert hit_clamp > 0
        assert all(not a.flags.writeable for a in (*vars(rows).values(), *rows.values.values())
                   if isinstance(a, np.ndarray))


@st.composite
def short_scenes(draw):
    """A scene of 1-5 frames, any mask.

    Each of s, e, s_hat, y and w is all-zero or noise, at full scale or
    scaled by 1e-9.
    """
    n_frames = draw(st.integers(1, 5))
    length = FRAME_LEN + (n_frames - 1) * HOP + draw(st.integers(0, HOP - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signals = {}
    for name in ("s", "e", "s_hat", "y", "w"):
        samples = np.zeros(length) if draw(st.booleans()) else rng.standard_normal(length)
        signals[name] = Signal(samples * draw(st.sampled_from([1.0, 1e-9])))
    grid = FrameGrid(length)
    labels = tuple(draw(st.lists(st.sampled_from(list(FrameLabel)), min_size=n_frames, max_size=n_frames)))
    return SceneComponents(**signals), ActivityMask(labels=labels, grid=grid)


class TestEvaluateSceneProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(short_scenes())
    def test_values_on_condition_finite_within_clamp(self, scene):
        components, mask = scene
        report = evaluate_scene(scene_rows(components, mask), components.s_hat)
        n_frames = mask.grid.n_frames
        assert report.labels == tuple(label.value for label in mask.labels)
        for name in METRIC_NAMES:
            condition = METRIC_CONDITIONS[name]
            on = np.array([condition in ("all", label) for label in report.labels], dtype=bool)
            values = report.values[name]
            assert values.shape == (n_frames,)
            assert np.array_equal(np.isnan(values), ~on), name
            assert np.all(np.abs(values[on]) <= CLAMP_DB), name
            agg = report.aggregates.get(name)
            assert (agg.count if agg else 0) == np.count_nonzero(on), name
        counts = [report.aggregates[name].count for name in ("dsml", "sar", "erle") if name in report.aggregates]
        assert sum(counts) + report.labels.count(FrameLabel.SILENCE.value) == n_frames


def assert_scale_invariant(components, mask, c) -> int:
    """Assert that DSML, SDR and SAR of s_hat and c * s_hat agree within 1e-6 dB.

    Only frames whose compensation is not degenerate at either scale are
    checked, and only where neither value sits at the clamp, where every
    ratio that crosses the 1e-12 floor lands too.  Returns how many
    values were checked.
    """
    rows = scene_rows(components, mask)
    s = mask.grid.frame_matrix(components.s.samples)
    s_energy = np.einsum("ij,ij->i", s, s)
    live = s_energy > COMP_DEGENERATE
    projected = live.copy()
    reports = []
    for k in (1.0, c):
        s_hat = Signal(components.s_hat.samples * k)
        reports.append(evaluate_scene(rows, s_hat))
        # sdr and sar divide out the projection of s_hat on s
        proj = np.einsum("ij,ij->i", mask.grid.frame_matrix(s_hat.samples), s) / np.where(live, s_energy, 1.0)
        projected &= np.abs(proj) > COMP_DEGENERATE
    checked = 0
    for name, compensated in (("dsml", live), ("sdr", projected), ("sar", projected)):
        base, scaled = (report.values[name] for report in reports)
        keep = compensated & ~np.isnan(base) & (np.abs(base) < CLAMP_DB) & (np.abs(scaled) < CLAMP_DB)
        worst = np.max(np.abs(scaled[keep] - base[keep]), initial=0.0)
        assert worst <= 1e-6, (name, c, worst)
        checked += np.count_nonzero(keep)
    return checked


@st.composite
def suppressed_scenes(draw):
    """A short_scenes() scene as it is, or with its s, e and s_hat replaced by
    talk: e is s plus an echo, and s_hat is 0.6 e plus a little noise."""
    components, mask = draw(short_scenes())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        s, echo, noise = rng.standard_normal((3, len(components.s)))
        e = s + 0.5 * echo
        s_hat = 0.6 * e + 0.05 * noise
        components = dataclasses.replace(components, s=Signal(s), e=Signal(e), s_hat=Signal(s_hat))
    return components, mask


class TestScaleInvariance:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(suppressed_scenes(), st.floats(-3.0, 3.0).map(lambda p: 10.0**p))
    def test_scaling_s_hat_keeps_compensated_metrics(self, scene, c):
        assert_scale_invariant(*scene, c)

    @pytest.mark.parametrize("c", [1e-3, 0.37, 1e3])
    def test_scaling_checks_frames_of_a_talking_scene(self, c):
        comps, mask = build_scene(seed=21)
        noise = np.random.default_rng(21).standard_normal(len(comps.e))
        comps = dataclasses.replace(comps, s_hat=Signal(0.6 * comps.e.samples + 0.05 * noise))
        assert assert_scale_invariant(comps, mask, c) > 10


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
        gain = s_hat / _gain_denominator(e)
        s_energy, r = _row_energy(s), e - s
        got = {
            "dsml": _dsml_rows(s, s_energy, gain),
            "resl": _resl_rows(r, _row_energy(r), gain),
            "sdr": _projected_rows(s, s_energy, s_hat),
            "erle": _ratio_rows(_row_energy(e), _row_energy(s_hat)),
            "ser": _ratio_rows(s_energy, _row_energy(y)),
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
        report = evaluate_scene(scene_rows(comps, mask), comps.s_hat)
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

    def test_csv_text_pinned(self, tmp_path):
        # exact bytes: NaN cells empty; the clamp bounds, -0.0 and
        # subnormals written as their shortest repr; a label as its value
        nan = float("nan")
        rows = [
            [120.0, -120.0, -0.0, nan, 0.1, 1 / 3, 1e-300],
            [nan, nan, 2.5e-17, -7.25, -120.0, 120.0, 0.0],
            [-0.0, 12.345678901234567, nan, 60.0, -60.0, nan, 5e-324],
        ]
        columns = np.array(rows).T
        report = MetricReport(
            labels=(FrameLabel.DOUBLE_TALK, FrameLabel.NEAR_END, FrameLabel.FAR_END),
            values={name: columns[i] for i, name in enumerate(METRIC_NAMES)},
        )
        report.write_csv(tmp_path / "frames.csv")
        assert (tmp_path / "frames.csv").read_bytes() == (
            b"frame_index,label,dsml,resl,sdr,sar,erle,ser,snr\n"
            b"0,double_talk,120.0,-120.0,-0.0,,0.1,0.3333333333333333,1e-300\n"
            b"1,near_end_single_talk,,,2.5e-17,-7.25,-120.0,120.0,0.0\n"
            b"2,far_end_single_talk,-0.0,12.345678901234567,,60.0,-60.0,,5e-324\n"
        )

    def test_json_shape(self, tmp_path):
        """report.json's per_utterance holds each entry's evaluate_scene aggregates."""
        comps, _ = build_scene(seed=20)
        entry = {"id": "u"}
        for name, sig in comps.present().items():
            save_wav(sig, tmp_path / f"{name}.wav")
            entry[name] = f"{name}.wav"
        (tmp_path / "m.json").write_text(json.dumps({"entries": [entry]}))
        assert main(["evaluate", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / "r")]) == 0
        payload = json.loads((tmp_path / "r" / "report.json").read_text())
        assert payload["clamp_db"] == 120.0
        assert payload["activity_range_db"] == 61.0
        # the scene as evaluate reads it back: float32 WAV samples
        loaded = SceneComponents(**{name: load_wav(tmp_path / f"{name}.wav") for name in comps.present()})
        mask = classify(loaded.s, loaded.y)
        report = evaluate_scene(scene_rows(loaded, mask), loaded.s_hat)
        assert payload["per_utterance"] == {"u": {name: dataclasses.asdict(agg)
                                                  for name, agg in report.aggregates.items()}}
        assert payload["per_utterance"]["u"]["resl"]["condition"] == "double_talk"
        assert payload["per_utterance"]["u"]["dsml"]["count"] == mask.labels.count(FrameLabel.DOUBLE_TALK)

    def test_aggregate_none_for_empty(self):
        assert aggregate_metrics({"dsml": np.array([np.nan, np.nan])}) == {}


def concatenated_two_pass(chunks):
    """(mean, std, count) as pooling computed them before it merged moments: every
    frame's value concatenated, then np.mean and the mean squared deviation; None
    when no value is present."""
    values = np.concatenate(chunks)
    present = values[~np.isnan(values)]
    if not present.size:
        return None
    mean = float(np.mean(present))
    return mean, math.sqrt(float(np.mean((present - mean) ** 2))), int(present.size)


def pooled(chunks):
    """The aggregate of the chunks' moments merged in order, or None when no value is present."""
    acc = Moments()
    for chunk in chunks:
        acc += Moments.of(chunk)
    agg = aggregates_of({"dsml": acc}).get("dsml")
    return None if agg is None else (agg.mean, agg.std, agg.count)


# Pooled means and stds against concatenate-then-two-pass: within this
# fraction of the largest |value| (so 1.2e-10 dB for metrics at the clamp).
POOL_TOL = 1e-12


def _chunks(kind, rng):
    sizes = {"one frame each": [1] * 300, "one frame": [1], "many scenes": rng.integers(1, 400, 2000)}.get(
        kind, rng.integers(1, 300, 40))
    draw = {
        "clamp bounds": lambda n: rng.choice([-CLAMP_DB, CLAMP_DB], n),
        "at the clamp": lambda n: np.full(n, CLAMP_DB),
        "one frame each": lambda n: rng.uniform(-CLAMP_DB, CLAMP_DB, n),
        "one frame": lambda n: np.array([-7.25]),
        "many scenes": lambda n: rng.normal(30.0, 8.0, n),
        "no frame in some scenes": lambda n: np.where(rng.random(n) < 0.2, rng.normal(5.0, 3.0, n), np.nan)
        if rng.random() < 0.5 else np.full(n, np.nan),
    }[kind]
    return [draw(n) for n in sizes]


class TestMoments:
    KINDS = ["clamp bounds", "at the clamp", "one frame each", "one frame", "many scenes",
             "no frame in some scenes"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_pooled_within_tolerance_of_concatenated(self, kind):
        chunks = _chunks(kind, np.random.default_rng(len(kind)))
        got, want = pooled(chunks), concatenated_two_pass(chunks)
        assert got[2] == want[2]
        scale = max(1.0, float(np.nanmax(np.abs(np.concatenate(chunks)))))
        assert abs(got[0] - want[0]) <= POOL_TOL * scale
        assert abs(got[1] - want[1]) <= POOL_TOL * scale

    def test_one_set_of_frames_pools_to_its_own_aggregate_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 999):
            values = np.where(rng.random(n) < 0.7, rng.uniform(-CLAMP_DB, CLAMP_DB, n), np.nan)
            if np.isnan(values).all():
                continue
            assert pooled([values]) == concatenated_two_pass([values])
            assert Moments() + Moments.of(values) == Moments.of(values) + Moments()

    def test_metric_with_no_frame_is_omitted(self):
        chunks = [np.full(5, np.nan), np.array([]), np.full(1, np.nan)]
        assert pooled(chunks) is None
        assert Moments.of(np.full(3, np.nan)) == Moments()
        assert aggregates_of({"dsml": Moments(), "resl": Moments.of(np.array([1.0]))}) == {
            "resl": aggregate_metrics({"resl": np.array([1.0])})["resl"]}

    def test_empty_side_gives_the_other_unchanged(self):
        m = Moments.of(np.array([1.0, 2.0, 4.0]))
        assert m + Moments() is m and Moments() + m is m
