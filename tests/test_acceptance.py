"""Acceptance gate: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import oracles
import reseval as rv
from conftest import batch_metric_means
from reseval import (
    LossInputs,
    SuppressorConfig,
    beta_schedule,
    compute_gain,
    dsml,
    erle,
    istft,
    loss_j,
    mix_at_ser_snr,
    oracle_suppress,
    pcc,
    resl,
    sar,
    sdr,
    ser,
    snr,
    srcc,
    stft,
)
from reseval.cli import main
from reseval.simulate import achieved_levels
from reseval.stats import average_ranks


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_metric_formula_oracle_equivalence():
    """100 seeded random frames match the direct-evaluation oracles to 1e-9 dB in < 1 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = rng.standard_normal(320) * rng.uniform(0.05, 0.5)
        e = s + rng.standard_normal(320) * rng.uniform(0.01, 0.3)
        s_hat = e * rng.uniform(0.2, 1.0) + rng.standard_normal(320) * 0.05
        y = rng.standard_normal(320) * 0.2
        w = rng.standard_normal(320) * 0.1
        g = compute_gain(s_hat, e)
        gl, sl, el, shl = list(g), list(s), list(e), list(s_hat)
        pairs = [
            (dsml(s, g), oracles.dsml(sl, gl)),
            (resl(s, e, g), oracles.resl(sl, el, gl)),
            (sdr(s, s_hat), oracles.sdr(sl, shl)),
            (sar(s, s_hat), oracles.sar(sl, shl)),
            (erle(e, s_hat), oracles.erle(el, shl)),
            (ser(s, y), oracles.ser(sl, list(y))),
            (snr(s, w), oracles.snr(sl, list(w))),
        ]
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, worst
    assert elapsed < 1.0, elapsed
    report(1, f"7 metrics vs brute-force oracles, worst |delta| {worst:.2e} dB, {elapsed:.2f} s")


def test_criterion_02_constant_attenuation_invariance(batch20):
    """Scaling s_hat by c moves DSML/SDR < 1e-6 dB and RESL by exactly -20log10(c)."""
    worst_dsml = worst_sdr = worst_resl = 0.0
    for components, mask in batch20:
        s_hat = oracle_suppress(rv.gain_tracks(components.e, components.s), SuppressorConfig(beta=8.0))
        grid = mask.grid
        s_frames = grid.frame_matrix(components.s.samples)
        e_frames = grid.frame_matrix(components.e.samples)
        sh_frames = grid.frame_matrix(s_hat.samples)
        for j in mask.indices(rv.FrameLabel.DOUBLE_TALK):
            for c in (0.1, 0.5, 0.9):
                g0 = compute_gain(sh_frames[j], e_frames[j])
                g1 = compute_gain(c * sh_frames[j], e_frames[j])
                worst_dsml = max(worst_dsml, abs(dsml(s_frames[j], g1) - dsml(s_frames[j], g0)))
                worst_sdr = max(
                    worst_sdr, abs(sdr(s_frames[j], c * sh_frames[j]) - sdr(s_frames[j], sh_frames[j]))
                )
                shift = resl(s_frames[j], e_frames[j], g1) - resl(s_frames[j], e_frames[j], g0)
                worst_resl = max(worst_resl, abs(shift - (-20.0 * math.log10(c))))
    assert worst_dsml < 1e-6, worst_dsml
    assert worst_sdr < 1e-6, worst_sdr
    assert worst_resl < 1e-6, worst_resl
    report(2, f"20 scenes x c in {{0.1,0.5,0.9}}: dsml {worst_dsml:.2e}, sdr {worst_sdr:.2e}, "
              f"resl shift err {worst_resl:.2e} dB")


def test_criterion_03_closed_forms():
    """Constant-gain RESL, one-tenth ERLE, and exact mixer targets."""
    rng = np.random.default_rng(103)
    s = rng.standard_normal(320) * 0.3
    e = s + rng.standard_normal(320) * 0.2
    value = resl(s, e, np.full(320, 0.5))
    assert abs(value - 6.020599913279624) <= 1e-6, value

    e_only = rng.standard_normal(320) * 0.4
    value = erle(e_only, 0.1 * e_only)
    assert abs(value - 20.0) <= 1e-6, value

    sig_s = rv.Signal(rng.standard_normal(8000) * 0.1)
    sig_y = rv.Signal(rng.standard_normal(8000))
    sig_w = rv.Signal(rng.standard_normal(8000))
    comps = mix_at_ser_snr(sig_s, sig_y, sig_w, ser_db=-7.5, snr_db=12.5)
    achieved = achieved_levels(comps)
    assert abs(achieved["ser_db"] - (-7.5)) <= 1e-9
    assert abs(achieved["snr_db"] - 12.5) <= 1e-9
    report(3, "RESL(g=0.5)=6.0206, ERLE(0.1e)=20, mixer exact to 1e-9 dB")


def test_criterion_04_stft_perfect_reconstruction():
    """Interior round-trip relative error < 1e-10 on 10 random 1 s signals."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(16000) * rng.uniform(0.1, 1.0)
        spec = stft(rv.Signal(x))
        back = istft(spec)
        sl = slice(160, spec.grid.n_frames * 160)
        err = np.max(np.abs(back.samples[sl] - x[sl])) / np.max(np.abs(x[sl]))
        worst = max(worst, float(err))
    assert worst < 1e-10, worst
    report(4, f"10 round trips, worst interior relative error {worst:.2e}")


def test_criterion_05_tradeoff_monotonicity(batch20):
    """Mean RESL strictly increasing, mean DSML strictly decreasing over the alpha grid."""
    start = time.perf_counter()
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    dsml_means, resl_means = [], []
    for beta in beta_schedule(alphas):
        rows = batch_metric_means(batch20, beta)
        dsml_means.append(float(np.mean([r["dsml"] for r in rows])))
        resl_means.append(float(np.mean([r["resl"] for r in rows])))
    elapsed = time.perf_counter() - start
    assert srcc(alphas, resl_means) == 1.0, resl_means
    assert srcc(alphas, dsml_means) == -1.0, dsml_means
    assert all(b > a for a, b in zip(resl_means, resl_means[1:]))
    assert all(b < a for a, b in zip(dsml_means, dsml_means[1:]))
    assert elapsed < 60.0, elapsed
    report(5, f"20 scenes x 5 alphas in {elapsed:.1f} s; RESL {resl_means[0]:.2f}->{resl_means[-1]:.2f} dB up, "
              f"DSML {dsml_means[0]:.2f}->{dsml_means[-1]:.2f} dB down, Spearman +-1")


def test_criterion_06_condition_degradation_ordering(condition_batches):
    """DSML and RESL means lower at SER -10 than +10 and at SNR 0 than 40."""
    means = {}
    for tag, batch in condition_batches.items():
        rows = batch_metric_means(batch, 8.0)
        means[tag] = (
            float(np.mean([r["dsml"] for r in rows])),
            float(np.mean([r["resl"] for r in rows])),
        )
    assert means["ser_lo"][0] < means["ser_hi"][0], (means["ser_lo"], means["ser_hi"])
    assert means["snr_lo"][0] < means["snr_hi"][0], (means["snr_lo"], means["snr_hi"])
    assert means["ser_lo"][1] < means["ser_hi"][1], (means["ser_lo"], means["ser_hi"])
    assert means["snr_lo"][1] < means["snr_hi"][1], (means["snr_lo"], means["snr_hi"])
    report(6, "20-scene batches: DSML {:.2f}<{:.2f} (SER), {:.2f}<{:.2f} (SNR); "
              "RESL {:.2f}<{:.2f} (SER), {:.2f}<{:.2f} (SNR)".format(
                  means["ser_lo"][0], means["ser_hi"][0], means["snr_lo"][0], means["snr_hi"][0],
                  means["ser_lo"][1], means["ser_hi"][1], means["snr_lo"][1], means["snr_hi"][1]))


def test_criterion_07_metric_ordering(batch50):
    """DSML>SDR, DSML<SAR, RESL<ERLE on >=90% of 50 scenes at beta in {4, 8}."""
    for beta in (4.0, 8.0):
        rows = batch_metric_means(batch50, beta)
        n = len(rows)
        frac_sdr = sum(r["dsml"] > r["sdr"] for r in rows) / n
        frac_sar = sum(r["dsml"] < r["sar"] for r in rows) / n
        frac_erle = sum(r["resl"] < r["erle"] for r in rows) / n
        assert frac_sdr >= 0.9, (beta, frac_sdr)
        assert frac_sar >= 0.9, (beta, frac_sar)
        assert frac_erle >= 0.9, (beta, frac_erle)
        report(7, f"beta={beta:g}: dsml>sdr {frac_sdr:.0%}, dsml<sar {frac_sar:.0%}, "
                  f"resl<erle {frac_erle:.0%} of 50 scenes")


def test_criterion_08_loss_value_checks():
    """J value checks, exact discontinuity, monotonicity in alpha."""
    rng = np.random.default_rng(108)
    s = np.abs(rng.standard_normal((40, 257)))
    assert loss_j(LossInputs(predicted=s, target=s, alpha=0.0)) == 0.0

    expected = float(np.sum(s * s)) + 0.1 * float(np.var(s))
    value = loss_j(LossInputs(predicted=s, target=s, alpha=1.0))
    assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

    target = np.abs(rng.standard_normal((40, 257)))
    at_zero = loss_j(LossInputs(predicted=s, target=target, alpha=0.0))
    eps_alpha = 1e-300
    near_zero = loss_j(LossInputs(predicted=s, target=target, alpha=eps_alpha))
    jump = near_zero - at_zero - eps_alpha * float(np.sum(s * s))
    assert jump == pytest.approx(0.1 * float(np.var(s)), rel=1e-12)

    grid_values = [
        loss_j(LossInputs(predicted=s, target=target, alpha=a)) for a in np.linspace(0.0, 2.0, 10)
    ]
    assert all(b >= a for a, b in zip(grid_values, grid_values[1:]))
    report(8, "J(S,S,0)=0, J(S,S,1) exact, discontinuity = 0.1*Var, monotone on 10-point grid")


def test_criterion_09_correlation_statistics():
    """pcc/srcc match brute force to 1e-12 on 1000 pairs; rank identity exact."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        if rng.random() < 0.3:
            x = rng.integers(0, 5, size=n).astype(float)  # ties
            y = rng.integers(0, 5, size=n).astype(float)
        else:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        worst = max(worst, abs(pcc(x, y) - oracles.pearson(list(x), list(y))))
        worst = max(worst, abs(srcc(x, y) - oracles.spearman(list(x), list(y))))
        assert srcc(x, y) == pcc(average_ranks(x), average_ranks(y))
        assert list(average_ranks(x)) == oracles.average_ranks(list(x))
    assert worst <= 1e-12, worst
    report(9, f"1000 pairs, worst |delta| vs brute force {worst:.2e}; srcc == pcc-of-ranks exactly")


def test_criterion_10_end_to_end_determinism_and_speed(tmp_path):
    """simulate + suppress + evaluate on a 10 s scene in < 2 s, byte-identical on re-run."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"duration": 10.0}))

    def pipeline(root):
        scenes = root / "scenes"
        out = root / "report"
        assert main(["simulate", "--spec", str(spec_path), "--out", str(scenes),
                     "--count", "1", "--seed", "5"]) == 0
        assert main(["suppress", "--scenes", str(scenes), "--beta", "8"]) == 0
        assert main(["evaluate", "--scenes", str(scenes), "--out", str(out)]) == 0

    start = time.perf_counter()
    pipeline(tmp_path / "run1")
    elapsed = time.perf_counter() - start
    pipeline(tmp_path / "run2")

    def collect(root):
        blobs = {}
        for base, _, files in os.walk(root):
            for name in files:
                path = os.path.join(base, name)
                rel = os.path.relpath(path, root)
                with open(path, "rb") as fh:
                    blobs[rel] = fh.read()
        return blobs

    first = collect(tmp_path / "run1")
    second = collect(tmp_path / "run2")
    assert first.keys() == second.keys()
    diff = [k for k in first if first[k] != second[k]]
    assert not diff, diff
    assert elapsed < 2.0, elapsed
    report(10, f"10 s scene pipeline in {elapsed:.2f} s; {len(first)} files byte-identical on re-run")
