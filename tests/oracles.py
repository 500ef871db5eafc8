"""Independent direct-evaluation references for the test suite.

Everything here but stft_gain_reference is plain Python over math.fsum,
deliberately sharing no code with the package: these are the oracles the
implementation is checked against.
"""

import math

from reseval.framing import Spectrogram, istft, stft

ENERGY_FLOOR = 1e-12
GAIN_FLOOR = 1e-8
CLAMP = 120.0
ACTIVITY_RANGE_DB = 61.0
REFERENCE_RANK = 10


def energy(xs):
    return math.fsum(float(v) * float(v) for v in xs)


def ratio_db(num, den, clamp=CLAMP):
    if num <= ENERGY_FLOOR:
        return -clamp
    if den <= ENERGY_FLOOR:
        return clamp
    return min(clamp, max(-clamp, 10.0 * math.log10(num / den)))


def gain(s_hat, e):
    out = []
    for sh, ev in zip(s_hat, e):
        ev = float(ev)
        if abs(ev) < GAIN_FLOOR:
            ev = GAIN_FLOOR if ev >= 0 else -GAIN_FLOOR
        out.append(float(sh) / ev)
    return out


def compensation(g, s):
    den = energy(s)
    if den <= ENERGY_FLOOR:
        return 1.0
    return math.fsum(gv * sv * sv for gv, sv in zip(g, s)) / den


def dsml(s, g, clamp=CLAMP):
    gh = compensation(g, s)
    num = math.fsum((gh * sv) ** 2 for sv in s)
    den = math.fsum((gh * sv - gv * sv) ** 2 for gv, sv in zip(g, s))
    return ratio_db(num, den, clamp)


def resl(s, e, g, clamp=CLAMP):
    r = [float(ev) - float(sv) for ev, sv in zip(e, s)]
    num = energy(r)
    den = math.fsum((gv * rv) ** 2 for gv, rv in zip(g, r))
    return ratio_db(num, den, clamp)


def sdr(s, s_hat, clamp=CLAMP):
    num = energy(s)
    comp = [float(v) for v in s_hat]
    if num > ENERGY_FLOOR:
        proj = math.fsum(float(shv) * float(sv) for shv, sv in zip(s_hat, s)) / num
        if abs(proj) > ENERGY_FLOOR:
            comp = [float(shv) / proj for shv in s_hat]
    den = math.fsum((float(sv) - cv) ** 2 for sv, cv in zip(s, comp))
    return ratio_db(num, den, clamp)


sar = sdr


def erle(e, s_hat, clamp=CLAMP):
    return ratio_db(energy(e), energy(s_hat), clamp)


def ser(s, y, clamp=CLAMP):
    return ratio_db(energy(s), energy(y), clamp)


snr = ser


def mean_std(values):
    """Two-pass mean and population std."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def frame_count(signal_len, frame_len=320, hop=160):
    """Count frames by explicit enumeration."""
    count = 0
    start = 0
    while start + frame_len <= signal_len:
        count += 1
        start += hop
    return count


def frame_energies(xs, frame_len=320, hop=160):
    return [energy(xs[i * hop : i * hop + frame_len]) for i in range(frame_count(len(xs), frame_len, hop))]


def activity(s, ref):
    """Per frame, (s active, ref active): energy above the REFERENCE_RANK-th
    largest per-frame max of the two energies (the smallest with fewer
    frames) less ACTIVITY_RANGE_DB, and above the energy floor."""
    es, er = frame_energies(s), frame_energies(ref)
    louder = sorted((max(a, b) for a, b in zip(es, er)), reverse=True)
    level = louder[min(REFERENCE_RANK, len(louder)) - 1]
    threshold = max(ENERGY_FLOOR, level * 10.0 ** (-ACTIVITY_RANGE_DB / 10.0))
    return [(a > threshold, b > threshold) for a, b in zip(es, er)]


def dft_magnitudes(frame, fft_len):
    """Brute-force DFT magnitude of a zero-padded real frame."""
    mags = []
    for k in range(fft_len // 2 + 1):
        re = math.fsum(frame[n] * math.cos(-2.0 * math.pi * k * n / fft_len) for n in range(len(frame)))
        im = math.fsum(frame[n] * math.sin(-2.0 * math.pi * k * n / fft_len) for n in range(len(frame)))
        mags.append(math.hypot(re, im))
    return mags


def average_ranks(values):
    """1-based average ranks straight from the definition."""
    vals = [float(v) for v in values]
    ranks = []
    for v in vals:
        smaller = sum(1 for o in vals if o < v)
        equal = sum(1 for o in vals if o == v)
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def pearson(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(math.fsum((a - mx) ** 2 for a in x) * math.fsum((b - my) ** 2 for b in y))
    return num / den


def spearman(x, y):
    return pearson(average_ranks(x), average_ranks(y))


def stft_gain_reference(e, gains):
    """Per-frame gains applied to e's STFT magnitudes, then WOLA synthesis.

    The frequency-domain form of a frame-wise gain, built on the package's
    stft/istft (which the DFT and reconstruction tests check on their own).
    """
    spec = stft(e)
    return istft(Spectrogram(magnitudes=gains[:, None] * spec.magnitudes, phases=spec.phases, grid=spec.grid))
