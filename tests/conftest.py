import pytest

import reseval as rv


def make_scene_batch(count, seed0, duration=2.5, **kwargs):
    """Simulate scenes with masks; shared by unit and acceptance tests."""
    batch = []
    for i in range(count):
        spec = rv.SceneSpec(duration=duration, seed=seed0 + i, **kwargs)
        components = rv.generate_scene(spec)
        mask = rv.classify(components.s, rv.echo_reference(components))
        batch.append((components, mask))
    return batch


def suppress_and_evaluate(components, mask, beta):
    tracks = rv.gain_tracks(components.e, components.s)
    s_hat = rv.oracle_suppress(tracks, rv.SuppressorConfig(beta=beta))
    return rv.evaluate_scene(rv.scene_rows(components, mask), s_hat)


def batch_metric_means(batch, beta):
    """Per-scene per-metric means over a batch at one beta."""
    rows = []
    for components, mask in batch:
        report = suppress_and_evaluate(components, mask, beta)
        rows.append({name: agg.mean for name, agg in report.aggregates.items()})
    return rows


@pytest.fixture(scope="session")
def batch20():
    return make_scene_batch(20, 1000)


@pytest.fixture(scope="session")
def batch50():
    return make_scene_batch(50, 3000)


@pytest.fixture(scope="session")
def condition_batches():
    return {
        "ser_lo": make_scene_batch(20, 2000, ser_db=-10.0),
        "ser_hi": make_scene_batch(20, 2000, ser_db=10.0),
        "snr_lo": make_scene_batch(20, 2000, snr_db=0.0),
        "snr_hi": make_scene_batch(20, 2000, snr_db=40.0),
    }


def assert_close(actual, expected, tol, label=""):
    assert abs(actual - expected) <= tol, f"{label}: {actual} vs {expected} (tol {tol})"
