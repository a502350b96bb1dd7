"""The host-speed scale follows the reference samples near each moment.

    python3 -m pytest bench/test_hostspeed.py
"""

import pytest

import hostspeed
from hostspeed import REFERENCE_NOMINAL_S, HostSpeed


def _samples(durations, step=0.1):
    return [(i * step, d) for i, d in enumerate(durations)]


def test_steady_host_scales_to_the_nominal_speed():
    speed = HostSpeed(_samples([2 * REFERENCE_NOMINAL_S] * 50))
    assert speed.scale(1.0) == pytest.approx(0.5)


def test_scale_follows_a_slowdown_and_ignores_a_lone_outlier():
    durations = [REFERENCE_NOMINAL_S] * 100 + [2 * REFERENCE_NOMINAL_S] * 100
    durations[30] = 10 * REFERENCE_NOMINAL_S
    speed = HostSpeed(_samples(durations))
    assert speed.scale(3.0) == pytest.approx(1.0)
    assert speed.scale(17.0) == pytest.approx(0.5)


def test_sparse_samples_widen_the_window():
    speed = HostSpeed([(0.0, 1e-3), (100.0, 1e-3), (200.0, 2e-3), (300.0, 2e-3), (400.0, 2e-3),
                       (500.0, 2e-3), (600.0, 2e-3), (700.0, 2e-3), (800.0, 2e-3)])
    assert speed.reference_at(0.0) == pytest.approx(2e-3)


def test_too_few_samples_are_refused():
    with pytest.raises(ValueError):
        HostSpeed(_samples([1e-3] * (hostspeed.MIN_SAMPLES - 1)))


def test_samples_time_the_reference_work():
    got = hostspeed.samples()
    assert len(got) == hostspeed.SAMPLES_EACH
    assert all(d > 0 for _, d in got)
    assert got[0][0] < got[-1][0]
