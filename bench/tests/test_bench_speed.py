import time

import pytest

from speed import CLIP, REFERENCE_S, SpeedProbe, slowdown


def test_slowdown_is_the_mean_sample_over_the_reference_with_outliers_clipped():
    ref = REFERENCE_S
    assert slowdown([ref, ref]) == pytest.approx(1.0)
    # half the samples at twice the reference: the section ran 1.5x slow
    assert slowdown([ref, 2 * ref]) == pytest.approx(1.5)
    # a descheduled sample counts as CLIP x the reference, not as its own length
    assert slowdown([ref, 500 * ref]) == pytest.approx((1.0 + CLIP) / 2)


def test_section_samples_only_during_the_block():
    probe = SpeedProbe()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with probe.section() as taken:
        busy(0.1)
    n = len(taken)
    busy(0.05)
    assert n >= 5 and len(taken) == n
    assert all(0.0 < t < 1.0 for t in taken)
