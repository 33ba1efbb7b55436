import math

import numpy as np
import pytest

from msrnn import remap_positions
from msrnn.remap import remap_gap

# frozen high-precision oracle values for the compressed gaps
LN_LN_11 = 0.874591382923689
LN_LN_16 = 1.0197814405382262
LN_LN_100 = 1.5271796258079011


def test_gap_identity_region():
    for g in range(1, 11):
        assert remap_gap(g) == float(g)


def test_gap_compressed_region_oracle():
    assert remap_gap(11) == pytest.approx(LN_LN_11, abs=1e-12)
    assert remap_gap(16) == pytest.approx(LN_LN_16, abs=1e-12)
    assert remap_gap(100) == pytest.approx(LN_LN_100, abs=1e-12)
    assert remap_gap(70000) == pytest.approx(math.log(math.log(70000)), abs=1e-12)


def test_gap_rejects_nonpositive():
    with pytest.raises(ValueError):
        remap_gap(0)
    with pytest.raises(ValueError):
        remap_gap(-3)


def test_positions_start_at_zero_and_accumulate():
    out = remap_positions([7])
    assert out.tolist() == [0.0]
    out = remap_positions([0, 5, 10, 30, 200])
    expected = [0.0, 5.0, 10.0,
                10.0 + math.log(math.log(20)),
                10.0 + math.log(math.log(20)) + math.log(math.log(170))]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    assert out.dtype == np.float64


def test_positions_identity_when_gaps_small():
    # dense retained set: remapping degenerates to original offsets
    out = remap_positions(list(range(50, 80)))
    np.testing.assert_array_equal(out, np.arange(30, dtype=np.float64))


def test_positions_strictly_increasing_required():
    with pytest.raises(ValueError):
        remap_positions([3, 3])
    with pytest.raises(ValueError):
        remap_positions([5, 2])
    with pytest.raises(ValueError):
        remap_positions([])


def test_span_bound():
    # every remapped gap is <= 10, so the span is <= 10 * (n - 1)
    rng = np.random.default_rng(42)
    for _ in range(50):
        positions = np.sort(rng.choice(70000, size=128, replace=False))
        out = remap_positions([int(p) for p in positions])
        assert np.all(np.diff(out) > 0)
        assert out[-1] <= 10.0 * (len(out) - 1)
