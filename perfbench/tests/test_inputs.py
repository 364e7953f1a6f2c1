import numpy as np

from ffbench import inputs


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.op, x.n, x.order, x.scalar, x.vector) == (y.op, y.n, y.order, y.scalar, y.vector)
        np.testing.assert_array_equal(x.points, y.points)


def test_direct_inputs_repeat_per_seed_and_round():
    _same(inputs.direct_round(5, 0), inputs.direct_round(5, 0))
    _same(inputs.direct_round(5, 3), inputs.direct_round(5, 3))
    a, b = inputs.direct_round(5, 0), inputs.direct_round(6, 0)
    assert not np.array_equal(a[0].points, b[0].points) or a[0].scalar != b[0].scalar


def test_spectral_inputs_repeat_per_seed_and_round():
    _same(inputs.spectral_round(2, 1), inputs.spectral_round(2, 1))
    a, b = inputs.spectral_round(2, 0), inputs.spectral_round(2, 1)
    assert [j.scalar or j.vector for j in a] != [j.scalar or j.vector for j in b]


def test_direct_round_is_the_fixed_mix_with_fresh_fields():
    batches = inputs.direct_round(0, 0)
    expected = sum(count for _, _, count in inputs.DIRECT_MIX) * len(inputs.DIRECT_OPS)
    assert len(batches) == expected
    sizes = sorted({b.points.shape[0] for b in batches})
    assert sizes == [1, 16, 256, 2048]
    centres = [b.scalar.center for b in batches if b.scalar is not None]
    assert len(set(centres)) == len(centres)
    share = inputs.far_points(batches) / sum(b.points.shape[0] for b in batches)
    assert abs(share - inputs.FAR_SHARE) < 0.02


def test_spectral_fields_fit_the_box():
    for job in inputs.spectral_round(9, 0):
        spec = job.scalar or job.vector
        assert inputs.support_of(spec) < inputs.SPECTRAL_BOX / 2.0 - 2.0
