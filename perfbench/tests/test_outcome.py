"""Failed operations and dishonest error estimates are counted apart."""

from ffbench import inputs
from ffbench.workloads import Outcome, _dishonest_points


def test_dishonest_estimates_do_not_fail_the_operation():
    out = Outcome()
    out.record(True, "")
    out.record_dishonest(2, "frac_divergence n=1 m=16: 7x")
    out.record_dishonest(0, "not kept")
    out.record(False, "oracle miss")
    assert (out.attempted, out.failed, out.notes) == (2, 1, ["oracle miss"])
    assert (out.dishonest, out.dishonest_notes) == (2, ["frac_divergence n=1 m=16: 7x"])


def test_only_rows_marked_for_honesty_are_rerun():
    batch = next(b for b in inputs.direct_round(0, 0) if not b.honesty)
    assert _dishonest_points(batch, None, None, None, None) == (0, "")
