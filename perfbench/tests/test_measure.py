import pytest

import layers
from measure import Outcomes, beyond, percentile, tail_percentile, walk_settle
from tracing import Tracer
from workloads import _guarded, _timed


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_fail_frac_counts_raised_and_failed_checks_over_attempted():
    out = Outcomes()
    assert _timed(out, "raises", lambda: 1 / 0) is None
    assert _timed(out, "ok", lambda: 3)[0] == 3
    _guarded(out, "passes", lambda: True)
    _guarded(out, "fails", lambda: False)
    _guarded(out, "check raises", lambda: {}["missing"])
    # the successful timed call is not an item until its check is recorded
    assert (out.attempted, out.failed) == (4, 3)
    assert out.fail_frac == 0.75
    assert out.errors[0].startswith("raises: ZeroDivisionError")


def test_walk_settle_base_is_scanned_subsets_plus_generic_walks():
    tracer = Tracer()
    counts = tracer.counts

    def scan_task(args):
        counts["critical.scan.escalate"] += 2  # two subsets left the first walk
        return 100, []

    def dp_covers(g, members):
        if members == "escalates":
            counts["sumsets.alt_orders"] += 1
        return members != "escalates"

    scan = layers._count_scan_task(tracer, scan_task)
    dp = layers._count_dp_walk(tracer, dp_covers)
    scan(None)
    for members in ("settles", "escalates", "settles"):
        dp(None, members)
    assert walk_settle(counts) == ((98 + 2) / 103, 103)
    assert counts["critical.scan.subsets"] == 100
    assert walk_settle({}) == (0.0, 0)
