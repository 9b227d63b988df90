"""Verifier behavior: pass on theorems, hypothesis filtering, replayable failures."""

from itertools import combinations
from types import SimpleNamespace

import pytest

from critnum import verifiers
from critnum.catalog import catalog_group
from critnum.groups import cyclic, dihedral, direct_product, heisenberg
from critnum.sumsets import covers_group, exact_reach_mask, sumset
from critnum.verifiers import (
    verify_L2_1,
    verify_L2_2,
    verify_L2_3,
    verify_L2_4,
    verify_L2_5,
    verify_L2_6,
    verify_T1_3_small,
    verify_cd_fold,
    verify_ineq_2_3,
    verify_ineq_2_4,
)


def test_l21_exhaustive_small():
    for g in (cyclic(4), cyclic(6), dihedral(3)):
        report = verify_L2_1(g)
        assert report.mode == "exhaustive"
        assert report.failures == []
        assert report.cases_checked > 0


def test_l21_hypothesis_boundary_not_counted_as_failure():
    # |A| + |B| = |G| can fail to cover, but such pairs are outside the claim
    g = cyclic(4)
    a = g.subset([0, 2])
    assert set(sumset(g, a, a).indices()) == {0, 2}
    report = verify_L2_1(g)
    assert report.failures == []


def test_l21_sampled_deterministic():
    g = catalog_group("D6")
    r1 = verify_L2_1(g, mode="sampled", trials=200, seed=9)
    r2 = verify_L2_1(g, mode="sampled", trials=200, seed=9)
    assert r1.cases_checked == r2.cases_checked == 200
    assert r1.skipped == 0 and (r1.seed, r1.trials) == (9, 200)
    assert r1.failures == r2.failures == []


@pytest.mark.parametrize("short", [0, 1])
def test_l21_bound_is_the_whole_group(short):
    # every translate of A misses element 0 when `short`, so each sum A + B
    # falls one element short of the group: a failure for every pair
    real = cyclic(4)
    drop = ~1 if short else -1
    g = SimpleNamespace(
        n=4, name="Z4", full_mask=real.full_mask, translate=lambda a, x: real.translate(a, x) & drop
    )
    report = verify_L2_1(g, mode="exhaustive")
    assert report.cases_checked == verify_L2_1(real).cases_checked > 0
    assert len(report.failures) == (report.cases_checked if short else 0)


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_run_refuses_fewer_than_one_trial(trials):
    # a sampled run of no draws would report complete with no case checked
    g = catalog_group("D3")
    with pytest.raises(ValueError):
        verify_L2_1(g, mode="sampled", trials=trials)
    with pytest.raises(ValueError):
        verify_ineq_2_4(g, trials=trials)


def test_sampled_run_that_checked_no_case_is_incomplete():
    # Z9 has four inverse pairs, and a sign-disjoint set of all four has a
    # closure of at least n/2: INEQ2.4 skips every draw at its default sizes
    report = verify_ineq_2_4(cyclic(9), trials=200)
    assert (report.cases_checked, report.skipped, report.complete) == (0, 200, False)
    assert report.passed
    # an exhaustive run with no case in the hypotheses holds vacuously
    report = verify_L2_4(cyclic(9), 5, 6)
    assert (report.cases_checked, report.skipped, report.complete) == (0, 0, True)


def test_l22_z15_exhaustive():
    report = verify_L2_2(cyclic(15))
    assert report.cases_checked == 3432  # C(14, 7)
    assert report.failures == []


def test_l22_both_constructions():
    r = verify_L2_2(direct_product(cyclic(3), cyclic(5)))
    assert r.failures == [] and r.complete
    assert r.group_name == "Z3xZ5"
    for g in (cyclic(20), dihedral(5)):
        with pytest.raises(ValueError, match="order pq"):
            verify_L2_2(g)


def test_l22_negative_probe_below_threshold():
    # one size smaller than the guaranteed threshold: a non-basis exists
    g = cyclic(15)
    witness = (1, 2, 3, 4, 13, 14)
    assert not covers_group(g, witness)
    assert len(witness) == 3 + 5 - 2


@pytest.mark.parametrize("short,failures", [(False, 0), (True, 2)])
def test_l22_sampled_check_sits_at_the_basis_size(monkeypatch, short, failures):
    # judged one element short, a draw of p + q - 1 elements can fail: the
    # sampled check is a cover test of exactly the drawn set
    g = cyclic(15)
    if short:
        real = verifiers.covers_group
        monkeypatch.setattr(verifiers, "covers_group", lambda g, comb: real(g, comb[:-1]))
    report = verify_L2_2(g, mode="sampled", trials=300, seed=1)
    assert (report.cases_checked, len(report.failures)) == (300, failures)
    for failure in report.failures:
        assert exact_reach_mask(g, failure["set"][:6]) != g.full_mask


def test_l23_restricted_exhaustive():
    report = verify_L2_3(cyclic(9), max_set_size=3, max_b_size=4)
    assert report.failures == []
    assert (report.cases_checked, report.skipped) == (22695, 3)
    assert report.seed is None and report.trials is None


def test_l23_single_generator_example():
    g = cyclic(7)
    report = verify_L2_3(g, max_set_size=1, max_b_size=3)
    assert report.failures == []


@pytest.mark.parametrize("lam, fails", [(1, True), (2, False)])
def test_l23_bound_uses_the_symmetric_spread(monkeypatch, lam, fails):
    # S = {1, 2} in Z7 has |S u -S| = 4, so for B = {0, 1} the bound is
    # min(2(|B| + 1), |S u -S| + 2) = 6: a gain of 1 (4 < 6) misses it and a
    # gain of 2 (8) meets it.  With |S| in place of |S u -S| the bound would
    # be 4, and a gain of 1 would pass.
    monkeypatch.setattr(verifiers, "lambda_bits", lambda g, b_bits, x: lam)
    report = verify_L2_3(cyclic(7), mode="exhaustive", max_set_size=2, max_b_size=3)
    assert report.cases_checked > 0
    if fails:
        assert {"set": [1, 2], "B": [0, 1]} in report.failures
    else:
        assert report.failures == []


def test_l23_sampled_counts_skips():
    g = catalog_group("Z9")
    report = verify_L2_3(g, mode="sampled", trials=300, seed=5)
    assert report.failures == []
    assert (report.cases_checked, report.skipped) == (291, 9)


def test_l24_z9_exhaustive_small_sizes():
    report = verify_L2_4(cyclic(9), 3, 4)
    assert report.failures == []
    assert report.cases_checked == 48  # C(4,3)*8 + C(4,4)*16


def test_l24_rejects_even_order():
    with pytest.raises(ValueError):
        verify_L2_4(cyclic(8))


def test_l24_case1_pattern():
    # a set of the shape {a, b, a+b} still has closure at least 6
    g = cyclic(7)
    a, b = 1, 2
    members = (a, b, g.op[a][b])
    assert exact_reach_mask(g, members).bit_count() >= 6


def test_l24_floor_is_met_exactly_in_z7():
    # S = {1, 2, 3} in Z7 is sign-disjoint and its closure {1, ..., 6} has
    # exactly 2|S| = 6 elements: on the bound, so the check must pass it
    g = cyclic(7)
    assert exact_reach_mask(g, (1, 2, 3)) == 0b1111110
    report = verify_L2_4(g, 3, 3)
    assert report.cases_checked == 8  # one sign choice per inverse pair
    assert report.failures == []


def test_l24_heisenberg_sampled():
    report = verify_L2_4(heisenberg(3), 3, 6, mode="sampled", trials=300, seed=11)
    assert report.failures == []
    assert (report.cases_checked, report.skipped) == (300, 0)


def test_l24_below_size_3_records_replayable_failures():
    # sets of size 1 and 2 lie outside the lemma, so the floor 2|S| fails for them
    report = verify_L2_4(cyclic(9), 1, 2)
    assert report.cases_checked == 32 and len(report.failures) == 32
    assert report.failures[0] == {"set": [1]}
    assert report.failures[8] == {"set": [1, 2]}
    assert report.failures[-1] == {"set": [5, 6]}
    assert not report.passed
    report = verify_L2_4(heisenberg(3), 2, 3, mode="sampled", trials=300, seed=2)
    assert (report.cases_checked, report.skipped, len(report.failures)) == (300, 0, 43)
    assert report.failures[0] == {"set": [5, 8]}
    assert report.failures[-1] == {"set": [5, 6]}
    for failure in report.failures:
        members = failure["set"]
        assert exact_reach_mask(heisenberg(3), members).bit_count() < 2 * len(members)


def test_l25_all_items_both_groups():
    for name in ("Z9", "Z3xZ3"):
        g = catalog_group(name)
        for item in ("i", "ii", "iii", "iv", "v"):
            report = verify_L2_5(g, item)
            assert report.failures == [], (name, item)


def _first_bits(k: int, start: int = 0) -> int:
    return ((1 << k) - 1) << start


@pytest.mark.parametrize("below", [0, 1])
@pytest.mark.parametrize(
    "item, target, floor",
    [
        ("i", "exact_reach_mask", 6),
        ("ii", "exact_reach_mask", 5),
        ("iii", "exact_reach_mask", 7),
        ("iv", "sigma_r", 5),
    ],
)
def test_l25_closure_floor_is_met_exactly(monkeypatch, item, target, floor, below):
    # every closure (item i: zero-sum free, so bit 0 stays clear) or pair-sum
    # set has exactly the floor, or one element fewer
    size = floor - below
    if target == "sigma_r":
        monkeypatch.setattr(verifiers, "sigma_r", lambda g, s, r: list(range(size)))
    else:
        monkeypatch.setattr(verifiers, "exact_reach_mask", lambda g, members: _first_bits(size, 1))
    report = verify_L2_5(catalog_group("Z9"), item)
    assert report.cases_checked > 0
    assert len(report.failures) == (report.cases_checked if below else 0)


@pytest.mark.parametrize("below", [0, 1])
def test_l25v_sumset_floor_is_met_exactly(below):
    # every translate of A is the same set of 5 - below elements, so each A + B has that size
    g = SimpleNamespace(n=9, name="fake9", translate=lambda a, x: _first_bits(5 - below))
    report = verify_L2_5(g, "v")
    assert report.cases_checked == 126 * 502  # C(9, 4) sets A, every B of size >= 2
    assert len(report.failures) == (report.cases_checked if below else 0)


def test_l25_zero_sum_free_example():
    g = cyclic(9)
    reach = exact_reach_mask(g, (1, 2, 4))
    assert not reach & 1  # zero-sum free
    assert reach.bit_count() >= 6


def test_l25_requires_order_9():
    with pytest.raises(ValueError):
        verify_L2_5(cyclic(8), "i")
    with pytest.raises(ValueError):
        verify_L2_5(catalog_group("Z9"), "vi")


def test_l26_single_group_budgeted_partial():
    report = verify_L2_6(catalog_group("Z27"), budget=100)
    assert report.complete is False
    assert report.failures == []
    assert report.group_name == "Z27"


def test_l26_rejects_wrong_order():
    with pytest.raises(ValueError):
        verify_L2_6(catalog_group("Z9"))


def test_ineq_2_3_exhaustive_z9_up_to_size_5():
    report = verify_ineq_2_3(cyclic(9), max_size=5)
    assert report.failures == []
    assert report.cases_checked > 0


def test_ineq_2_3_sampled_nonabelian():
    report = verify_ineq_2_3(catalog_group("D8"), mode="sampled", trials=400, seed=3)
    assert report.failures == []
    assert (report.cases_checked, report.skipped) == (400, 0)


@pytest.mark.parametrize("lam", [2, 3])
def test_ineq_2_3_bound_is_met_exactly_in_d8(monkeypatch, lam):
    # With lambda pinned to lam, a case holds exactly when removing y costs
    # the closure at least lam elements.  Removing the only element costs 1;
    # removing either element of a pair {a, b}, whose closure is
    # {a, b, a+b, b+a}, costs 2 when a and b commute and 3 when they do not.
    # So each lam has cases that meet it exactly and cases one short of it.
    g = catalog_group("D8")
    op = g.op
    gaps = {((y,), y): 1 for y in range(1, g.n)}
    for a, b in combinations(range(1, g.n), 2):
        gaps[(a, b), a] = gaps[(a, b), b] = len({a, b, op[a][b], op[b][a]}) - 1
    assert {lam - 1, lam} <= set(gaps.values())
    monkeypatch.setattr(verifiers, "lambda_bits", lambda g, b_bits, x: lam)
    report = verify_ineq_2_3(g, mode="exhaustive", max_size=2)
    assert report.cases_checked == len(gaps)
    assert report.failures == [
        {"set": list(members), "y": y} for (members, y), gap in gaps.items() if gap < lam
    ]


@pytest.mark.parametrize("extra, fails", [(0, False), (1, True)])
def test_ineq_2_4_bound_is_met_exactly(monkeypatch, extra, fails):
    # At s = k - 1 the floor is (2k + 2) * 2 - 2 + 4 b_prev = 4(k + 1 + b_prev) - 2,
    # so b_prev = |closure| - k - 1 puts its whole-number value at exactly
    # |closure|, and one more puts it one above.  The s = k floor,
    # 2k + 1 + 4 b_prev on the same b_prev, stays below either way.
    def fake_sequence(g, x):
        k = len(x)
        total = exact_reach_mask(g, x.indices()).bit_count()
        b_prev = total - k - 1 + extra
        return SimpleNamespace(
            critical_index=k - 1, prefix_sizes=(0,) * (k - 3) + (b_prev, b_prev, total)
        )

    monkeypatch.setattr(verifiers, "resolving_sequence", fake_sequence)
    report = verify_ineq_2_4(cyclic(27), trials=200, seed=3)
    assert report.cases_checked > 0
    if fails:
        assert len(report.failures) == report.cases_checked
        assert all(f["s"] == f["critical_index"] == len(f["set"]) - 1 for f in report.failures)
    else:
        assert report.failures == []


def test_ineq_2_4_sampled_z27():
    report = verify_ineq_2_4(cyclic(27), trials=800, seed=3)
    assert report.failures == []
    assert (report.cases_checked, report.skipped) == (56, 744)
    assert (report.mode, report.seed, report.trials) == ("sampled", 3, 800)


def test_ineq_2_4_skips_wide_closures():
    # tiny group: closures of sign-disjoint sets of size >= 2 exceed n/2
    report = verify_ineq_2_4(cyclic(9), trials=100, seed=1, min_size=2, max_size=3)
    assert (report.cases_checked, report.skipped) == (52, 48)
    assert report.failures == []


def test_ineq_2_4_rejects_even_order():
    with pytest.raises(ValueError):
        verify_ineq_2_4(cyclic(8))


def test_cd_fold_small_primes():
    report = verify_cd_fold((2, 3))
    assert report.failures == []
    assert report.cases_checked == 1 + 4  # 1^1 + 2^2


def test_cd_fold_rejects_nonprime_or_large():
    with pytest.raises(ValueError):
        verify_cd_fold((4,))
    with pytest.raises(ValueError):
        verify_cd_fold((17,))
    # prime, but 10^10 and 8.9 * 10^12 tuples
    with pytest.raises(ValueError):
        verify_cd_fold((11,))
    with pytest.raises(ValueError):
        verify_cd_fold((13,))


def test_t13_small_passes_and_reports_exclusion():
    report = verify_T1_3_small()
    assert report.failures == []
    assert "A4" in (report.notes or "")
    assert report.cases_checked == 14


def test_report_json_shape():
    report = verify_cd_fold((2,))
    data = report.to_json()
    assert list(data)[:5] == ["lemma_id", "group_name", "mode", "cases_checked", "skipped"]
    assert data["failures"] == []
    assert report.passed
