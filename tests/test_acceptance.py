"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion as it completes.
"""

import math
import random
import time
import zlib

import pytest

from critnum.catalog import ORDER27_NAMES, catalog_group, catalog_init
from critnum.critical import (
    cr_exhaustive,
    cr_formula,
    cr_sampled_upper,
    resolving_sequence,
    witness_lower_bound,
)
from critnum.groups import (
    ElementSet,
    cyclic,
    smallest_prime_divisor,
    subgroup_closure,
    subgroups_of_index,
)
from critnum.sumsets import (
    _state_search,
    covers_group,
    exact_reach_mask,
    fixed_order_reach_mask,
    lambda_bits,
)
from critnum.verifiers import (
    run_L2_5,
    verify_L2_2,
    verify_L2_4,
    verify_cd_fold,
    verify_ineq_2_3,
    verify_ineq_2_4,
)

SEED = 0xC0FFEE


def report(cid: str, text: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS  {text}", flush=True)


def test_c01_s3_critical_number_is_4():
    t0 = time.perf_counter()
    cert = cr_exhaustive(catalog_group("D3"))
    elapsed = time.perf_counter() - t0
    assert cert.value == 4
    assert cert.method == "exhaustive"
    assert elapsed < 1.0
    report("1", f"cr(S_3) = 4 exact in {elapsed:.3f}s")


@pytest.mark.parametrize("name", ORDER27_NAMES)
def test_c02_order27_critical_number_is_10(name):
    g = catalog_group(name)
    t0 = time.perf_counter()
    cert = cr_exhaustive(g)
    elapsed = time.perf_counter() - t0
    assert cert.value == 10
    assert cert.subsets_checked >= math.comb(26, 10)
    assert cert.witness is not None and len(cert.witness) == 9
    assert not covers_group(g, cert.witness)
    assert elapsed <= 10.0
    report("2", f"cr({name}) = 10 over C(26,10) subsets + size-9 witness in {elapsed:.1f}s")


@pytest.mark.parametrize("name", ORDER27_NAMES)
def test_c02_order27_certificate_counts_each_subset_once(name):
    # the scan certifies each size-10 subset exactly once; the witness adds one
    cert = cr_exhaustive(catalog_group(name))
    assert cert.subsets_checked == math.comb(26, 10) + 1


T13_FAMILY = ["D4", "D5", "D6", "D7", "D8", "Dic2", "Dic3", "Dic4", "Z2xD3", "Z2xD4"]


@pytest.mark.parametrize("name", T13_FAMILY)
def test_c03_even_order_index2_critical_number_is_half(name):
    g = catalog_group(name)
    assert g.n in (8, 10, 12, 14, 16)
    t0 = time.perf_counter()
    cert = cr_exhaustive(g)
    elapsed = time.perf_counter() - t0
    assert cert.value == g.n // 2
    assert elapsed <= 60.0
    report("3", f"cr({name}) = {g.n // 2} = n/2 exact in {elapsed:.2f}s")


def test_c03_order12_fixture_excluded_by_predicate():
    g = catalog_group("A4")
    assert subgroups_of_index(g, 2) == []
    assert cr_formula(g) is None
    report("3", "A4 (order 12, no index-2 subgroup) correctly excluded by the predicate")


def test_c04_order9_closure_floors():
    t0 = time.perf_counter()
    for name in ("Z9", "Z3xZ3"):
        for rep in run_L2_5(catalog_group(name)):
            assert rep.failures == [], (name, rep.lemma_id)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("4", f"L2.5 (i)-(v) exhaustive on both order-9 groups in {elapsed:.1f}s")


def test_c05_order_pq_basis_threshold():
    t0 = time.perf_counter()
    for p, q in ((3, 5), (3, 7)):
        rep = verify_L2_2(cyclic(p * q))
        assert rep.failures == []
        assert rep.cases_checked == math.comb(p * q - 1, p + q - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report("5", f"L2.2 exhaustive for orders 15 and 21 in {elapsed:.1f}s")


L24_GROUPS = ["Z9", "Z15", "Z21", "Z7:Z3", "Z25", "Z27", "Z9xZ3", "Z3xZ3xZ3", "H27", "Z9:Z3"]


def test_c06_sign_disjoint_closure_bound():
    t0 = time.perf_counter()
    for name in L24_GROUPS:
        rep = verify_L2_4(catalog_group(name), 3, 6)
        assert rep.failures == [], name
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    report("6", f"L2.4 exhaustive (sizes 3..6) over {len(L24_GROUPS)} odd-order groups in {elapsed:.1f}s")


def _catalog_groups(max_order):
    return [catalog_group(e.name) for e in catalog_init() if e.order <= max_order]


def test_c07_lambda_identities_and_removal_inequality():
    t0 = time.perf_counter()
    # exhaustive identities and removal inequality where the order is at most 10
    for g in _catalog_groups(10):
        n = g.n
        for bits in range(1 << n):
            comp = g.full_mask & ~bits
            for x in range(n):
                lam = lambda_bits(g, bits, x)
                assert lam == lambda_bits(g, bits, g.inv[x])
                assert lam == lambda_bits(g, comp, x)
        rep = verify_ineq_2_3(g, mode="exhaustive")
        assert rep.failures == [], g.name
    # seeded sampling for every catalog group up to order 32
    for g in _catalog_groups(32):
        rng = random.Random(SEED ^ g.n ^ zlib.crc32(g.name.encode()))
        n = g.n
        for _ in range(10_000):
            bits = rng.getrandbits(n)
            comp = g.full_mask & ~bits
            x = rng.randrange(n)
            lam = lambda_bits(g, bits, x)
            assert lam == lambda_bits(g, bits, g.inv[x])
            assert lam == lambda_bits(g, comp, x)
        rep = verify_ineq_2_3(g, mode="sampled", trials=10_000, seed=SEED)
        assert rep.failures == [], g.name
    elapsed = time.perf_counter() - t0
    report("7", f"translate identities and removal inequality, zero failures, in {elapsed:.1f}s")


def test_c08_resolving_sequences_reverified():
    t0 = time.perf_counter()
    checked_24 = 0
    for g in _catalog_groups(32):
        n = g.n
        rng = random.Random(SEED ^ (n * 977) ^ len(g.name))
        for _ in range(1000):
            size = rng.randint(1, min(8, n - 1))
            members = sorted(rng.sample(range(1, n), size))
            rs = resolving_sequence(g, ElementSet.from_indices(g, members))
            total = exact_reach_mask(g, rs.ordering).bit_count()
            # defining max property, re-verified against every prefix element
            for i in range(1, size + 1):
                b = exact_reach_mask(g, rs.ordering[:i])
                assert b.bit_count() == rs.prefix_sizes[i - 1]
                lams = [(g.translate(b, x) & ~b).bit_count() for x in rs.ordering[:i]]
                assert rs.lambdas[i - 1] == lams[i - 1] == max(lams)
            # chain inequality for every suffix start
            for j in range(1, size + 1):
                b_prev = rs.prefix_sizes[j - 2] if j >= 2 else 0
                assert total >= sum(rs.lambdas[j - 1 :]) + b_prev
            # quadratic floor where its hypotheses hold
            if (
                n % 2 == 1
                and 2 * total < n
                and not {g.inv[x] for x in members} & set(members)
                and len(subgroup_closure(g, ElementSet.from_indices(g, members)).carrier) == n
            ):
                k, t = size, rs.critical_index
                for s in range(t, k + 1):
                    b_prev = rs.prefix_sizes[s - 2] if s >= 2 else 0
                    assert 4 * total >= (k + s + 3) * (k - s + 1) - 2 + 4 * b_prev
                checked_24 += 1
    # dedicated sign-disjoint sampling for the quadratic floor
    for name in L24_GROUPS:
        rep = verify_ineq_2_4(catalog_group(name), trials=1000, seed=SEED)
        assert rep.failures == [], name
        checked_24 += rep.cases_checked
    elapsed = time.perf_counter() - t0
    assert checked_24 > 0
    report(
        "8",
        f"resolving sequences re-verified (1000/group), floor checked on {checked_24} applicable samples, in {elapsed:.1f}s",
    )


def test_c09_oracle_equivalence_prefix_walk_vs_state_search():
    t0 = time.perf_counter()
    groups = [g for g in _catalog_groups(24) if g.is_abelian]
    per_group = 10_000 // len(groups)
    total = 0
    for g in groups:
        rng = random.Random(SEED + g.n)
        for _ in range(per_group):
            size = rng.randint(1, min(12, g.n - 1))
            members = tuple(sorted(rng.sample(range(g.n), size)))
            dp = fixed_order_reach_mask(g, members)
            searched, _ = _state_search(g, members)
            assert dp == searched, (g.name, members)
            total += 1
    elapsed = time.perf_counter() - t0
    assert total >= 9990
    report("9", f"prefix walk == ordered search on {total} abelian subsets (bit-identical) in {elapsed:.1f}s")


def test_c10_witness_bounds_and_z45_evidence():
    t0 = time.perf_counter()
    certified = []
    for entry in catalog_init():
        g = catalog_group(entry.name)
        p = smallest_prime_divisor(g.n)
        if not any(s.is_normal for s in subgroups_of_index(g, p)):
            continue
        cert = witness_lower_bound(g)
        assert cert.lower_bound == g.n // p + p - 2, entry.name
        w = cert.witness
        assert w is not None and len(w) == cert.lower_bound - 1 and 0 not in w
        assert not covers_group(g, w), entry.name
        certified.append(entry.name)
    assert "A4" not in certified and len(certified) == len(catalog_init()) - 1
    z45 = catalog_group("Z45")
    sampled = cr_sampled_upper(z45, 16, 100_000, seed=SEED)
    assert sampled.nonbases_found == 0
    assert sampled.method == "sampled_upper"
    elapsed = time.perf_counter() - t0
    report(
        "10",
        f"witness bounds certified for {len(certified)} groups; Z45 t=16 sampling clean (10^5 trials) in {elapsed:.1f}s",
    )


def test_c11_prime_fold_coverage():
    t0 = time.perf_counter()
    rep = verify_cd_fold((2, 3, 5, 7))
    elapsed = time.perf_counter() - t0
    assert rep.failures == []
    assert rep.cases_checked == 1 + 2**2 + 4**4 + 6**6
    assert elapsed < 10.0
    report("11", f"binary-fold coverage exhaustive for q in 2,3,5,7 in {elapsed:.1f}s")
