"""Critical-number certificates: exhaustive, formula, witness, sampled."""

import math
import random
from itertools import combinations, islice, permutations

import pytest

from critnum.catalog import catalog_group, catalog_init
from critnum.critical import (
    CrCertificate,
    cr_exhaustive,
    cr_formula,
    cr_sampled_upper,
    find_nonbases,
    resolving_sequence,
    witness_lower_bound,
)
from critnum.groups import (
    cyclic,
    dihedral,
    heisenberg,
    semidirect_cyclic,
    subgroup_closure,
    subgroups_of_index,
)
from critnum.sumsets import covers_group, exact_reach_mask, fixed_order_reach_mask


def brute_cr(g):
    """Oracle: 1 + size of the largest non-basis, by permutation brute force."""

    def brute_covers(members):
        out = set()
        for size in range(1, len(members) + 1):
            for perm in permutations(members, size):
                s = perm[0]
                for x in perm[1:]:
                    s = g.op[s][x]
                out.add(s)
        return len(out) == g.n

    best = 0
    for size in range(0, g.n):
        if any(not brute_covers(c) for c in combinations(range(1, g.n), size)):
            best = size
    return best + 1


# frozen from the brute-force oracle (see also the direct checks below)
KNOWN_CR = {"Z4": 3, "Z6": 4, "Z9": 5, "D3": 4, "D4": 4, "Dic2": 4, "A4": 5, "Z15": 7}


@pytest.mark.parametrize("name", ["Z4", "Z6", "Z9", "D3"])
def test_cr_exhaustive_matches_brute_force(name):
    g = catalog_group(name)
    assert brute_cr(g) == KNOWN_CR[name]
    cert = cr_exhaustive(g)
    assert cert.value == KNOWN_CR[name]
    assert cert.lower_bound == cert.upper_bound == cert.value
    assert cert.method == "exhaustive"


@pytest.mark.parametrize("name", ["D4", "Dic2", "A4", "Z15"])
def test_cr_exhaustive_frozen_values(name):
    cert = cr_exhaustive(catalog_group(name))
    assert cert.value == KNOWN_CR[name]


@pytest.mark.slow
def test_cr_z45_exact_is_16():
    # about a minute on one core: every size-16 subset of Z45 is read through
    # the shared translate tables; run with `pytest -m slow`
    g = catalog_group("Z45")
    cert = cr_exhaustive(g)
    assert cert.value == cert.lower_bound == cert.upper_bound == 16
    assert cert.subsets_checked >= math.comb(44, 16)
    assert len(cert.witness) == 15 and not covers_group(g, cert.witness)


def test_certificate_witness_replayable():
    g = catalog_group("Z9")
    cert = cr_exhaustive(g)
    w = cert.witness
    assert len(w) == cert.value - 1
    assert 0 not in w
    assert not covers_group(g, w)


def test_cr_formula_values_and_tags():
    cases = [
        ("D3", 4, "T1.3i"),
        ("D4", 4, "T1.3ii"),
        ("D7", 7, "T1.3ii"),
        ("Dic2", 4, "T1.3ii"),
        ("H27", 10, "T1.2"),
        ("Z27", 10, "T1.2"),
        ("Z9:Z3", 10, "T1.2"),
        ("Z45", 16, "T1.2"),
        ("Z7:Z3", 8, "T1.1iii"),
    ]
    for name, value, tag in cases:
        cert = cr_formula(catalog_group(name))
        assert cert is not None, name
        assert (cert.value, cert.theorem_tag) == (value, tag), name


def test_cr_formula_not_applicable():
    # abelian even order, odd order with prime n/p, and the index-2-free group
    for name in ("Z4", "Z6", "Z8", "Z9", "Z15", "Z25", "A4", "Z3xZ3"):
        assert cr_formula(catalog_group(name)) is None, name


def test_cr_formula_asymptotic_predicates_unreachable_at_desk_scale():
    # the large-p clauses are encoded but cannot fire for any catalog group
    from critnum.catalog import CATALOG_DESCRIPTORS

    for name, _ in CATALOG_DESCRIPTORS:
        cert = cr_formula(catalog_group(name))
        if cert is not None:
            assert cert.theorem_tag not in ("T1.1i", "T1.1ii")


def test_witness_lower_bound_z9():
    g = cyclic(9)
    cert = witness_lower_bound(g)
    assert cert.lower_bound == 4  # 9/3 + 3 - 2
    assert cert.witness == (1, 3, 6)
    assert not covers_group(g, cert.witness)
    # closure misses the inverse coset entirely
    reach = exact_reach_mask(g, cert.witness)
    assert all(not reach >> x & 1 for x in (2, 5, 8))


def test_witness_lower_bound_dihedral5():
    g = dihedral(5)
    cert = witness_lower_bound(g)
    assert cert.lower_bound == 5  # n/2
    assert cert.witness == (1, 2, 3, 4)
    reach = exact_reach_mask(g, cert.witness)
    assert reach & sum(1 << x for x in range(5, 10)) == 0  # stays in rotations


def test_witness_lower_bound_heisenberg():
    cert = witness_lower_bound(heisenberg(3))
    assert cert.lower_bound == 10
    assert len(cert.witness) == 9
    assert cert.theorem_tag == "L2.6"


def test_witness_lower_bound_explicit_subgroup():
    g = catalog_group("A4")
    # smallest prime is 2 but there is no index-2 subgroup
    with pytest.raises(ValueError):
        witness_lower_bound(g)
    # an explicit normal index-3 subgroup still works
    sub = subgroups_of_index(g, 3)[0]
    cert = witness_lower_bound(g, sub)
    assert cert.lower_bound == 5  # 12/3 + 3 - 2


def test_witness_bound_below_exhaustive():
    for name in ("Z4", "Z6", "Z9", "D3", "D4", "Dic2", "Z15"):
        g = catalog_group(name)
        assert witness_lower_bound(g).lower_bound <= cr_exhaustive(g).value


def test_find_nonbases_empty_set_is_nonbasis():
    checked, found, complete = find_nonbases(cyclic(5), 0)
    assert found == [()]
    assert complete


def reference_nonbases(g, size, budget, limit, bases=None):
    """Oracle: every subset in lexicographic order, each checked by covers_group."""
    if bases is None:
        bases = [covers_group(g, c) for c in combinations(range(1, g.n), size)]
    total = len(bases)
    cap = total if budget is None else min(total, budget)
    checked, found = 0, []
    for comb, ok in islice(zip(combinations(range(1, g.n), size), bases), cap):
        checked += 1
        if not ok:
            found.append(comb)
            if limit and len(found) >= limit:
                break
    return checked, found, cap >= total or bool(limit and len(found) >= limit)


def test_find_nonbases_matches_per_subset_reference():
    for entry in catalog_init():
        if entry.order > 15:
            continue
        g = catalog_group(entry.name)
        for size in range(g.n):
            bases = [covers_group(g, c) for c in combinations(range(1, g.n), size)]
            total = len(bases)
            for limit in (0, 1, 8):
                for budget in (None, 1, 7, total // 3, total - 1):
                    got = find_nonbases(g, size, budget=budget, limit=limit)
                    want = reference_nonbases(g, size, budget, limit, bases)
                    assert got == want, (entry.name, size, limit, budget)


@pytest.mark.parametrize("name,size", [("Z9", 5), ("D6", 7), ("A4", 6)])
def test_budget_ending_inside_pruned_subtree(name, size):
    # the first prefix whose ascending walk already covers G roots a subtree
    # the scan certifies without visiting; a budget ending inside it must
    # certify exactly that subtree's first ranks
    g = catalog_group(name)
    combs = list(combinations(range(1, g.n), size))
    for rank, comb in enumerate(combs):
        depth = next(
            (d for d in range(1, size) if fixed_order_reach_mask(g, comb[:d]) == g.full_mask),
            None,
        )
        if depth is not None and math.comb(g.n - 1 - comb[depth - 1], size - depth) >= 3:
            break
    else:
        pytest.fail("no pruned subtree of three or more subsets")
    a = comb[depth - 1]
    assert combs[rank] == comb[:depth] + tuple(range(a + 1, a + 1 + size - depth))
    budget = rank + 2
    got = find_nonbases(g, size, budget=budget, limit=0)
    assert got == reference_nonbases(g, size, budget, 0)
    assert got[0] == budget


def test_cr_exhaustive_budget_partial():
    cert = cr_exhaustive(catalog_group("Z9"), budget=5)
    assert cert.value is None
    assert cert.lower_bound <= cert.upper_bound
    assert cert.upper_bound == 9
    assert "budget" in cert.notes


def test_cr_exhaustive_parallel_matches_serial():
    g = dihedral(4)
    serial = cr_exhaustive(g, jobs=1)
    parallel = cr_exhaustive(g, jobs=2)
    assert serial.value == parallel.value
    assert serial.witness == parallel.witness
    assert serial.subsets_checked == parallel.subsets_checked


def test_certificate_contradiction_rejected():
    with pytest.raises(ValueError):
        CrCertificate("x", 5, "witness_lower", None, lower_bound=4, upper_bound=3)


def test_cr_sampled_upper_deterministic():
    g = cyclic(45)
    a = cr_sampled_upper(g, 16, 300, seed=42)
    b = cr_sampled_upper(g, 16, 300, seed=42)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("elapsed_ms"), jb.pop("elapsed_ms")
    assert ja == jb
    assert a.nonbases_found == 0
    assert a.upper_bound == 16 and a.lower_bound == 1


def test_cr_sampled_upper_witness_injection():
    g = cyclic(45)
    w = witness_lower_bound(g)
    assert len(w.witness) == 15
    cert = cr_sampled_upper(g, 15, 50, seed=1, include=[w.witness])
    assert cert.nonbases_found >= 1
    assert cert.lower_bound == 16
    assert cert.witness == w.witness


def test_cr_sampled_upper_cross_check_small():
    # at t = cr the sampler finds nothing; at t = cr - 1 it can disprove
    g = catalog_group("Z9")
    at_cr = cr_sampled_upper(g, 5, 400, seed=3)
    assert at_cr.nonbases_found == 0
    below = cr_sampled_upper(g, 4, 400, seed=3)
    assert below.nonbases_found >= 1


def test_cr_sampled_upper_at_full_size():
    # t = n - 1 draws the whole of G\{0}; clean whenever cr <= n - 1
    for name in ("D4", "Z9", "Dic2"):
        g = catalog_group(name)
        assert cr_exhaustive(g).value <= g.n - 1
        cert = cr_sampled_upper(g, g.n - 1, 50, seed=2)
        assert cert.nonbases_found == 0


def test_formula_agrees_with_exhaustive_up_to_order_21():
    # the desk-scale theorem check at small orders; order 27 runs in acceptance
    from critnum.catalog import catalog_init

    for entry in catalog_init():
        if entry.order > 21:
            continue
        g = catalog_group(entry.name)
        predicted = cr_formula(g)
        if predicted is None:
            continue
        assert cr_exhaustive(g, jobs=2).value == predicted.value, entry.name


# ---------------------------------------------------------------------------
# resolving sequences


def test_resolving_single_element():
    g = cyclic(9)
    rs = resolving_sequence(g, g.subset([4]))
    assert rs.ordering == (4,)
    assert rs.critical_index == 1
    assert rs.lambdas == (1,)
    assert rs.prefix_sizes == (1,)


def test_resolving_proper_subgroup_has_full_critical_index():
    g = cyclic(9)
    rs = resolving_sequence(g, g.subset([3, 6]))
    assert rs.critical_index == 2


def test_resolving_rejects_bad_input():
    g = cyclic(9)
    with pytest.raises(ValueError):
        resolving_sequence(g, g.subset([]))
    with pytest.raises(ValueError):
        resolving_sequence(g, g.subset([0, 1]))


def _check_defining_max_property(g, rs):
    for i in range(1, len(rs.ordering) + 1):
        prefix = rs.ordering[:i]
        b = exact_reach_mask(g, prefix)
        assert b.bit_count() == rs.prefix_sizes[i - 1]
        lams = [(g.translate(b, x) & ~b).bit_count() for x in prefix]
        assert rs.lambdas[i - 1] == lams[i - 1] == max(lams)


def test_resolving_defining_property_reverified():
    rng = random.Random(41)
    for g in (cyclic(27), dihedral(6), heisenberg(3)):
        for _ in range(25):
            size = rng.randint(1, 8)
            members = sorted(rng.sample(range(1, g.n), size))
            rs = resolving_sequence(g, g.subset(members))
            assert sorted(rs.ordering) == members
            _check_defining_max_property(g, rs)


def test_resolving_critical_index_definition():
    rng = random.Random(43)
    for g in (cyclic(27), semidirect_cyclic(9, 3, 4)):
        for _ in range(25):
            size = rng.randint(1, 7)
            members = sorted(rng.sample(range(1, g.n), size))
            rs = resolving_sequence(g, g.subset(members))
            t = rs.critical_index
            k = len(members)
            assert 1 <= t <= k
            prefix = rs.ordering[: t - 1]
            carrier = subgroup_closure(g, g.subset(prefix)).carrier
            assert len(carrier) < g.n
            if t < k:
                bigger = subgroup_closure(g, g.subset(rs.ordering[:t])).carrier
                assert len(bigger) == g.n


def test_resolving_chain_inequality():
    # |closure(X)| >= lambda_k + ... + lambda_j + |B_{j-1}| for every j
    rng = random.Random(47)
    for g in (cyclic(27), heisenberg(3), dihedral(8)):
        for _ in range(25):
            size = rng.randint(1, 8)
            members = sorted(rng.sample(range(1, g.n), size))
            rs = resolving_sequence(g, g.subset(members))
            total = exact_reach_mask(g, rs.ordering).bit_count()
            k = size
            for j in range(1, k + 1):
                tail = sum(rs.lambdas[j - 1 : k])
                b_prev = rs.prefix_sizes[j - 2] if j >= 2 else 0
                assert total >= tail + b_prev
