"""Subset-sum closures checked against permutation brute force."""

import math
import random
import zlib
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from critnum import sumsets
from critnum.catalog import catalog_group, catalog_init
from critnum.groups import (
    ElementSet,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    semidirect_cyclic,
    subgroup_mask,
)
from critnum.sumsets import (
    CapacityError,
    _alt_orders,
    _state_search,
    covers_group,
    exact_reach_mask,
    fixed_order_reach_mask,
    fold_cd,
    is_additive_basis,
    lambda_count,
    sigma,
    sigma_r,
    sumset,
)


def brute_sigma(g, members, r=None):
    """Oracle: enumerate every ordering of every distinct-element selection."""
    out = set()
    sizes = range(1, len(members) + 1) if r is None else [r]
    for size in sizes:
        for perm in permutations(members, size):
            s = perm[0]
            for x in perm[1:]:
                s = g.op[s][x]
            out.add(s)
    return out


def test_sigma_cyclic5_two_elements():
    g = cyclic(5)
    clo = sigma(g, g.subset([1, 2]))
    assert clo.full.indices() == (1, 2, 3)


def test_sigma_s3_rotation_reflection_both_orders():
    g = dihedral(3)
    r, s = 1, 3
    clo = sigma(g, g.subset([r, s]))
    want = {r, s, g.op[r][s], g.op[s][r]}
    assert len(want) == 4
    assert set(clo.full.indices()) == want


def test_sigma_plus_minus_pairs_in_z9():
    g = cyclic(9)
    clo = sigma(g, g.subset([1, 8, 2, 7]))
    assert len(clo.full) >= 7
    assert {0, 1, 8, 2, 7, 3, 6} <= set(clo.full.indices())


def test_sigma_matches_brute_force_nonabelian():
    rng = random.Random(11)
    for g in (dihedral(4), dicyclic(2), dihedral(3)):
        for _ in range(60):
            size = rng.randint(1, min(6, g.n - 1))
            members = sorted(rng.sample(range(g.n), size))
            clo = sigma(g, g.subset(members), want_by_cardinality=True)
            assert set(clo.full.indices()) == brute_sigma(g, members)
            for r in range(1, size + 1):
                assert set(clo.by_cardinality[r].indices()) == brute_sigma(g, members, r)


def test_sigma_by_cardinality_union_is_full():
    g = heisenberg(3)
    rng = random.Random(5)
    for _ in range(10):
        members = sorted(rng.sample(range(1, 27), 5))
        clo = sigma(g, g.subset(members), want_by_cardinality=True)
        u = 0
        for es in clo.by_cardinality.values():
            u |= es.bits
        assert u == clo.full.bits


def test_sigma_exact_flag_paths():
    g = heisenberg(3)
    # dense set: the fixed-order walk covers the group, no search needed
    dense = g.subset(range(1, 12))
    clo = sigma(g, dense)
    assert clo.full.bits == g.full_mask and clo.exact is False
    # sparse set: full search runs
    sparse = g.subset([1, 2])
    clo = sigma(g, sparse)
    assert clo.exact is True
    # abelian path is always exact
    z = cyclic(9)
    assert sigma(z, z.subset([1, 2])).exact is True


def test_sigma_empty_set():
    g = cyclic(5)
    clo = sigma(g, g.subset([]), want_by_cardinality=True)
    assert len(clo.full) == 0
    assert clo.by_cardinality == {}


def test_sigma_r_examples():
    g = cyclic(9)
    assert sigma_r(g, g.subset([1, 2, 3, 4]), 2).indices() == (3, 4, 5, 6, 7)
    assert sigma_r(g, g.subset([1, 2, 3, 4]), 1).indices() == (1, 2, 3, 4)
    # r = |S| on an abelian group: the single full sum
    assert sigma_r(g, g.subset([1, 2, 3, 4]), 4).indices() == ((1 + 2 + 3 + 4) % 9,)
    with pytest.raises(ValueError):
        sigma_r(g, g.subset([1, 2]), 3)
    with pytest.raises(ValueError):
        sigma_r(g, g.subset([1, 2]), 0)


def test_sigma_r_matches_brute_force():
    g = dicyclic(3)
    rng = random.Random(2)
    for _ in range(30):
        members = sorted(rng.sample(range(g.n), rng.randint(1, 5)))
        r = rng.randint(1, len(members))
        got = sigma_r(g, g.subset(members), r)
        assert set(got.indices()) == brute_sigma(g, members, r)


def test_sumset_basics():
    g = cyclic(3)
    full = g.subset([0, 1, 2])
    assert sumset(g, full, g.subset([0])) == full
    assert sumset(g, g.subset([0, 1]), g.subset([0, 1])).indices() == (0, 1, 2)


def test_sumset_matches_brute_force():
    g = dihedral(5)
    rng = random.Random(3)
    for _ in range(40):
        a = rng.sample(range(10), rng.randint(1, 5))
        b = rng.sample(range(10), rng.randint(1, 5))
        got = sumset(g, g.subset(a), g.subset(b))
        want = {g.op[x][y] for x in a for y in b}
        assert set(got.indices()) == want


def test_fold_cd_examples():
    z5 = cyclic(5)
    assert len(fold_cd(z5, [1, 1, 1, 1])) == 5
    z7 = cyclic(7)
    assert len(fold_cd(z7, [2, 3, 2, 5, 1, 6])) == 7
    assert fold_cd(z7, []).indices() == (0,)


def test_lambda_basics():
    g = cyclic(7)
    assert lambda_count(g, g.subset([0]), 3) == 1
    assert lambda_count(g, g.subset([0, 1, 5]), 0) == 0


def test_lambda_identities_exhaustive_small():
    for g in (cyclic(6), dihedral(3)):
        n = g.n
        for bits in range(1 << n):
            b = ElementSet(g, bits)
            comp = b.complement()
            for x in range(n):
                lam = lambda_count(g, b, x)
                assert lam == lambda_count(g, b, g.inv[x])
                assert lam == lambda_count(g, comp, x)


def test_is_additive_basis():
    z3 = cyclic(3)
    assert is_additive_basis(z3, z3.subset([1, 2]))
    d3 = dihedral(3)
    assert not is_additive_basis(d3, d3.subset([1, 2]))  # rotations only
    with pytest.raises(ValueError):
        is_additive_basis(z3, z3.subset([0, 1]))


def test_every_ten_subset_of_heisenberg_samples_as_basis():
    g = heisenberg(3)
    rng = random.Random(13)
    for _ in range(50):
        members = sorted(rng.sample(range(1, 27), 10))
        assert is_additive_basis(g, g.subset(members))


def test_fixed_order_soundness():
    rng = random.Random(17)
    for g in (dihedral(4), dicyclic(2)):
        for _ in range(80):
            members = tuple(sorted(rng.sample(range(g.n), rng.randint(1, 6))))
            under = fixed_order_reach_mask(g, members)
            exact = exact_reach_mask(g, members)
            assert under & ~exact == 0


def test_order_invariance():
    g = dicyclic(2)
    rng = random.Random(19)
    for _ in range(40):
        members = rng.sample(range(g.n), rng.randint(1, 6))
        a = exact_reach_mask(g, tuple(members))
        rng.shuffle(members)
        b = exact_reach_mask(g, tuple(members))
        assert a == b


def test_monotonicity():
    g = dihedral(4)
    rng = random.Random(23)
    for _ in range(40):
        big = rng.sample(range(g.n), rng.randint(2, 6))
        small = rng.sample(big, rng.randint(1, len(big) - 1))
        assert exact_reach_mask(g, tuple(small)) & ~exact_reach_mask(g, tuple(big)) == 0


def _bits(indices):
    return sum(1 << x for x in indices)


def test_state_search_widest_in_tier1():
    # dihedral(16)'s index-2 dihedral subgroup (even rotations r^2i at 2i,
    # even reflections r^2i s at 16 + 2i) less 0: 15 members, whose closure
    # is the 16-element subgroup, so the search walks all 2^15 subsets
    g = dihedral(16)
    sub = _bits(range(0, g.n, 2))
    assert subgroup_mask(g, sub) == sub and sub.bit_count() == 16
    members = tuple(range(2, g.n, 2))
    assert _state_search(g, members) == (sub, None)
    reached, levels = _state_search(g, members, want_levels=True)
    assert reached == sub
    union = 0
    for lv in levels:
        union |= lv
    assert union == reached
    assert not covers_group(g, members)


@pytest.mark.parametrize("name", [e.name for e in catalog_init() if not e.abelian])
def test_state_search_matches_levels_and_brute_force(name):
    g = catalog_group(name)
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(8):
        members = tuple(rng.sample(range(g.n), rng.randint(1, min(6, g.n - 1))))
        reached, _ = _state_search(g, members)
        _, levels = _state_search(g, members, want_levels=True)
        union = 0
        for lv in levels:
            union |= lv
        assert reached == union == _bits(brute_sigma(g, members))
        for r in range(1, len(members) + 1):
            assert levels[r] == _bits(brute_sigma(g, members, r))


def test_oracle_equivalence_abelian_prefix_vs_search():
    rng = random.Random(29)
    for g in (cyclic(9), cyclic(15), cyclic(24)):
        for _ in range(40):
            members = tuple(sorted(rng.sample(range(g.n), rng.randint(1, 8))))
            dp = fixed_order_reach_mask(g, members)
            searched, _ = _state_search(g, members)
            assert dp == searched


def test_removal_inequality_sampled():
    # |closure(S)| >= |closure(S without y)| + lambda_closure(y)
    rng = random.Random(31)
    for g in (cyclic(9), dihedral(4)):
        for _ in range(60):
            members = tuple(sorted(rng.sample(range(1, g.n), rng.randint(2, 6))))
            y = rng.choice(members)
            b = exact_reach_mask(g, members)
            rest = exact_reach_mask(g, tuple(m for m in members if m != y))
            lam = (g.translate(b, y) & ~b).bit_count()
            assert b.bit_count() >= rest.bit_count() + lam


def test_capacity_error(monkeypatch):
    g = heisenberg(3)
    with pytest.raises(CapacityError):
        sigma(g, g.subset(range(1, 27)), want_by_cardinality=True)
    monkeypatch.setattr(sumsets, "MASK_LIMIT", 4)
    with pytest.raises(CapacityError):
        sigma(g, g.subset([1, 2, 3, 4, 5]), want_by_cardinality=True)
    monkeypatch.undo()
    # dense non-abelian sets without the by-cardinality request take the
    # fixed-order shortcut and never hit the mask limit
    assert sigma(g, g.subset(range(1, 27))).full.bits == g.full_mask


def test_alt_orders_accept_elements_above_255():
    # members above 255 take more than one byte in the shuffle seed
    assert not covers_group(dihedral(150), [1, 2, 280])


def test_alt_orders_seed_unchanged_below_256():
    members = (3, 17, 128, 200, 255)
    rng = random.Random(zlib.crc32(bytes(members)))
    expected = [list(reversed(members))]
    for _ in range(4):
        order = list(members)
        rng.shuffle(order)
        expected.append(order)
    assert _alt_orders(members) == expected


@pytest.mark.parametrize("name", ["D3", "D4", "Dic2", "D5", "A4"])
def test_no_order_of_a_small_set_covers(name):
    # one order of k elements has 2^k - 1 nonempty subsequences, so at the
    # largest k with 2^k <= n no order of any k-subset reaches all n elements
    g = catalog_group(name)
    k = g.n.bit_length() - 1
    for members in combinations(range(g.n), k):
        for order in permutations(members):
            assert fixed_order_reach_mask(g, order) != g.full_mask


@pytest.mark.parametrize(
    "group, members", [(dihedral(3), [1, 3, 5]), (dihedral(4), [3, 4, 5, 6])]
)
def test_probe_covers_at_the_smallest_size_it_can(group, members):
    # 2^k > n >= 2^(k-1): the input order falls short and a reordering covers,
    # so the search is skipped (exact False)
    assert 1 << len(members) > group.n >= 1 << (len(members) - 1)
    assert fixed_order_reach_mask(group, members) != group.full_mask
    clo = sigma(group, group.subset(members))
    assert clo.exact is False
    assert len(clo.full) == group.n


def test_no_probe_on_a_set_too_small_to_cover(monkeypatch):
    g = dihedral(4)
    members = [1, 4, 5]
    assert fixed_order_reach_mask(g, members) != g.full_mask
    calls = []
    monkeypatch.setattr(sumsets, "_alt_orders", lambda m: calls.append(m) or _alt_orders(m))
    clo = sigma(g, g.subset(members))
    assert calls == []
    assert clo.exact is True
    assert set(clo.full) == brute_sigma(g, members)


def test_closure_routes_match_brute_force_on_nonabelian_catalog_groups():
    rng = random.Random(43)
    routes = set()
    for entry in catalog_init():
        if entry.abelian:
            continue
        g = catalog_group(entry.name)
        for _ in range(10):
            members = sorted(rng.sample(range(1, g.n), rng.randint(1, min(6, g.n - 1))))
            s = g.subset(members)
            levels = {r: brute_sigma(g, members, r) for r in range(1, len(members) + 1)}
            want = set().union(*levels.values())
            covers = len(want) == g.n
            clo = sigma(g, s)
            routes.add((covers, clo.exact))
            assert set(clo.full) == want
            assert exact_reach_mask(g, members) == g.subset(want).bits
            assert covers_group(g, members) == covers
            by_card = sigma(g, s, want_by_cardinality=True).by_cardinality
            for r, level in levels.items():
                assert set(by_card[r]) == level
                assert set(sigma_r(g, s, r)) == level
    # both the walk-settled and the searched routes were taken
    assert {(True, False), (False, True)} <= routes


# k^b = 1 mod a with k != 1, so semidirect_cyclic(a, b, k) is non-abelian, of order ab <= 18
SEMIDIRECT = [
    (a, b, k)
    for a in range(3, 10)
    for b in range(2, 18 // a + 1)
    for k in range(2, a)
    if math.gcd(k, a) == 1 and pow(k, b, a) == 1
]


@st.composite
def nonabelian_groups(draw):
    """Non-abelian groups of order <= 18 from the constructors, not from the catalog."""
    kind = draw(st.sampled_from(["semidirect", "dihedral", "dicyclic", "product"]))
    if kind == "dihedral":
        return dihedral(draw(st.integers(3, 9)))
    if kind == "dicyclic":
        return dicyclic(draw(st.integers(2, 4)))
    if kind == "semidirect":
        return semidirect_cyclic(*draw(st.sampled_from(SEMIDIRECT)))
    left = draw(st.sampled_from([cyclic(2), cyclic(3)]))
    return direct_product(left, draw(st.sampled_from([dihedral(3), dihedral(4), dicyclic(2)])))


@given(data=st.data())
def test_nonabelian_closure_matches_brute_force(data):
    g = data.draw(nonabelian_groups())
    assert not g.is_abelian
    members = data.draw(
        st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6, unique=True), label="set"
    )
    s = g.subset(members)
    levels = {r: brute_sigma(g, members, r) for r in range(1, len(members) + 1)}
    assert set(sigma(g, s).full) == set().union(*levels.values())
    by_card = sigma(g, s, want_by_cardinality=True).by_cardinality
    assert {r: set(level) for r, level in by_card.items()} == levels
