"""Subset-sum closures checked against permutation brute force."""

import random
import zlib
from itertools import permutations

import pytest

from critnum.catalog import catalog_group, catalog_init
from critnum.groups import ElementSet, cyclic, dihedral, dicyclic, heisenberg
from critnum.sumsets import (
    CapacityError,
    _alt_orders,
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


def test_oracle_equivalence_abelian_prefix_vs_search():
    from critnum.sumsets import _state_search

    rng = random.Random(29)
    for g in (cyclic(9), cyclic(15), cyclic(24)):
        for _ in range(40):
            members = tuple(sorted(rng.sample(range(g.n), rng.randint(1, 8))))
            dp = fixed_order_reach_mask(g, members)
            searched, _ = _state_search(g.op, g.n, g.full_mask, members, 24)
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


def test_capacity_error():
    g = heisenberg(3)
    with pytest.raises(CapacityError):
        sigma(g, g.subset(range(1, 27)), want_by_cardinality=True)
    with pytest.raises(CapacityError):
        sigma(g, g.subset([1, 2, 3, 4, 5]), want_by_cardinality=True, mask_limit=4)
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
