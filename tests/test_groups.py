"""Group construction, validation, and subgroup machinery."""

import random
from itertools import combinations, product

import pytest

from critnum.catalog import CATALOG_DESCRIPTORS, catalog_group
from critnum.groups import (
    CHUNK_BITS,
    ElementSet,
    GroupValidationError,
    _all_subgroup_masks,
    center,
    chunked_translation_tables,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    is_nilpotent,
    is_prime,
    load_cayley,
    make_group,
    prime_divisors,
    quotient,
    save_cayley,
    semidirect_cyclic,
    smallest_prime_divisor,
    subgroup_closure,
    subgroup_mask,
    subgroups_of_index,
)


def assert_group_axioms(g):
    n = g.n
    assert all(g.op[0][x] == x and g.op[x][0] == x for x in range(n))
    for row in g.op:
        assert sorted(row) == list(range(n))
    for j in range(n):
        assert sorted(g.op[i][j] for i in range(n)) == list(range(n))
    for a in range(n):
        assert g.op[a][g.inv[a]] == 0 and g.op[g.inv[a]][a] == 0


def test_cyclic_defining_formula():
    g = cyclic(5)
    for i in range(5):
        for j in range(5):
            assert g.op[i][j] == (i + j) % 5


def test_dihedral3_is_nonabelian_order_6():
    g = dihedral(3)
    assert g.n == 6
    assert not g.is_abelian
    assert_group_axioms(g)


def test_semidirect_9_3_4_nonabelian_order_27():
    g = semidirect_cyclic(9, 3, 4)
    assert g.n == 27
    found_noncommuting = any(
        g.op[a][b] != g.op[b][a] for a in range(27) for b in range(27)
    )
    assert found_noncommuting
    assert_group_axioms(g)


def test_heisenberg_order_and_exponent():
    g = heisenberg(3)
    assert g.n == 27
    assert not g.is_abelian
    for x in range(g.n):
        assert g.op[g.op[x][x]][x] == 0  # exponent 3


def test_dicyclic2_is_quaternion_like():
    g = dicyclic(2)
    assert g.n == 8
    assert not g.is_abelian
    # exactly one element of order 2
    assert sum(1 for x in range(1, 8) if g.op[x][x] == 0) == 1


def test_constructor_parameter_errors():
    with pytest.raises(ValueError):
        semidirect_cyclic(9, 3, 2)  # 2^3 = 8 is not 1 mod 9
    with pytest.raises(ValueError):
        semidirect_cyclic(9, 3, 3)  # gcd(3, 9) > 1
    with pytest.raises(ValueError):
        dihedral(0)
    with pytest.raises(ValueError):
        dicyclic(0)
    with pytest.raises(ValueError):
        heisenberg(4)
    with pytest.raises(ValueError):
        heisenberg(2)


def test_make_group_descriptors():
    assert make_group("cyclic(5)").name == "Z5"
    assert make_group("dihedral(7)").name == "D7"
    assert make_group("direct_product(cyclic(9),cyclic(3))").n == 27
    nested = make_group("direct_product(cyclic(3),direct_product(cyclic(3),cyclic(3)))")
    assert nested.n == 27 and nested.is_abelian
    with pytest.raises(ValueError):
        make_group("frobnicate(3)")
    with pytest.raises(ValueError):
        make_group("cyclic(x)")


def test_associativity_exhaustive_spot():
    for g in (dihedral(4), semidirect_cyclic(7, 3, 2)):
        n = g.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert g.op[g.op[a][b]][c] == g.op[a][g.op[b][c]]


def test_direct_product_abelian_iff_both():
    assert direct_product(cyclic(2), cyclic(3)).is_abelian
    assert not direct_product(cyclic(2), dihedral(3)).is_abelian
    assert not direct_product(dihedral(3), cyclic(2)).is_abelian


# ---------------------------------------------------------------------------
# Cayley text format


def test_save_load_round_trip():
    for g in (cyclic(3), dihedral(4), heisenberg(3)):
        assert load_cayley(save_cayley(g)) == g


def test_load_rejects_missing_inverse():
    text = "2\n0 1\n1 1\n"
    with pytest.raises(GroupValidationError, match="identity/inverse axiom violated"):
        load_cayley(text)


def test_load_rejects_no_identity():
    text = "2\n1 1\n1 1\n"  # constant table: no two-sided identity anywhere
    with pytest.raises(GroupValidationError, match="identity"):
        load_cayley(text)


def test_load_accepts_identity_elsewhere():
    # identity at index 1: the loader must re-index rather than reject
    g = load_cayley("2\n1 0\n0 1\n")
    assert g.op == ((0, 1), (1, 0))
    assert g.reindex == (1, 0)


def test_load_reindexes_shifted_identity():
    g = cyclic(4)
    perm = [2, 0, 3, 1]  # old index -> position in new file
    pos = [0] * 4
    for new, old in enumerate(perm):
        pos[old] = new
    rows = [[pos[g.op[perm[i]][perm[j]]] for j in range(4)] for i in range(4)]
    text = "4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
    loaded = load_cayley(text)
    assert loaded.op[0] == (0, 1, 2, 3)
    assert_group_axioms(loaded)
    assert loaded.reindex is not None
    assert "# reindexed:" in save_cayley(loaded)
    # still the cyclic group of order 4: element orders survive re-indexing
    orders = []
    for x in range(4):
        k, y = 1, x
        while y != 0:
            y = loaded.op[y][x]
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 4, 4]


def test_load_broken_associativity_names_witness_triple():
    g = dihedral(4)
    rows = [list(r) for r in g.op]
    rows[1][1] = (rows[1][1] + 1) % 8 if (rows[1][1] + 1) % 8 != 1 else 2
    text = "8\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
    with pytest.raises(GroupValidationError, match=r"associativity violated at triple \(\d+, \d+, \d+\)"):
        load_cayley(text)


def test_load_parses_comments_and_labels():
    text = "# a comment\n# name: mygroup\n3\nlabels: e a b\n0 1 2\n1 2 0\n2 0 1\n"
    g = load_cayley(text)
    assert g.name == "mygroup"
    assert g.labels == ("e", "a", "b")


# ---------------------------------------------------------------------------
# subgroups, quotients, nilpotency


def test_subgroup_closure_empty_gives_trivial():
    g = cyclic(9)
    info = subgroup_closure(g, ElementSet(g, 0))
    assert info.carrier.indices() == (0,)
    assert info.index == 9


def test_subgroup_closure_cyclic_example():
    g = cyclic(9)
    info = subgroup_closure(g, g.subset([3]))
    assert info.carrier.indices() == (0, 3, 6)
    assert info.index == 3
    assert info.is_normal


def test_subgroup_closure_reflection_not_normal():
    g = dihedral(3)
    info = subgroup_closure(g, g.subset([3]))  # one reflection
    assert len(info.carrier) == 2
    assert info.index == 3
    assert not info.is_normal


def test_subgroup_closure_idempotent():
    g = dihedral(4)
    rng = random.Random(0)
    for _ in range(20):
        gens = g.subset(rng.sample(range(8), rng.randint(0, 3)))
        once = subgroup_closure(g, gens).carrier
        twice = subgroup_closure(g, once).carrier
        assert once == twice


def _oracle_subgroups_of_order(g, size):
    """Independent enumeration: subsets containing 0 that are closed under op."""
    found = []
    for comb in combinations(range(1, g.n), size - 1):
        members = (0,) + comb
        mask = sum(1 << i for i in members)
        ok = all(mask >> g.op[a][b] & 1 for a in members for b in members)
        if ok:
            found.append(members)
    return found


def test_subgroups_of_index_2_dihedral4_against_oracle():
    g = dihedral(4)
    subs = subgroups_of_index(g, 2)
    assert len(subs) == 3
    assert all(s.is_normal for s in subs)
    oracle = _oracle_subgroups_of_order(g, 4)
    assert sorted(s.carrier.indices() for s in subs) == sorted(oracle)


def test_subgroups_of_index_cyclic27():
    subs = subgroups_of_index(cyclic(27), 3)
    assert len(subs) == 1
    assert subs[0].carrier.indices() == tuple(range(0, 27, 3))


def test_index2_subgroups_always_normal():
    for g in (dihedral(5), dicyclic(3), direct_product(cyclic(2), dihedral(3))):
        for s in subgroups_of_index(g, 2):
            assert s.is_normal


def test_subgroups_of_index_rejects_nondivisor():
    with pytest.raises(ValueError):
        subgroups_of_index(cyclic(9), 2)


def test_quotient_cyclic6_by_03():
    g = cyclic(6)
    k = subgroup_closure(g, g.subset([3]))
    q, proj = quotient(g, k)
    assert q.n == 3
    assert proj[0] == 0
    for a in range(6):
        for b in range(6):
            assert proj[g.op[a][b]] == q.op[proj[a]][proj[b]]


def test_quotient_dihedral5_by_rotations():
    g = dihedral(5)
    k = subgroup_closure(g, g.subset([1]))
    q, _ = quotient(g, k)
    assert q.n == 2


def test_quotient_heisenberg_by_center():
    g = heisenberg(3)
    # independent brute-force center
    z = [x for x in range(g.n) if all(g.op[x][y] == g.op[y][x] for y in range(g.n))]
    assert len(z) == 3
    assert center(g).indices() == tuple(z)
    info = subgroup_closure(g, g.subset(z))
    q, _ = quotient(g, info)
    assert q.n == 9
    assert q.is_abelian


def test_quotient_requires_normal():
    g = dihedral(3)
    k = subgroup_closure(g, g.subset([3]))
    with pytest.raises(ValueError):
        quotient(g, k)


def test_nilpotency():
    assert is_nilpotent(cyclic(12))
    assert is_nilpotent(heisenberg(3))
    assert is_nilpotent(semidirect_cyclic(9, 3, 4))
    assert is_nilpotent(dicyclic(2))  # 2-group
    assert not is_nilpotent(dihedral(3))
    assert not is_nilpotent(semidirect_cyclic(7, 3, 2))
    # independent check for D3: trivial center and nonabelian
    g = dihedral(3)
    z = [x for x in range(6) if all(g.op[x][y] == g.op[y][x] for y in range(6))]
    assert z == [0]


def test_smallest_prime_divisor():
    assert smallest_prime_divisor(27) == 3
    assert smallest_prime_divisor(14) == 2
    assert smallest_prime_divisor(35) == 5
    assert smallest_prime_divisor(97) == 97
    with pytest.raises(ValueError):
        smallest_prime_divisor(1)


def test_prime_divisors_and_is_prime_match_trial_division():
    for n in range(1, 400):
        want = [p for p in range(2, n + 1) if n % p == 0 and all(p % f for f in range(2, p))]
        assert prime_divisors(n) == want
        assert is_prime(n) == (want == [n])
    assert prime_divisors(45) == [3, 5]
    assert not is_prime(0) and not is_prime(1)


# ---------------------------------------------------------------------------
# the subgroup closure engine against an independent breadth-first closure

# number of subgroups of each catalog group of order <= 32
SUBGROUP_COUNTS = {
    "Z4": 3, "Z6": 4, "D3": 6, "Z8": 4, "D4": 10, "Dic2": 6, "Z9": 3, "Z3xZ3": 6,
    "Z10": 4, "D5": 8, "D6": 16, "Dic3": 8, "Z2xD3": 16, "A4": 10, "D7": 10, "Z15": 4,
    "D8": 19, "Dic4": 11, "Z2xD4": 35, "SD16": 15, "M16": 11, "Z21": 4, "Z7:Z3": 10,
    "Z25": 3, "Z27": 4, "Z9xZ3": 10, "Z3xZ3xZ3": 28, "H27": 19, "Z9:Z3": 10,
}


def _bfs_subgroup(g, bits):
    """Reference: close {0} and the seed under the group operation, breadth first."""
    members = [0] + [x for x in range(1, g.n) if bits >> x & 1]
    mask = sum(1 << x for x in members)
    head = 0
    while head < len(members):
        a = members[head]
        head += 1
        for b in list(members):
            for c in (g.op[a][b], g.op[b][a]):
                if not mask >> c & 1:
                    mask |= 1 << c
                    members.append(c)
    return mask


def test_subgroup_count_of_every_small_catalog_group():
    small = {name: catalog_group(name) for name, _ in CATALOG_DESCRIPTORS}
    small = {name: g for name, g in small.items() if g.n <= 32}
    assert {name: len(_all_subgroup_masks(g)) for name, g in small.items()} == SUBGROUP_COUNTS


def test_subgroup_mask_matches_breadth_first_closure():
    rng = random.Random(37)
    for name in SUBGROUP_COUNTS:
        g = catalog_group(name)
        seeds = [h | 1 << x for h in _all_subgroup_masks(g) for x in range(g.n)]
        seeds += [rng.getrandbits(g.n) for _ in range(30)]
        for bits in seeds:
            assert subgroup_mask(g, bits) == _bfs_subgroup(g, bits), (name, bits)


def test_shared_translate_tables_equal_unshared_build():
    for name, _ in CATALOG_DESCRIPTORS:
        g = catalog_group(name)
        shared = {}
        for x, per_chunk in enumerate(chunked_translation_tables(g.op, g.n)):
            for c, tab in enumerate(per_chunk):
                base = c * CHUNK_BITS
                want = [0] * len(tab)
                for v in range(1, len(tab)):
                    low = (v & -v).bit_length() - 1
                    want[v] = want[v & (v - 1)] | (1 << g.op[base + low][x])
                assert tab == want, (name, x, c)
                # equal entries are one object
                assert all(shared.setdefault(t, t) is t for t in tab)


# ---------------------------------------------------------------------------
# element sets


def test_element_set_operations_exact():
    g = cyclic(10)
    a = g.subset([1, 2, 3])
    b = g.subset([3, 4])
    assert (a | b).indices() == (1, 2, 3, 4)
    assert (a & b).indices() == (3,)
    assert (a - b).indices() == (1, 2)
    assert a.complement().indices() == (0, 4, 5, 6, 7, 8, 9)
    assert len(a) == 3 and 2 in a and 9 not in a


def test_element_set_validates_range():
    g = cyclic(4)
    with pytest.raises(ValueError):
        g.subset([4])
    with pytest.raises(ValueError):
        ElementSet(g, 1 << 4)


def test_element_set_group_mismatch():
    a = cyclic(4).subset([1])
    b = cyclic(5).subset([1])
    with pytest.raises(ValueError):
        a | b


def test_translate_matches_direct_computation():
    g = dihedral(4)
    rng = random.Random(7)
    for _ in range(50):
        bits = rng.getrandbits(8)
        x = rng.randrange(8)
        want = 0
        for y in range(8):
            if bits >> y & 1:
                want |= 1 << g.op[y][x]
        assert g.translate(bits, x) == want
