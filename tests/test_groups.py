"""Group construction, validation, and subgroup machinery."""

import hashlib
import math
import random
from itertools import combinations, product

import pytest

from critnum.catalog import CATALOG_DESCRIPTORS, catalog_group, resolve_group
from critnum.groups import (
    CHUNK_BITS,
    ElementSet,
    GroupValidationError,
    SubgroupInfo,
    _all_subgroup_masks,
    alternating,
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
    normal_subgroups_of_prime_index,
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


# SHA-256 of `save_cayley`: every witness, count and cached record is in
# element indices, so each constructor's numbering must never move
TABLE_SHA256 = {
    "Z4": "393c40fcb015b35ffadc1121564da7cc23df7b96289331c1a44231dde3fc8a09",
    "Z6": "07da674643299c01bea67c2e76605ebc2cc2de71463ed97ade3a599e40cf8384",
    "D3": "3a797f126f5505fefc69c2306b38f7aefc0c1b92fbb6be7724b1cd40aae18a5a",
    "Z8": "dede8d96d970abdbd27e1c05bcb5033e7b55740df88ca56fb70778249a0a2f90",
    "D4": "964d604c112f229e4c68360d347b66d5b05983c821d0a890cd994ce894943fb9",
    "Dic2": "5ba130938d95232f1fdf69b3dfb0ee222111aa010c42118de91805ebba577e01",
    "Z9": "616d2e4cb9f5483755ca257119a501671730fa4616c11d86a78ec7e8623230fa",
    "Z3xZ3": "71bed087fa8cf58bda2001320a8d5f8f746c591256dc57ae06783ee0e827d74e",
    "Z10": "284148051fb8aa85ff8c17df8634883b54a066af086e8aabb52037196fa31f28",
    "D5": "51a22d0881875b3de1c606ad70c0b520783960865c327e6546f908c80178ebe6",
    "D6": "9cc21e131f365854b9f9359d2d27b6118b5fd772c41258c64d0befba7d7d9bf0",
    "Dic3": "f956417938910b1102b31ca604ed995b93df6c4beb2cac8cf3a8e3342619a54e",
    "Z2xD3": "7447a0f5ffdf757f524c4ed11d76a5dc873eddde63ff3a12c7a3ad4b82fe43ce",
    "A4": "b2d2316d43b30c26ddad835c3ab21fbb86809d9b34ffd166335935b85f9ee26d",
    "D7": "d55c18619235cbd802619e8cbafa5ce266f8a6ca9f152cef50ec38c4be5188ff",
    "Z15": "eaa5712e67c6c1c944f3a7a24450126cc2fae12cc7be438b755c16cc85a82d35",
    "D8": "2c29df8245bc7d5bb886d5f5121695106d426d55c2de6fd5b04993323cb00347",
    "Dic4": "5a7a2ffc02484bf38746acec18963ed17961f1a7423c2664d4511bf23b6e815b",
    "Z2xD4": "116ae388c872a3a09ff09c773cd454a6e475ea69f9686019dd9f9dcf34d9c8fa",
    "SD16": "a05b25f3b9f323b995fe2ce10974643a158a6e33ac3ce7c51b929fc4781c9865",
    "M16": "5ed50dfb161b98c70cd92b521035e09230b46b7736e7c7024fcd0af65f95b5eb",
    "Z21": "3c66316a7405578f22173c36dc29f22961dc2720ccad5584734da27810db2921",
    "Z7:Z3": "bff0551c0519d9a4ca647d8f1130983a2f802cb301575eabf988f609c70eeb0a",
    "Z25": "86f2ca41501abfb34cfcd7be34b2abb68a0a7ba8f0cb04fac945bf6bcba9bda4",
    "Z27": "a3b253edc3a7f65ee4e183122f70bd61e8579ba031277f96ce1150d7c56f81c3",
    "Z9xZ3": "d69fa87449d2cdcb8c0151984ad76c3d2c1e1679a55cf60ff818596a7fe5c048",
    "Z3xZ3xZ3": "9b4a12cf26f43365b67d6d39513bea460091b97be8f96efdaea4b1143b6c2112",
    "H27": "17e9c0ce18e80ff12f7d84629cea47980825aa211e1f8dd9c55d1c88cd1968e4",
    "Z9:Z3": "cc1d587e826968513075a645c37faad71e1d7a4a5aa81c7e9620d47bc2690bb3",
    "Z45": "df719ecd72b4ae295c99a584d7c1b83634fc8430286e695a43bb4c30bad29f6c",
    # the groups of the slow exact-cr pins
    "cyclic(39)": "31616d7661ba1cd0ed56df40faafae33a52d627cc6333a53e1dfd9fac6e0f226",
    "cyclic(49)": "fb8cc65362f7e36fdea65754c5f8dc5172283e4156de1c9e77a0e5dacee2ac16",
    "direct_product(cyclic(7),cyclic(7))":
        "55877c9e3c82583106d6f4652ba5fa29e21019f9c8bb58e4bc611973ab0135b2",
    "dihedral(26)": "064f68dfc6fe19065cfc383c73432c1a60649b6cec99e3a51819d6c4b74d1fa5",
    "dicyclic(13)": "62b8716d6bef5cad68b9c2f93e34fa6ee300784358d0610d3c64688770b11b5a",
    "semidirect_cyclic(13,3,3)":
        "5e0e81feb0256043f638c2eeefd4f504e69a64a1c0e3bebe0f8ef003d5941117",
}


def test_table_pins_cover_the_catalog():
    assert {name for name, _ in CATALOG_DESCRIPTORS} <= set(TABLE_SHA256)


@pytest.mark.parametrize("group", list(TABLE_SHA256))
def test_table_numbering_is_pinned(group):
    text = save_cayley(resolve_group(group))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[group]


A4_CAYLEY = """\
# name: A4
12
labels: 0123 0231 0312 1032 1203 1320 2013 2130 2301 3021 3102 3210
0 1 2 3 4 5 6 7 8 9 10 11
1 2 0 6 8 7 9 11 10 3 4 5
2 0 1 9 10 11 3 5 4 6 8 7
3 5 4 0 2 1 10 9 11 7 6 8
4 3 5 7 6 8 0 1 2 10 11 9
5 4 3 10 11 9 7 8 6 0 2 1
6 7 8 1 0 2 4 3 5 11 9 10
7 8 6 4 5 3 11 10 9 1 0 2
8 6 7 11 9 10 1 2 0 4 5 3
9 11 10 2 1 0 8 6 7 5 3 4
10 9 11 5 3 4 2 0 1 8 7 6
11 10 9 8 7 6 5 4 3 2 1 0
"""


def test_alternating4_is_the_a4_table():
    assert save_cayley(alternating(4)) == A4_CAYLEY


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_alternating_order(n):
    g = alternating(n)
    assert g.n == max(1, math.factorial(n) // 2)
    assert_group_axioms(g)
    assert g.is_abelian == (n <= 3)


def test_alternating_rejects_degree_zero():
    with pytest.raises(ValueError, match="degree"):
        make_group("alternating(0)")


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


def _upper_central_series_reaches_g(g):
    """Reference nilpotency test: quotient by the centre until nothing is left."""
    while g.n > 1:
        z = center(g)
        if len(z) == 1:
            return False
        g, _ = quotient(g, SubgroupInfo(z, True, g.n // len(z)))
    return True


def _constructor_groups():
    """177 constructor groups of order at most 64, 76 of them nilpotent."""
    descs = [f"cyclic({n})" for n in range(1, 21)]
    descs += [f"dihedral({m})" for m in range(1, 21)]
    descs += [f"dicyclic({m})" for m in range(1, 11)]
    descs += [
        f"semidirect_cyclic({a},{b},{k})"
        for a in range(3, 22)
        for b in range(2, 7)
        for k in range(2, a)
        if a * b <= 64 and math.gcd(k, a) == 1 and pow(k, b, a) == 1
    ]
    small = ["cyclic(2)", "cyclic(3)", "cyclic(4)", "dihedral(3)", "dihedral(4)", "dicyclic(2)"]
    descs += [f"direct_product({a},{b})" for i, a in enumerate(small) for b in small[i:]]
    descs += ["heisenberg(3)", "alternating(4)", "direct_product(alternating(4),cyclic(2))"]
    return [make_group(d) for d in descs]


def test_nilpotency_matches_the_upper_central_series():
    # elements of coprime order commute exactly when the upper central series
    # reaches G: on every catalog group and 177 constructor groups
    groups = [catalog_group(name) for name, _ in CATALOG_DESCRIPTORS] + _constructor_groups()
    assert len(groups) >= 170
    got = [is_nilpotent(g) for g in groups]
    assert got == [_upper_central_series_reaches_g(g) for g in groups]
    assert 0 < sum(got) < len(got)


def _lattice_groups():
    """Constructor groups of order at most 64 whose full subgroup list takes about a second."""
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    return [
        direct_product(dihedral(4), dihedral(4)),
        direct_product(c2, direct_product(c2, direct_product(c2, direct_product(c2, c2)))),
        direct_product(c2, direct_product(c2, dihedral(4))),
        direct_product(dicyclic(2), dicyclic(2)),
        direct_product(cyclic(8), cyclic(8)),
        direct_product(c4, direct_product(c4, c2)),
        direct_product(c2, dicyclic(4)),
        direct_product(c2, heisenberg(3)),
        direct_product(alternating(4), c3),
        direct_product(dihedral(3), dihedral(3)),
        direct_product(cyclic(7), cyclic(7)),
        dicyclic(13),
        dicyclic(15),
        dicyclic(8),
        dihedral(16),
        dihedral(20),
        dihedral(26),
        dihedral(32),
        cyclic(33),
        cyclic(64),
        semidirect_cyclic(19, 3, 7),
        semidirect_cyclic(16, 2, 7),
        semidirect_cyclic(7, 6, 3),
        semidirect_cyclic(11, 5, 3),
    ]


def test_prime_index_kernels_are_the_normal_subgroups_of_that_index():
    # the kernels of the maps onto Z_p are exactly the normal members of the
    # full subgroup list of index p, in the same order, for every prime p
    groups = [catalog_group(name) for name, _ in CATALOG_DESCRIPTORS] + _lattice_groups()
    for g in groups:
        for p in prime_divisors(g.n):
            want = [s for s in subgroups_of_index(g, p) if s.is_normal]
            assert normal_subgroups_of_prime_index(g, p) == want, (g.name, p)


def test_prime_index_kernels_of_elementary_abelian_groups():
    # Z_p^r has (p^r - 1)/(p - 1) hyperplanes; an index that is not a prime
    # divisor has none
    z2 = cyclic(2)
    for _ in range(6):
        z2 = direct_product(z2, cyclic(2))
    kernels = normal_subgroups_of_prime_index(z2, 2)
    assert len(kernels) == 127 and all(len(k.carrier) == 64 for k in kernels)
    assert [k.carrier.bits for k in kernels] == sorted(k.carrier.bits for k in kernels)
    assert len(normal_subgroups_of_prime_index(direct_product(cyclic(5), cyclic(5)), 5)) == 6
    assert normal_subgroups_of_prime_index(cyclic(9), 2) == []
    assert normal_subgroups_of_prime_index(alternating(4), 2) == []
    with pytest.raises(ValueError):
        normal_subgroups_of_prime_index(cyclic(8), 4)


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


def element_order(g, x):
    k, y = 1, x
    while y:
        y = g.op[y][x]
        k += 1
    return k


@pytest.mark.parametrize("name", [name for name, _ in CATALOG_DESCRIPTORS])
def test_element_orders_are_the_sizes_of_the_cyclic_subgroups(name):
    g = catalog_group(name)
    assert g.element_orders == tuple(subgroup_mask(g, 1 << x).bit_count() for x in range(g.n))


def test_orbit_representatives_of_order27_groups():
    def reps(g):
        return {x for x in range(1, g.n) if g.orbit_min[x] == x}

    # unit multiples of Z27 keep the order: one orbit per order 27, 9, 3
    assert reps(cyclic(27)) == {1, 3, 9}
    # the centre {1, 2} is one inverse pair; each other conjugacy class
    # (fixed (a, b), all c) joins the class of (-a, -b)
    assert reps(heisenberg(3)) == {1, 3, 9, 12, 15}
    # exponent 3: the only units are +1 and -1, so the orbits are the 13
    # inverse pairs
    g = catalog_group("Z3xZ3xZ3")
    assert len(reps(g)) == 13
    assert all(g.orbit_min[x] == min(x, g.inv[x]) for x in range(g.n))


def test_scan_order_of_z9_puts_the_units_first():
    # the units of Z9 are one orbit of six, {3, 6} an orbit of two
    assert cyclic(9).scan_order == (0, 1, 2, 4, 5, 7, 8, 3, 6)


@pytest.mark.parametrize("name", [name for name, _ in CATALOG_DESCRIPTORS])
def test_scan_order_lists_orbit_blocks_largest_first(name):
    g = catalog_group(name)
    order = g.scan_order
    assert order[0] == 0 and sorted(order) == list(range(g.n))
    heads = [p for p in range(1, g.n) if g.orbit_min[order[p]] == order[p]]
    blocks = [order[p:q] for p, q in zip(heads, heads[1:] + [g.n])]
    for block in blocks:
        assert list(block) == [x for x in range(g.n) if g.orbit_min[x] == block[0]]
    keys = [(-len(block), block[0]) for block in blocks]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", [name for name, _ in CATALOG_DESCRIPTORS])
def test_symmetry_maps_preserve_sums_and_orbits_preserve_order(name):
    g = catalog_group(name)
    n, op = g.n, g.op
    orbit_min = g.orbit_min
    assert orbit_min[0] == 0
    for x in range(n):
        assert orbit_min[x] <= x and orbit_min[orbit_min[x]] == orbit_min[x]
        assert element_order(g, x) == element_order(g, orbit_min[x])
    maps = g.symmetries
    # a group of maps, identity first, each listed once, inversion among them
    assert maps[0] == tuple(range(n)) and g.inv in maps
    assert len(set(maps)) == len(maps) <= 2 * n
    assert {tuple(phi[x] for x in psi) for phi in maps for psi in maps} == set(maps)
    for phi in maps:
        assert sorted(phi) == list(range(n))
        assert all(orbit_min[phi[x]] == orbit_min[x] for x in range(n))
        for a in range(n):
            for b in range(n):
                assert phi[op[a][b]] in (op[phi[a]][phi[b]], op[phi[b]][phi[a]])
    assert orbit_min == tuple(min(phi[x] for phi in maps) for x in range(n))
