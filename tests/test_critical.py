"""Critical-number certificates: exhaustive, formula, witness, sampled."""

import math
import random
import time
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from critnum import critical, groups, sumsets
from critnum.catalog import catalog_group, catalog_init, compute_flags
from critnum.critical import (
    CrCertificate,
    ResolvingSequence,
    cr_exhaustive,
    cr_formula,
    cr_sampled_upper,
    find_nonbases,
    resolving_sequence,
    witness_lower_bound,
)
from critnum.groups import (
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    generating_sequence,
    heisenberg,
    homomorphism,
    make_group,
    semidirect_cyclic,
    smallest_prime_divisor,
    subgroup_closure,
    subgroup_mask,
    subgroups_of_index,
)
from critnum.sumsets import (
    CapacityError,
    covers_group,
    exact_reach_mask,
    fixed_order_reach_mask,
    lambda_bits,
)


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


# every catalog group of order <= 28; the first eight were frozen from the
# brute-force oracle (see also the direct checks below), the rest from the
# exhaustive search in lexicographic order, before the scan took orbit blocks
KNOWN_CR = {
    "Z4": 3, "Z6": 4, "Z9": 5, "D3": 4, "D4": 4, "Dic2": 4, "A4": 5, "Z15": 7,
    "Z8": 5, "Z3xZ3": 5, "Z10": 5, "D5": 5, "D6": 6, "Dic3": 6, "Z2xD3": 6,
    "D7": 7, "D8": 8, "Dic4": 8, "Z2xD4": 8, "SD16": 8, "M16": 8, "Z21": 8,
    "Z7:Z3": 8, "Z25": 9, "Z27": 10, "Z9xZ3": 10, "Z3xZ3xZ3": 10, "H27": 10,
    "Z9:Z3": 10,
}


@pytest.mark.parametrize("name", ["Z4", "Z6", "Z9", "D3"])
def test_cr_exhaustive_matches_brute_force(name):
    g = catalog_group(name)
    assert brute_cr(g) == KNOWN_CR[name]
    cert = cr_exhaustive(g)
    assert cert.value == KNOWN_CR[name]
    assert cert.lower_bound == cert.upper_bound == cert.value
    assert cert.method == "exhaustive"


def test_known_cr_covers_the_catalog_up_to_order_28():
    assert sorted(KNOWN_CR) == sorted(e.name for e in catalog_init() if e.order <= 28)


@pytest.mark.parametrize("name", sorted(KNOWN_CR))
def test_cr_exhaustive_frozen_values(name):
    g = catalog_group(name)
    cert = cr_exhaustive(g)
    assert cert.value == cert.lower_bound == cert.upper_bound == KNOWN_CR[name]
    assert len(cert.witness) == cert.value - 1
    assert exact_reach_mask(g, cert.witness) != g.full_mask


@pytest.mark.parametrize(
    "g,cr,tag",
    [
        pytest.param(dihedral(16), 16, "T1.3ii", id="D16"),
        pytest.param(dicyclic(8), 16, "T1.3ii", id="Dic8"),
        pytest.param(cyclic(33), 12, None, id="Z33"),
        pytest.param(cyclic(35), 11, None, id="Z35"),
        # about 0.3 s each (order 39), 4.5 s (Z49) and 8.5 s (Z7xZ7) on one core
        pytest.param(cyclic(39), 14, None, id="Z39", marks=pytest.mark.slow),
        pytest.param(
            semidirect_cyclic(13, 3, 3), 14, "T1.1iii", id="Z13:Z3", marks=pytest.mark.slow
        ),
        pytest.param(cyclic(49), 13, None, id="Z49", marks=pytest.mark.slow),
        pytest.param(
            direct_product(cyclic(7), cyclic(7)), 12, None, id="Z7xZ7", marks=pytest.mark.slow
        ),
    ],
)
def test_cr_exhaustive_beyond_the_catalog(g, cr, tag):
    cert = cr_exhaustive(g)
    assert cert.value == cert.lower_bound == cert.upper_bound == cr
    assert cert.theorem_tag == tag
    assert len(cert.witness) == cr - 1
    # a witness generating a proper subgroup is a non-basis without a search
    bits = sum(1 << a for a in cert.witness)
    assert subgroup_mask(g, bits) != g.full_mask or not covers_group(g, cert.witness)
    formula = cr_formula(g)
    if tag is None:
        # at order 49 T1.2 does not apply, since it needs n/p composite:
        # cr(Z49) = 13 exceeds n/p + p - 2 = 12
        assert formula is None
    else:
        assert (formula.theorem_tag, formula.value) == (tag, cr)


@pytest.mark.slow
def test_cr_z45_exact_is_16():
    # about 1 s on one core: every size-16 subset of Z45 is certified through
    # the shared translate tables, the scan's memo and its symmetric-prefix
    # skips; run with `pytest -m slow`
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


@pytest.mark.parametrize("name", [e.name for e in catalog_init() if e.order <= 32])
def test_witness_misses_the_whole_inverse_coset(name):
    # the quotient check claims more than a non-basis: the closure, computed
    # here by the exact (exponential) route, misses every element of -x + K
    g = catalog_group(name)
    p = smallest_prime_divisor(g.n)
    subs = [s for s in subgroups_of_index(g, p) if s.is_normal]
    if not subs:
        with pytest.raises(ValueError):
            witness_lower_bound(g)
    for sub in subs:
        cert = witness_lower_bound(g, sub)
        k_bits = sub.carrier.bits
        x = next(i for i in range(g.n) if not k_bits >> i & 1)
        inv_coset = {g.op[g.inv[x]][h] for h in range(g.n) if k_bits >> h & 1}
        reach = exact_reach_mask(g, cert.witness)
        assert not any(reach >> y & 1 for y in inv_coset), (name, cert.witness)


@pytest.mark.parametrize("name", [e.name for e in catalog_init()])
def test_witness_lower_bound_takes_the_first_normal_subgroup(name):
    # every normal index-p subgroup has n/p elements, so each gives the same
    # bound, and the certificate is the one from the first of them: the
    # best of all of them, ties to the first, as when each was tried
    g = catalog_group(name)
    p = smallest_prime_divisor(g.n)
    subs = [s for s in subgroups_of_index(g, p) if s.is_normal]
    if not subs:
        return
    certs = [witness_lower_bound(g, sub) for sub in subs]
    best = max(certs, key=lambda c: c.lower_bound)
    assert len({c.lower_bound for c in certs}) == 1
    got = witness_lower_bound(g)
    assert {**got.to_json(), "elapsed_ms": 0} == {**best.to_json(), "elapsed_ms": 0}


def test_engine_paths_never_list_subgroups(monkeypatch):
    # the formula, the witness, the catalog flags and the exhaustive search
    # read nilpotency and the normal prime-index subgroups off the table
    def refuse(g):
        raise AssertionError(f"listed every subgroup of {g.name}")

    monkeypatch.setattr(groups, "_all_subgroup_masks", refuse)
    for entry in catalog_init():
        if entry.order > 16:
            continue
        g = catalog_group.__wrapped__(entry.name)
        cr_formula(g)
        compute_flags(g)
        if entry.name == "A4":
            with pytest.raises(ValueError, match="no normal subgroup of index 2"):
                witness_lower_bound(g)
        else:
            p = entry.smallest_prime
            assert witness_lower_bound(g).lower_bound == g.n // p + p - 2
        assert cr_exhaustive(g).value == KNOWN_CR[entry.name]


@pytest.mark.parametrize("name", ["D5", "Z9", "Z7:Z3", "H27"])
def test_witness_builds_no_quotient_table(monkeypatch, name):
    # the witness is re-checked on its labels in Z_p, so a prebuilt table
    # needs no table for G/K
    g = catalog_group(name)

    def refuse(*args):
        raise AssertionError("built a group table")

    monkeypatch.setattr(groups, "_table", refuse)
    p = smallest_prime_divisor(g.n)
    assert witness_lower_bound(g).lower_bound == g.n // p + p - 2
    assert cr_exhaustive(g).value == KNOWN_CR[name]


def test_cr_exhaustive_dihedral20_witness_through_quotient():
    # the size-19 witness is checked in G/K, not by a 2^19-state search
    t0 = time.perf_counter()
    cert = cr_exhaustive(dihedral(20))
    assert time.perf_counter() - t0 < 10
    assert cert.value == 20
    assert cert.witness == tuple(range(1, 20))


@pytest.mark.slow
@pytest.mark.parametrize("g", [dihedral(26), dicyclic(13)], ids=["D26", "Dic13"])
def test_cr_order52_exact_is_26(g):
    # the witness has 25 elements, above the complete search's mask width, so
    # it is replayed here as generating a proper subgroup; about 0.2 s (D26)
    # and 1.1 s (Dic13) on one core
    cert = cr_exhaustive(g)
    assert cert.value == cert.lower_bound == cert.upper_bound == 26
    assert cert.theorem_tag == "T1.3ii"
    assert len(cert.witness) == 25
    assert subgroup_closure(g, g.subset(cert.witness)).index == 2


def test_witness_bound_below_exhaustive():
    for name in ("Z4", "Z6", "Z9", "D3", "D4", "Dic2", "Z15"):
        g = catalog_group(name)
        assert witness_lower_bound(g).lower_bound <= cr_exhaustive(g).value


def test_find_nonbases_empty_set_is_nonbasis():
    checked, found, complete = find_nonbases(cyclic(5), 0)
    assert found == ()
    assert complete


def scan_combinations(g, size):
    """The size-`size` subsets of G\\{0} in scan order, each listed in that order."""
    return combinations(g.scan_order[1:], size)


def reference_nonbases(g, size, budget, bases=None):
    """Oracle: every subset in scan order, each checked by covers_group."""
    if bases is None:
        bases = (covers_group(g, c) for c in scan_combinations(g, size))
    total = math.comb(g.n - 1, size)
    cap = total if budget is None else min(total, budget)
    checked = 0
    for comb, ok in islice(zip(scan_combinations(g, size), bases), cap):
        checked += 1
        if not ok:
            return checked, tuple(sorted(comb)), True
    return checked, None, cap >= total


def test_find_nonbases_matches_per_subset_reference():
    for entry in catalog_init():
        if entry.order > 15:
            continue
        g = catalog_group(entry.name)
        for size in range(g.n):
            bases = [covers_group(g, c) for c in scan_combinations(g, size)]
            total = len(bases)
            for budget in (None, 0, 1, 7, total // 3, total - 1):
                got = find_nonbases(g, size, budget=budget)
                want = reference_nonbases(g, size, budget, bases)
                assert got == want, (entry.name, size, budget)


def scan_rank(g, members):
    """How many subsets of the same size come before `members` in scan order."""
    where = {a: p for p, a in enumerate(g.scan_order)}
    k, rank, prev = len(members), 0, 0
    for i, p in enumerate(sorted(where[a] for a in members), start=1):
        rank += sum(math.comb(g.n - 1 - q, k - i) for q in range(prev + 1, p))
        prev = p
    return rank


def test_undecided_leaf_ends_the_scan_incomplete():
    # the first short leaf in scan order is the index-2 dihedral subgroup on
    # the even rotations and reflections, less 0: a non-basis that no walk
    # order covers, wider than the complete search takes.  Every subset
    # before it is certified, and the scan stops there uncounted.
    g = dihedral(26)
    leaf = tuple(range(2, 52, 2))
    assert subgroup_mask(g, sum(1 << a for a in leaf)).bit_count() == 26
    with pytest.raises(CapacityError):
        covers_group(g, leaf)
    assert find_nonbases(g, 25, budget=1) == (1, None, False)
    assert scan_rank(g, leaf) == 2706402635
    assert find_nonbases(g, 25) == (2706402635, None, False)


def test_undecided_leaf_leaves_cr_exhaustive_partial(monkeypatch):
    # with the search narrowed to 3 members, A4's first non-basis of size 4
    # cannot be decided, so only the size-3 non-basis bounds cr
    monkeypatch.setattr(sumsets, "MASK_LIMIT", 3)
    cert = cr_exhaustive(catalog_group("A4"))
    assert cert.value is None
    assert (cert.lower_bound, cert.upper_bound) == (4, 12)
    assert len(cert.witness) == 3 and "undecided" in cert.notes


def canonical_prefix(g, positions):
    """True when no skip map sends these scan positions to an earlier set of positions."""
    key = sorted(positions)
    return all(sorted(perm[p] for p in positions) >= key for perm in critical._skips(g)[0])


def live_map_count(g, prefix):
    """Skip maps that can still send a set with this canonical prefix (sorted scan positions) earlier.

    A map that fixes the prefix as a set is live when it sends a later
    position below itself; any other map has its lowest moved position m
    in the prefix, and is live when it sends a later position to m or below.
    """
    count = 0
    later = range(prefix[-1] + 1 if prefix else 1, g.n)
    for perm in critical._skips(g)[0]:
        image = sorted(perm[p] for p in prefix)
        moved = [p for p, v in zip(prefix, image) if p != v]
        if moved:
            count += any(perm[q] <= moved[0] for q in later)
        else:
            count += any(perm[q] < q for q in later)
    return count


def skipped_by_a_tested_prefix(g, size, positions):
    """True when a prefix of these sorted scan positions is tested and goes earlier.

    The children of the empty prefix are tested when there are skip maps;
    the children of a tested canonical prefix ending at q, with k elements
    to append after it, are tested when it has at least one live map and
    no more than C(n - 1 - q, k).
    """
    tested = 0 < len(critical._skips(g)[0]) <= math.comb(g.n - 1, size)
    for j in range(1, size + 1):
        if not tested:
            return False
        prefix = positions[:j]
        if not canonical_prefix(g, prefix):
            return True
        live = live_map_count(g, prefix)
        tested = 0 < live <= math.comb(g.n - 1 - prefix[-1], size - j)
    return False


def escalation_oracle(g, size):
    """The leaves a scan escalates, in scan order, up to its first non-basis.

    They are the leaves whose walk falls short and that no tested prefix
    sends earlier: pruning and the memo certify only subtrees whose every
    leaf walks to the whole group.
    """
    where = {a: p for p, a in enumerate(g.scan_order)}
    want = []
    for comb in scan_combinations(g, size):
        if fixed_order_reach_mask(g, comb) == g.full_mask:
            continue
        if skipped_by_a_tested_prefix(g, size, [where[a] for a in comb]):
            continue
        want.append(tuple(sorted(comb)))
        if not covers_group(g, comb):
            break
    return want


def element_maps(g):
    """The skip maps of a table as maps of elements: `phi[order[q]] == order[perm[q]]`."""
    order = g.scan_order
    out = []
    for perm in critical._skip_maps(g):
        phi = [0] * g.n
        for q, p in enumerate(perm):
            phi[order[q]] = order[p]
        out.append(tuple(phi))
    return out


def is_automorphism(g, phi, anti=False):
    op = g.op
    for a in range(g.n):
        row, image = op[a], phi[a]
        if anti:
            if any(phi[row[b]] != op[phi[b]][image] for b in range(g.n)):
                return False
        elif any(phi[row[b]] != op[image][phi[b]] for b in range(g.n)):
            return False
    return True


def brute_force_skip_set(g):
    """{phi, inversion after phi : phi in Aut(G)} less the identity, as element tuples.

    Every choice of images of a generating sequence is tried.
    """
    gens = generating_sequence(g)
    autos = set()
    for images in product(range(g.n), repeat=len(gens)):
        phi = homomorphism(g, gens, images, g.op)
        if phi is not None and sorted(phi) == list(range(g.n)):
            autos.add(tuple(phi))
    return (autos | {tuple(g.inv[v] for v in phi) for phi in autos}) - {tuple(range(g.n))}


@pytest.mark.parametrize("name", [e.name for e in catalog_init()])
def test_symmetry_masks_are_the_symmetries_as_maps_of_scan_positions(name):
    # each skip map is a permutation of the positions that fixes 0, and no
    # map is listed twice.  As maps of elements (the element at position q
    # goes to the element at position perm[q]) they are the automorphisms,
    # alone and followed by inversion, but the identity; a set that large
    # or larger is cut at the limit
    g = catalog_group(name)
    maps = critical._skip_maps(g)
    assert len(set(maps)) == len(maps)
    for perm in maps:
        assert sorted(perm) == list(range(g.n)) and perm[0] == 0
    want = brute_force_skip_set(g)
    if len(want) + 1 < critical._MAP_LIMIT:
        assert set(element_maps(g)) == want
    else:
        assert len(maps) + 1 == critical._MAP_LIMIT and set(element_maps(g)) <= want


@pytest.mark.parametrize("name", [e.name for e in catalog_init()])
def test_skip_maps_are_automorphisms_and_anti_automorphisms(name):
    # on elements, each skip map keeps or reverses every product of the table
    g = catalog_group(name)
    for phi in element_maps(g):
        assert is_automorphism(g, phi) or is_automorphism(g, phi, anti=True)


def closed(maps):
    """True when a set of position maps, the identity added, is closed under composition."""
    group = set(maps) | {bytes(range(len(maps[0])))}
    return all({b.translate(a + bytes(256 - len(a))) for b in group} == group for a in group)


@pytest.mark.parametrize(
    "g,size",
    [
        (catalog_group("Z9xZ3"), 108),  # |Aut(Z9 x Z3)|; inversion is one of them
        (catalog_group("Z9:Z3"), 108),  # |Aut(Z9:Z3)| = 54, with and without inversion
        (catalog_group("H27"), 864),  # |Aut(H27)| = 432, with and without inversion
        (direct_product(cyclic(7), cyclic(7)), 2016),  # |GL(2, 7)|
        *((cyclic(n), sum(math.gcd(k, n) == 1 for k in range(n))) for n in (2, 9, 27, 45, 64)),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_skip_maps_below_the_limit_are_the_whole_closed_set(g, size):
    maps = critical._skip_maps(g)
    assert len(maps) + 1 == size < critical._MAP_LIMIT
    assert maps == [] or closed(maps)


def test_skip_maps_stop_at_the_limit():
    # Aut(Z3 x Z3 x Z3) = GL(3, 3) has 11,232 maps and Aut(Z2^5) 9,999,360:
    # both are cut at the limit, to distinct maps that each keep or reverse
    # every product
    z2 = cyclic(2)
    for g in (catalog_group("Z3xZ3xZ3"), direct_product(z2, direct_product(z2, direct_product(z2, direct_product(z2, z2))))):
        maps = element_maps(g)
        assert len(set(maps)) == len(maps) == critical._MAP_LIMIT - 1
        assert all(is_automorphism(g, phi) or is_automorphism(g, phi, anti=True) for phi in maps)


def test_skips_are_kept_per_table_identity():
    # an equal table built apart has an entry of its own, and an entry goes
    # with its table
    g = catalog_group("Z9")
    h = catalog_group.__wrapped__("Z9")
    assert h == g and critical._skips(h) is not critical._skips(g)
    assert critical._skips(h)[0] == critical._skips(g)[0]
    key = id(h)
    del h
    assert key not in critical._SKIPS


def without_symmetries(name, scan_order=None):
    """A fresh table whose orbits are single elements, with no skip map, so nothing is skipped."""
    h = fresh_table(name)
    h.__dict__["orbit_min"] = tuple(range(h.n))
    if scan_order is not None:
        h.__dict__["scan_order"] = scan_order
    critical._skips(h)
    critical._SKIPS[id(h)] = critical._skip_tables([], h.n)
    return h


def without_growth(monkeypatch, g):
    """The table `g`, whose scans certify no subtree by growth while the test runs.

    `critical._growth_limits` reads 0 at every position of `g` alone, so the
    scan enters every child whose walk is not full, whatever its deficit,
    in an abelian group as in any other.
    """
    limits = critical._growth_limits
    monkeypatch.setattr(critical, "_growth_limits", lambda h: [0] * h.n if h is g else limits(h))
    return g


def scan_with_escalations(monkeypatch, g, size, budget=None):
    """The result of one scan and the leaves it escalated, in order."""
    calls = []
    escalate = critical._scan_escalate

    def counted(leaf):
        calls.append(leaf.indices())
        return escalate(leaf)

    with monkeypatch.context() as m:
        m.setattr(critical, "_scan_escalate", counted)
        return find_nonbases(g, size, budget=budget), calls


def fresh_table(name):
    """A new table for a catalog name or a constructor descriptor."""
    try:
        return catalog_group.__wrapped__(name)
    except KeyError:
        return make_group(name)


# dicyclic(5) is the one group of order <= 26 seen where certifying also at
# equality (a deficit equal to k or to the least order) changes a result:
# at size 7 it skips a short leaf that the scan without growth escalates.
# The abelian groups of order 25 to 32 try the abelian rule, which needs no
# order condition, on more subgroup lattices (about 3 s in all)
ABELIAN_BEYOND_27 = [
    "cyclic(28)",
    "cyclic(30)",
    "cyclic(32)",
    "direct_product(cyclic(2),cyclic(14))",
    "direct_product(cyclic(2),cyclic(16))",
    "direct_product(cyclic(4),cyclic(8))",
    "direct_product(cyclic(2),direct_product(cyclic(4),cyclic(4)))",
    "direct_product(cyclic(5),cyclic(5))",
    "direct_product(cyclic(2),direct_product(cyclic(2),direct_product(cyclic(2),cyclic(4))))",
]


@pytest.mark.parametrize(
    "name", [e.name for e in catalog_init() if e.order <= 27] + ["dicyclic(5)"] + ABELIAN_BEYOND_27
)
def test_find_nonbases_matches_the_scan_without_growth(monkeypatch, name):
    # certifying a subtree by growth changes neither the count, the find
    # nor the escalated leaves, at any size and budget
    g = fresh_table(name)
    plain = without_growth(monkeypatch, fresh_table(name))
    for size in range(g.n):
        total = math.comb(g.n - 1, size)
        for budget in (None, 0, 1, 7, total // 3, total - 1):
            got = scan_with_escalations(monkeypatch, g, size, budget)
            assert got == scan_with_escalations(monkeypatch, plain, size, budget), (size, budget)


@pytest.mark.parametrize(
    "make,size",
    [(lambda: dicyclic(13), 26), (lambda: semidirect_cyclic(19, 3, 7), 20)],
    ids=["Dic13", "Z19:Z3"],
)
def test_scans_at_cr_beyond_order_28_match_the_scan_without_growth(monkeypatch, make, size):
    # non-abelian, at t = cr: every subset is certified, with the same escalations
    got = scan_with_escalations(monkeypatch, make(), size)
    assert got == scan_with_escalations(monkeypatch, without_growth(monkeypatch, make()), size)
    assert got[0][1:] == (None, True)


@pytest.mark.slow
def test_z45_scans_match_the_scan_without_growth(monkeypatch):
    # every size, about 14 s
    g = catalog_group("Z45")
    plain = without_growth(monkeypatch, catalog_group.__wrapped__("Z45"))
    for size in range(g.n):
        assert find_nonbases(g, size) == find_nonbases(plain, size), size


@pytest.mark.parametrize("name", [e.name for e in catalog_init()])
def test_a_set_missing_fewer_elements_than_an_order_grows_by_its_translate(name):
    # the fact behind the growth rule: B + x = B makes B, with 0, a union of
    # left cosets of <x>, so 0 < n - |B| < ord(x) forces B | (B + x) to grow.
    # The bound is sharp: G less one left coset y + <x> is fixed by x
    g = catalog_group(name)
    orders = g.element_orders
    rng = random.Random(g.n)
    for _ in range(200):
        x = rng.randrange(1, g.n)
        missing = rng.sample(range(1, g.n), rng.randrange(1, orders[x]))
        b = g.full_mask & ~sum(1 << y for y in missing)
        assert (b | g.translate(b, x)).bit_count() > b.bit_count(), (x, missing)
        cyclic_x = subgroup_mask(g, 1 << x)
        if cyclic_x != g.full_mask:
            y = rng.choice([y for y in range(g.n) if not cyclic_x >> y & 1])
            coset = 1 << y
            for _ in range(orders[x] - 1):
                coset |= g.translate(coset, x)
            b = g.full_mask & ~coset
            assert g.translate(b, x) == b


@pytest.mark.parametrize("name", [e.name for e in catalog_init() if e.abelian])
def test_in_an_abelian_group_any_delta_appends_fill_a_set_missing_delta_elements(name):
    # the fact behind the abelian growth rule: the y with B + y = B form a
    # subgroup that only grows as elements are appended, so whatever their
    # orders, any delta distinct nonzero appends fill a B that holds 0 and
    # misses delta elements.  The count is sharp: G less a coset y + H of a
    # subgroup H of delta elements is fixed by the delta - 1 nonzero
    # elements of H
    g = catalog_group(name)
    rng = random.Random(g.n)
    for _ in range(200):
        delta = rng.randrange(1, g.n)
        b = g.full_mask & ~sum(1 << y for y in rng.sample(range(1, g.n), delta))
        for x in rng.sample(range(1, g.n), delta):
            b |= g.translate(b, x)
        assert b == g.full_mask, delta
        h = subgroup_mask(g, sum(1 << x for x in rng.sample(range(1, g.n), rng.randrange(1, 3))))
        if h != g.full_mask:
            y = rng.choice([y for y in range(g.n) if not h >> y & 1])
            b = g.full_mask & ~g.translate(h, y)
            stay = [x for x in range(1, g.n) if h >> x & 1]
            assert len(stay) == h.bit_count() - 1
            assert all(g.translate(b, x) == b for x in stay), (h, y)


@pytest.mark.parametrize(
    "name,size,plain,full,single",
    [
        ("A4", 5, 36, 21, 4),
        ("D4", 4, 3, 0, 0),
        ("D6", 6, 3, 0, 0),
        ("D5", 5, 3, 3, 2),
        ("D7", 7, 3, 3, 2),
    ],
)
def test_single_find_scan_skips_symmetric_first_elements(
    monkeypatch, name, size, plain, full, single
):
    # at t = cr the scan certifies every subset.  In block order it escalates
    # fewer short leaves than in the plain order (a fresh table with no
    # symmetry but the identity, so its orbits are all singletons), and it
    # does not visit a tested prefix that a skip map sends earlier, so it
    # escalates fewer than the same order unskipped
    g = catalog_group(name)
    plain_order = without_symmetries(name)
    assert plain_order.scan_order == tuple(range(g.n))
    unskipped = without_symmetries(name, g.scan_order)
    calls = []
    escalate = critical._scan_escalate

    def counted(leaf):
        calls.append(leaf.indices())
        return escalate(leaf)

    monkeypatch.setattr(critical, "_scan_escalate", counted)
    results = []
    for h, want in ((plain_order, plain), (unskipped, full), (g, single)):
        calls.clear()
        results.append(find_nonbases(h, size))
        assert len(calls) == want, h is g
    assert results == [(math.comb(g.n - 1, size), None, True)] * 3
    assert calls == escalation_oracle(g, size)
    # the skip keeps the count and the find of the full scan in the same
    # order at every budget, also one size down, where a non-basis is found
    for s in (size - 1, size):
        total = math.comb(g.n - 1, s)
        for budget in (None, *range(0, total + 1, max(1, total // 60))):
            got = find_nonbases(g, s, budget=budget)
            assert got == find_nonbases(unskipped, s, budget=budget), (s, budget)


# escalated leaves, re-pinned from the scan with the cost rule (the scan
# that tested prefixes of up to four positions escalated 4, 11, 4, 20, 12
# and 215)
ESCALATED = {("D5", 4): 11, ("Dic3", 5): 11, ("A4", 5): 4, ("D7", 5): 33, ("D7", 6): 12, ("Z7:Z3", 6): 92}


@pytest.mark.parametrize(
    "name,size", [("D5", 4), ("Dic3", 5), ("A4", 5), ("D7", 5), ("D7", 6), ("Z7:Z3", 6)]
)
def test_scan_escalates_exactly_the_short_leaves(monkeypatch, name, size):
    # pruning and the memo certify only subtrees whose every leaf walks to
    # the whole group, so the scan escalates exactly the leaves whose walk
    # falls short and that no tested prefix sends earlier, in scan order, up
    # to the first non-basis.  A fresh table, so every test is made now
    g = catalog_group.__wrapped__(name)
    calls = []
    escalate = critical._scan_escalate

    def counted(leaf):
        calls.append(leaf.indices())
        return escalate(leaf)

    monkeypatch.setattr(critical, "_scan_escalate", counted)
    find_nonbases(g, size)
    assert calls == escalation_oracle(g, size)
    assert len(calls) == ESCALATED[name, size]
    # a later scan reads the kept prefixes instead of testing, and escalates
    # the same leaves
    first = calls[:]
    calls.clear()
    find_nonbases(g, size)
    assert calls == first


def test_a_skipped_child_leaves_its_frame_unsettled(monkeypatch):
    # a settled subtree certifies later prefixes with the same walk, so one
    # with a skipped child must not count as settled: its skipped leaves may
    # fall short, and the same completions of a later prefix are then short
    # leaves that must be escalated.  Z13:Z3 at size 9 is the smallest case
    # seen where that changes the escalations
    g = make_group("semidirect_cyclic(13,3,3)")
    unskipped = without_symmetries("semidirect_cyclic(13,3,3)", g.scan_order)
    got, calls = scan_with_escalations(monkeypatch, g, 9, 10**6)
    want, every = scan_with_escalations(monkeypatch, unskipped, 9, 10**6)
    assert got == want == (10**6, None, False)
    assert len(calls) == 38 and len(every) == 3282
    # each short leaf the skip passes over has a prefix that goes earlier
    where = {a: p for p, a in enumerate(g.scan_order)}
    assert set(calls) <= set(every)
    for leaf in set(every) - set(calls):
        positions = sorted(where[a] for a in leaf)
        assert not all(canonical_prefix(g, positions[:j]) for j in range(1, 10)), leaf


def test_a_scan_inside_the_escalation_hook_leaves_the_outer_scan_its_group(monkeypatch):
    # the hook scans another group once, then delegates: the outer scan
    # still escalates its leaves against its own table.  A4's first short
    # leaf, {1, 2, 4, 5, 7}, is a basis of A4 but not of D8
    g, other = catalog_group("A4"), catalog_group("D8")
    want = find_nonbases(g, 5)
    escalate = critical._scan_escalate
    inner = []

    def hook(leaf):
        if not inner:
            # the inner scan's own leaves come here too, and are delegated
            inner.append(None)
            inner[0] = find_nonbases(other, 5)
        return escalate(leaf)

    monkeypatch.setattr(critical, "_scan_escalate", hook)
    assert find_nonbases(g, 5) == want == (math.comb(11, 5), None, True)
    assert inner[0][1] is not None


@pytest.mark.parametrize("name,size", [("Z9", 5), ("D6", 7), ("A4", 6)])
def test_budget_ending_inside_pruned_subtree(name, size):
    # at these sizes (>= cr) the scan visits every first position that is a
    # block head; the first such prefix whose ascending walk already covers G
    # roots a subtree the scan certifies without visiting, and a budget
    # ending inside it must certify exactly that subtree's first ranks.
    # Subsets are in scan order, and counts are in positions.
    g = catalog_group(name)
    order = g.scan_order
    combs = list(scan_combinations(g, size))
    for rank, comb in enumerate(combs):
        if g.orbit_min[comb[0]] != comb[0]:
            continue
        depth = next(
            (d for d in range(1, size) if fixed_order_reach_mask(g, comb[:d]) == g.full_mask),
            None,
        )
        if depth is None:
            continue
        p = order.index(comb[depth - 1])
        if math.comb(g.n - 1 - p, size - depth) >= 3:
            break
    else:
        pytest.fail("no pruned subtree of three or more subsets")
    assert combs[rank] == comb[:depth] + order[p + 1 : p + 1 + size - depth]
    budget = rank + 2
    got = find_nonbases(g, size, budget=budget)
    assert got == reference_nonbases(g, size, budget)
    assert got == (budget, None, False)
    assert find_nonbases(g, size) == (len(combs), None, True)


def memo_certified_prefixes(g, size):
    """Prefixes, as scan positions, whose subtree an earlier settled subtree certifies.

    An earlier prefix q of the same length and first position, with the same
    ascending walk, q[-1] <= p[-1], and every completion walking to the whole
    group, certifies p.  Prefixes with fewer than three completions are
    skipped.
    """
    full = g.full_mask
    order = g.scan_order
    for k in range(2, size):
        settled, first = {}, None
        for p in combinations(range(1, g.n - size + k), k):
            if p[0] != first:
                settled, first = {}, p[0]
            members = tuple(order[q] for q in p)
            if any(fixed_order_reach_mask(g, members[:j]) == full for j in range(1, k + 1)):
                continue
            walk = fixed_order_reach_mask(g, members)
            if settled.get(walk, g.n) <= p[-1]:
                if math.comb(g.n - 1 - p[-1], size - k) >= 3:
                    yield p
                continue
            completions = combinations(order[p[-1] + 1 :], size - k)
            if all(fixed_order_reach_mask(g, members + c) == full for c in completions):
                settled[walk] = p[-1]


@pytest.mark.parametrize("name,size", [("D6", 6), ("A4", 5), ("Z15", 7), ("D7", 7)])
def test_budget_ending_inside_memo_certified_subtree(name, size):
    # the scan counts a prefix whose walk equals that of an earlier settled
    # subtree without visiting it; a budget ending inside it must certify
    # exactly that subtree's first ranks.  At these sizes (cr) every first
    # position that is a block head is visited.  Subsets are scan positions.
    g = catalog_group(name)
    order = g.scan_order
    combs = list(combinations(range(1, g.n), size))
    bases = [covers_group(g, c) for c in scan_combinations(g, size)]
    assert all(bases)
    prefixes = [
        p for p in memo_certified_prefixes(g, size) if g.orbit_min[order[p[0]]] == order[p[0]]
    ]
    assert prefixes, "no memo-certified subtree of three or more subsets"
    for prefix in prefixes:
        a = prefix[-1]
        first = prefix + tuple(range(a + 1, a + 1 + size - len(prefix)))
        budget = combs.index(first) + 2
        got = find_nonbases(g, size, budget=budget)
        assert got == reference_nonbases(g, size, budget, bases), prefix
        assert got == (budget, None, False)
    assert find_nonbases(g, size) == (len(combs), None, True)


@st.composite
def constructed_groups(draw):
    """Groups of order <= 18 from the constructors, not from the catalog."""
    kind = draw(st.sampled_from(["semidirect", "dihedral", "dicyclic", "product"]))
    if kind == "dihedral":
        return dihedral(draw(st.integers(2, 9)))
    if kind == "dicyclic":
        return dicyclic(draw(st.integers(2, 4)))
    if kind == "semidirect":
        a = draw(st.integers(2, 9))
        b = draw(st.integers(1, 18 // a))
        ks = [k for k in range(1, a) if math.gcd(k, a) == 1 and pow(k, b, a) == 1]
        return semidirect_cyclic(a, b, draw(st.sampled_from(ks)))
    factors = [cyclic(2), cyclic(3), cyclic(4), cyclic(5), dihedral(2), dihedral(3)]
    left = draw(st.sampled_from(factors))
    right = draw(st.sampled_from([h for h in factors if left.n * h.n <= 18]))
    return direct_product(left, right)


@given(data=st.data())
def test_find_nonbases_matches_reference_on_constructed_groups(data):
    g = data.draw(constructed_groups())
    size = data.draw(st.integers(0, g.n - 1), label="size")
    total = math.comb(g.n - 1, size)
    budget = data.draw(st.none() | st.integers(0, total), label="budget")
    got = find_nonbases(g, size, budget=budget)
    assert got == reference_nonbases(g, size, budget)


def test_cr_exhaustive_budget_partial():
    cert = cr_exhaustive(catalog_group("Z9"), budget=5)
    assert cert.value is None
    assert cert.lower_bound <= cert.upper_bound
    assert cert.upper_bound == 9
    assert "budget" in cert.notes


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


@pytest.mark.parametrize("trials,include", [(0, ()), (-3, ()), (-3, [(1, 2, 3)])])
def test_cr_sampled_upper_refuses_a_sample_with_nothing_or_a_negative_count(trials, include):
    # a sample that checks nothing would report upper_bound t with 0 subsets
    with pytest.raises(ValueError):
        cr_sampled_upper(catalog_group("Z9"), 4, trials, include=include)


def test_cr_sampled_upper_checks_an_included_subset_with_no_draws():
    cert = cr_sampled_upper(catalog_group("Z9"), 4, 0, include=[(1, 2, 3, 4)])
    assert cert.subsets_checked == 1


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
        assert cr_exhaustive(g).value == predicted.value, entry.name


@pytest.mark.parametrize("name", ["D3", "D6", "Z9", "A4", "H27"])
@pytest.mark.parametrize("shift", [2, -1])
def test_wrong_formula_does_not_steer_the_search(monkeypatch, name, shift):
    # the formula only tags the result: an oracle predicting cr + 2 or cr - 1
    # leaves every scan, count and witness as it was, and drops the tag
    g = catalog_group(name)
    want = cr_exhaustive(g).to_json()

    def wrong(h):
        v = want["value"] + shift
        return CrCertificate(h.name, h.n, "formula", v, v, v, theorem_tag="T0")

    monkeypatch.setattr(critical, "cr_formula", wrong)
    got = cr_exhaustive(g).to_json()
    want.update(theorem_tag=None, elapsed_ms=None)
    got.update(elapsed_ms=None)
    assert got == want


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


def _reference_resolving_sequence(g, members):
    """Every stage closure, lambda and prefix subgroup computed afresh, with no shortcut."""
    k = len(members)
    ordering, lambdas, prefix_sizes = [0] * k, [0] * k, [0] * k
    current = sorted(members)
    for i in range(k, 0, -1):
        b = exact_reach_mask(g, current)
        # largest lambda, ties to the smallest element
        lam, neg_y = max((lambda_bits(g, b, y), -y) for y in current)
        ordering[i - 1], lambdas[i - 1], prefix_sizes[i - 1] = -neg_y, lam, b.bit_count()
        current.remove(-neg_y)
    t = 1
    for j in range(k - 1, 0, -1):
        if subgroup_mask(g, sum(1 << x for x in ordering[:j])) != g.full_mask:
            t = j + 1
            break
    return ResolvingSequence(tuple(ordering), tuple(lambdas), t, tuple(prefix_sizes))


def _assert_matches_reference(g, members):
    assert resolving_sequence(g, g.subset(members)) == _reference_resolving_sequence(g, members)


@pytest.mark.parametrize("name", [e.name for e in catalog_init() if e.order <= 16])
def test_resolving_matches_reference_on_every_small_set(name):
    g = catalog_group(name)
    for size in range(2, 5):
        for members in combinations(range(1, g.n), size):
            _assert_matches_reference(g, list(members))


def test_resolving_matches_reference_on_seeded_sets_of_larger_groups():
    rng = random.Random(53)
    for entry in catalog_init():
        if entry.order <= 16:
            continue
        g = catalog_group(entry.name)
        for size in range(1, 9):
            for _ in range(6):
                _assert_matches_reference(g, sorted(rng.sample(range(1, g.n), size)))


@pytest.mark.parametrize(
    "group, members, t",
    [
        # the prefix closure already holds 0, so |closure| + 1 overcounts it
        (cyclic(6), [1, 2, 4], 3),
        (dihedral(4), [1, 2, 5, 7], 4),
    ],
)
def test_resolving_critical_index_when_a_prefix_closure_holds_zero(group, members, t):
    rs = resolving_sequence(group, group.subset(members))
    assert rs.critical_index == t
    assert rs == _reference_resolving_sequence(group, members)


def test_closure_pass_skips_work_that_cannot_change_its_answer(monkeypatch):
    # reorderings are tried only on sets with 2^k > n, and the subgroup of a
    # prefix only when its closure with 0 fits in a proper subgroup
    calls = {"probes": 0, "subgroups": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(sumsets, "_alt_orders", counted("probes", sumsets._alt_orders))
    monkeypatch.setattr(critical, "subgroup_mask", counted("subgroups", subgroup_mask))
    rng = random.Random(59)
    for entry in catalog_init():
        if entry.order > 27:
            continue
        g = catalog_group(entry.name)
        for size in range(1, 9):
            for _ in range(5):
                x = g.subset(sorted(rng.sample(range(1, g.n), min(size, g.n - 1))))
                sumsets.sigma(g, x)
                resolving_sequence(g, x)
    # without the two shortcuts: 2,627 probes and 3,503 subgroup closures
    assert calls == {"probes": 382, "subgroups": 1642}


@pytest.mark.parametrize("name", [e.name for e in catalog_init() if e.order <= 21])
def test_find_nonbases_matches_the_scan_without_symmetries(name):
    # the canonical-prefix skips change neither the count nor the find of
    # the full scan in the same order, at any budget, one size below cr and
    # at cr
    g = catalog_group(name)
    plain = without_symmetries(name, g.scan_order)
    for size in (KNOWN_CR[name] - 1, KNOWN_CR[name]):
        total = math.comb(g.n - 1, size)
        for budget in (None, *range(0, total + 1, max(1, total // 60))):
            got = find_nonbases(g, size, budget=budget)
            assert got == find_nonbases(plain, size, budget=budget), (size, budget)


ORDER27 = ["Z27", "Z9xZ3", "Z3xZ3xZ3", "H27", "Z9:Z3"]


@pytest.mark.parametrize("name", ORDER27)
def test_order27_scans_match_the_scan_without_symmetries(name):
    g = catalog_group(name)
    plain = without_symmetries(name, g.scan_order)
    for size in (9, 10):
        assert find_nonbases(g, size) == find_nonbases(plain, size), size


class CountingTables(list):
    """Chunk tables that count their row lookups: the scan makes one per child evaluation."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def scan_lookups(g, size):
    """Table row lookups of one scan on a fresh table, and its result.

    The skip maps are built first: finding a generating sequence for the
    automorphism search takes translates, which are not scan work.
    """
    critical._skips(g)
    tables = CountingTables(g._chunk_tables)
    g.__dict__["_chunk_tables"] = tables
    result = find_nonbases(g, size)
    return tables.lookups, result


def kept_prefixes(g):
    """The tested prefixes a table keeps for later scans, over every size scanned."""
    return sum(len(tested) for tested in critical._skips(g).prefixes.values())


def test_order27_scans_evaluate_the_pinned_number_of_children(monkeypatch):
    # at t = 10 no leaf is escalated, so every lookup is a child evaluation.
    # Pinned from the scan that tests prefixes wherever the cost rule lets
    # the live skip maps act, under the automorphisms with and without
    # inversion, and certifies subtrees by growth, by deficit alone in the
    # three abelian groups (12,449 with the order condition there too,
    # 21,881 when only prefixes of up to four positions were tested); more
    # means a weaker skip, memo or growth rule.  The kept prefixes bound the
    # memory the tests leave behind
    want = {"Z27": 6121, "Z9xZ3": 1510, "Z3xZ3xZ3": 272, "H27": 786, "Z9:Z3": 2243}
    got, kept, plain = {}, {}, {}
    for name in ORDER27:
        g = catalog_group.__wrapped__(name)
        got[name], result = scan_lookups(g, 10)
        assert result == (math.comb(26, 10), None, True)
        kept[name] = kept_prefixes(g)
        plain[name], result = scan_lookups(without_growth(monkeypatch, catalog_group.__wrapped__(name)), 10)
        assert result == (math.comb(26, 10), None, True)
    assert got == want
    assert sum(got.values()) == 10932
    assert kept == {"Z27": 320, "Z9xZ3": 154, "Z3xZ3xZ3": 27, "H27": 75, "Z9:Z3": 327}
    # the rule-free oracle of the differential tests enters every child
    # that either growth rule certifies
    assert plain == {"Z27": 10139, "Z9xZ3": 2682, "Z3xZ3xZ3": 401, "H27": 1026, "Z9:Z3": 3296}


@pytest.mark.slow
@pytest.mark.parametrize(
    "g,size,evaluations,kept",
    [
        # 153,462 and 1,187,490 without growth; 426,567 and 1,436,008 when
        # only prefixes of up to four positions were tested; about 0.5 s and 3 s
        (direct_product(cyclic(7), cyclic(7)), 12, 86990, 5299),
        (cyclic(47), 13, 664893, 36724),
    ],
    ids=["Z7xZ7", "Z47"],
)
def test_scans_beyond_order_28_evaluate_the_pinned_number_of_children(g, size, evaluations, kept):
    # abelian, so no leaf is escalated and every lookup is a child evaluation
    assert scan_lookups(g, size) == (evaluations, (math.comb(g.n - 1, size), None, True))
    assert kept_prefixes(g) == kept


def test_automorphism_search_makes_the_pinned_number_of_homomorphism_checks(monkeypatch):
    # the closure under composition lets the search pass over a known map by
    # one lookup; composing new maps with the newest generator alone leaves
    # it open, and the search checks more choices (Z3xZ3xZ3: 677)
    checks = []
    check = critical.homomorphism

    def counted(*args):
        checks.append(None)
        return check(*args)

    monkeypatch.setattr(critical, "homomorphism", counted)
    tables = {name: catalog_group.__wrapped__(name) for name in ORDER27}
    tables["Z7xZ7"] = direct_product(cyclic(7), cyclic(7))
    got = {}
    for name, g in tables.items():
        checks.clear()
        critical._automorphisms(g)
        got[name] = len(checks)
    assert got == {"Z27": 1, "Z9xZ3": 238, "Z3xZ3xZ3": 456, "H27": 276, "Z9:Z3": 291, "Z7xZ7": 342}
