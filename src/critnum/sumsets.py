"""Subset-sum closures, sumsets, and translate statistics over finite groups."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import ElementSet, GroupTable

# widest set the complete search takes: it keeps one bit-set per subset, up to 2^k
MASK_LIMIT = 24


class CapacityError(ValueError):
    """Exact closure would need a wider subset mask than `MASK_LIMIT`."""


@dataclass(frozen=True)
class SumsetClosure:
    """Closure of a subset under sums of distinct elements, in any order.

    `full` is always the exact closure.  `exact` records how it was obtained:
    True when the complete ordered-sum search (or the abelian prefix walk,
    which is equivalent) ran, False when the fixed-order underapproximation
    already covered the whole group and the search was skipped.
    """

    full: ElementSet
    by_cardinality: Optional[dict[int, ElementSet]]
    exact: bool


def fixed_order_reach_mask(g: GroupTable, order: Sequence[int]) -> int:
    """Sums reachable when elements are appended only in the given order.

    Exact for abelian groups; for non-abelian groups a sound subset of the
    true closure (every value is still an ordered sum of distinct elements).
    """
    translate = g.translate
    r = 0
    for a in order:
        r |= translate(r, a) | (1 << a)
    return r


def _alt_orders(members: Sequence[int]) -> list[list[int]]:
    """Reversal plus four shuffles deterministically seeded from the subset.

    Members are encoded at one common width, a single byte each while every
    member is below 256; the seed only picks the shuffles, so it must be
    deterministic but need not be unique.
    """
    orders = [list(reversed(members))]
    width = max(1, (max(members, default=0).bit_length() + 7) // 8)
    rng = random.Random(zlib.crc32(b"".join(m.to_bytes(width, "big") for m in members)))
    for _ in range(4):
        order = list(members)
        rng.shuffle(order)
        orders.append(order)
    return orders


def _dp_covers(g: GroupTable, members: Sequence[int]) -> bool:
    """Tiered fixed-order probes: input order, then reversal and seeded shuffles.

    One order of k elements reaches at most 2^k - 1 subsequence sums, so the
    reorderings are tried only when 2^k > n; below that none of them can cover.
    """
    full = g.full_mask
    if fixed_order_reach_mask(g, members) == full:
        return True
    return 1 << len(members) > g.n and any(
        fixed_order_reach_mask(g, order) == full for order in _alt_orders(members)
    )


def _state_search(
    g: GroupTable, members: Sequence[int], want_levels: bool = False
) -> tuple[int, Optional[list[int]]]:
    """Complete search: one bit-set of ordered sums per subset of `members`.

    Subsets are taken as masks in increasing order, so each comes after all
    of its proper subsets.  An ordered sum over a subset ends in some member
    `a`, so the subset's sums are the translates by each such `a` of the sums
    of the subset without it.  Without levels the search stops once every
    group element is reached, which keeps the reached set exact.  Raises
    `CapacityError` on more than `MASK_LIMIT` members.
    """
    k = len(members)
    if k > MASK_LIMIT:
        raise CapacityError(
            f"subset of size {k} exceeds the exact-search mask width limit {MASK_LIMIT}"
        )
    translate, full = g.translate, g.full_mask
    levels: Optional[list[int]] = [0] * (k + 1) if want_levels else None
    sums = [0]  # indexed by mask; the empty subset is never read
    reached = 0
    for mask in range(1, 1 << k):
        if mask & (mask - 1) == 0:
            s = 1 << members[mask.bit_length() - 1]
        else:
            s = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                s |= translate(sums[mask ^ low], members[low.bit_length() - 1])
        sums.append(s)
        reached |= s
        if levels is not None:
            levels[mask.bit_count()] |= s
        elif reached == full:
            break
    return reached, levels


def _closure(g: GroupTable, members: Sequence[int]) -> tuple[int, bool]:
    """The exact closure as a bit-set, with the `SumsetClosure.exact` flag.

    Abelian groups take the fixed-order walk, which is exact for them.  In a
    non-abelian group a walk order that covers the group settles the set
    (flag False: the complete search was skipped); the complete search
    decides the rest.
    """
    if g.is_abelian:
        return fixed_order_reach_mask(g, members), True
    if _dp_covers(g, members):
        return g.full_mask, False
    reached, _ = _state_search(g, members)
    return reached, True


def exact_reach_mask(g: GroupTable, members: Sequence[int]) -> int:
    """The exact closure as a bit-set, taking the cheapest sound route."""
    return _closure(g, tuple(members))[0]


def covers_group(g: GroupTable, members: Sequence[int]) -> bool:
    """Whether the closure of the given elements is the whole group.

    Raises `CapacityError` on a non-abelian set of more than `MASK_LIMIT`
    elements that no walk order covers.
    """
    return exact_reach_mask(g, members) == g.full_mask


def _levels_abelian(g: GroupTable, members: Sequence[int]) -> list[int]:
    """Per-cardinality closure slices via the 0/1 prefix walk (abelian only)."""
    k = len(members)
    levels = [0] * (k + 1)
    levels[0] = 1
    translate = g.translate
    for idx, a in enumerate(members):
        for r in range(min(idx + 1, k), 0, -1):
            prev = levels[r - 1]
            if prev:
                levels[r] |= translate(prev, a)
    levels[0] = 0
    return levels


def sigma(g: GroupTable, s: ElementSet, want_by_cardinality: bool = False) -> SumsetClosure:
    """Closure of `s` under sums of distinct elements taken in any order."""
    members = s.indices()
    if not want_by_cardinality:
        reached, exact = _closure(g, members)
        return SumsetClosure(ElementSet(g, reached), None, exact)
    if g.is_abelian:
        levels = _levels_abelian(g, members)
    else:
        _, levels = _state_search(g, members, want_levels=True)
        assert levels is not None
    reached = 0
    for lv in levels:
        reached |= lv
    by_card = {r: ElementSet(g, levels[r]) for r in range(1, len(members) + 1)}
    return SumsetClosure(ElementSet(g, reached), by_card, True)


def sigma_r(g: GroupTable, s: ElementSet, r: int) -> ElementSet:
    """Values of ordered sums of exactly r distinct elements of s."""
    k = len(s)
    if not 1 <= r <= k:
        raise ValueError(f"cardinality r={r} out of range 1..{k}")
    by_card = sigma(g, s, want_by_cardinality=True).by_cardinality
    assert by_card is not None
    return by_card[r]


def sumset_bits(g: GroupTable, a_bits: int, b_bits: int) -> int:
    translate = g.translate
    full = g.full_mask
    out = 0
    b = b_bits
    while b:
        x = (b & -b).bit_length() - 1
        b &= b - 1
        out |= translate(a_bits, x)
        if out == full:
            break
    return out


def sumset(g: GroupTable, a: ElementSet, b: ElementSet) -> ElementSet:
    """The sumset {x + y : x in a, y in b}."""
    return ElementSet(g, sumset_bits(g, a.bits, b.bits))


def fold_cd(g: GroupTable, elements: Sequence[int]) -> ElementSet:
    """Left-to-right fold of sumsets with {0, e} for each listed element."""
    return ElementSet(g, fixed_order_reach_mask(g, elements) | 1)


def lambda_bits(g: GroupTable, b_bits: int, x: int) -> int:
    return (g.translate(b_bits, x) & ~b_bits).bit_count()


def lambda_count(g: GroupTable, b: ElementSet, x: int) -> int:
    """Number of elements of the translate b + x that fall outside b."""
    return lambda_bits(g, b.bits, x)


def is_additive_basis(g: GroupTable, s: ElementSet) -> bool:
    """Whether every group element is a sum of distinct elements of s."""
    if 0 in s:
        raise ValueError("candidate basis must not contain the identity")
    return covers_group(g, s.indices())
