"""Subset-sum closures, sumsets, and translate statistics over finite groups."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import ElementSet, GroupTable

DEFAULT_MASK_LIMIT = 24


class CapacityError(ValueError):
    """Exact closure would need a wider subset mask than allowed."""


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
    """Tiered fixed-order probes: input order, then reversal and seeded shuffles."""
    full = g.full_mask
    return fixed_order_reach_mask(g, members) == full or any(
        fixed_order_reach_mask(g, order) == full for order in _alt_orders(members)
    )


def _state_search(
    op: Sequence[Sequence[int]],
    n: int,
    full: int,
    members: Sequence[int],
    mask_limit: int,
    want_levels: bool = False,
    stop_at_full: bool = False,
) -> tuple[int, Optional[list[int]]]:
    """Complete search over (used-subset, partial-sum) states.

    Explores every ordering of every distinct-element selection by appending
    one unused element at a time.  With `stop_at_full` the walk stops as soon
    as every group element has been produced, which keeps the reached set
    exact; per-cardinality levels require the full walk.
    """
    k = len(members)
    if k > mask_limit:
        raise CapacityError(
            f"subset of size {k} exceeds the exact-search mask width limit {mask_limit}"
        )
    reached = 0
    levels: Optional[list[int]] = [0] * (k + 1) if want_levels else None
    seen = set()
    frontier: list[tuple[int, int]] = []
    for i, a in enumerate(members):
        st = (1 << i, a)
        if st not in seen:
            seen.add(st)
            frontier.append(st)
            reached |= 1 << a
    if levels is not None:
        levels[1] = reached
    if stop_at_full and not want_levels and reached == full:
        return reached, None
    level = 1
    while frontier and level < k:
        level += 1
        nxt: list[tuple[int, int]] = []
        level_mask = 0
        for mask, s in frontier:
            row = op[s]
            for j in range(k):
                jb = 1 << j
                if mask & jb:
                    continue
                st = (mask | jb, row[members[j]])
                if st not in seen:
                    seen.add(st)
                    nxt.append(st)
                    level_mask |= 1 << st[1]
        reached |= level_mask
        if levels is not None:
            levels[level] = level_mask
        elif stop_at_full and reached == full:
            return reached, None
        frontier = nxt
    return reached, levels


def _closure(
    g: GroupTable, members: Sequence[int], mask_limit: int
) -> tuple[int, bool]:
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
    reached, _ = _state_search(g.op, g.n, g.full_mask, members, mask_limit, stop_at_full=True)
    return reached, True


def exact_reach_mask(
    g: GroupTable, members: Sequence[int], mask_limit: int = DEFAULT_MASK_LIMIT
) -> int:
    """The exact closure as a bit-set, taking the cheapest sound route."""
    return _closure(g, tuple(members), mask_limit)[0]


def covers_group(
    g: GroupTable, members: Sequence[int], mask_limit: int = DEFAULT_MASK_LIMIT
) -> bool:
    """Whether the closure of the given elements is the whole group."""
    return exact_reach_mask(g, members, mask_limit) == g.full_mask


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


def sigma(
    g: GroupTable,
    s: ElementSet,
    want_by_cardinality: bool = False,
    mask_limit: int = DEFAULT_MASK_LIMIT,
) -> SumsetClosure:
    """Closure of `s` under sums of distinct elements taken in any order."""
    members = s.indices()
    if not want_by_cardinality:
        reached, exact = _closure(g, members, mask_limit)
        return SumsetClosure(ElementSet(g, reached), None, exact)
    if g.is_abelian:
        levels = _levels_abelian(g, members)
    else:
        _, levels = _state_search(g.op, g.n, g.full_mask, members, mask_limit, want_levels=True)
        assert levels is not None
    reached = 0
    for lv in levels:
        reached |= lv
    by_card = {r: ElementSet(g, levels[r]) for r in range(1, len(members) + 1)}
    return SumsetClosure(ElementSet(g, reached), by_card, True)


def sigma_r(
    g: GroupTable, s: ElementSet, r: int, mask_limit: int = DEFAULT_MASK_LIMIT
) -> ElementSet:
    """Values of ordered sums of exactly r distinct elements of s."""
    k = len(s)
    if not 1 <= r <= k:
        raise ValueError(f"cardinality r={r} out of range 1..{k}")
    by_card = sigma(g, s, want_by_cardinality=True, mask_limit=mask_limit).by_cardinality
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
