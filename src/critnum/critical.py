"""Critical-number computation: exhaustive search, formula oracle, witnesses."""

from __future__ import annotations

import math
import random
import time
import weakref
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

from .groups import (
    CHUNK_BITS,
    CHUNK_MASK,
    ElementSet,
    GroupTable,
    SubgroupInfo,
    generating_sequence,
    homomorphism,
    is_nilpotent,
    is_prime,
    normal_subgroups_of_prime_index,
    prime_divisors,
    smallest_prime_divisor,
    subgroup_mask,
    subgroups_of_index,
)
from .sumsets import (
    CapacityError,
    covers_group,
    exact_reach_mask,
    lambda_bits,
)

DEFAULT_SEED = 0xC0FFEE


@dataclass
class CrCertificate:
    """Outcome of a critical-number computation, exact or bounded."""

    group_name: str
    n: int
    method: str
    value: Optional[int]
    lower_bound: int
    upper_bound: int
    theorem_tag: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None
    subsets_checked: int = 0
    elapsed_ms: int = 0
    nonbases_found: Optional[int] = None
    notes: Optional[str] = None

    def __post_init__(self) -> None:
        if self.lower_bound > self.upper_bound:
            raise ValueError(
                f"contradictory certificate: lower {self.lower_bound} > upper {self.upper_bound}"
            )
        if self.method == "exhaustive" and self.value is not None:
            if not self.lower_bound == self.upper_bound == self.value:
                raise ValueError("exhaustive certificate must have tight bounds")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ResolvingSequence:
    """Greedy ordering of a subset by translate gain, with its critical index."""

    ordering: tuple[int, ...]
    lambdas: tuple[int, ...]
    critical_index: int
    prefix_sizes: tuple[int, ...]


def _is_composite(m: int) -> bool:
    return m > 1 and not is_prime(m)


def _elapsed_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


# ---------------------------------------------------------------------------
# formula oracle


def cr_formula(g: GroupTable) -> Optional[CrCertificate]:
    """Predict the critical number when one of the known theorems applies.

    Applicability is evaluated in a fixed order: the order-6 and general
    index-2 cases, the odd nilpotent composite-quotient case, the order-pq
    case, then the two asymptotic cases (encoded but far beyond desk scale).
    Returns None when no predicate matches.
    """
    t0 = time.perf_counter()
    n = g.n
    if n < 2:
        return None
    p = smallest_prime_divisor(n)
    base = n // p + p - 2
    abelian = g.is_abelian
    has_index2 = bool(normal_subgroups_of_prime_index(g, 2))
    tag = None
    value = None
    notes = None
    if not abelian and n % 2 == 0 and has_index2 and n == 6:
        tag, value = "T1.3i", 4
    elif not abelian and n % 2 == 0 and has_index2:
        tag, value = "T1.3ii", n // 2
    elif n % 2 == 1 and _is_composite(n // p) and is_nilpotent(g):
        tag, value = "T1.2", base
    elif not abelian and n >= 10 and is_prime(n // p):
        tag, value = "T1.1iii", base
    elif p >= 149 and n >= 120 * p * p and is_nilpotent(g):
        tag, value = "T1.1i", base
    elif (
        p >= 149
        and n >= 120 * p * p
        and all(q > 6 * p for q in prime_divisors(n) if q != p)
        and bool(subgroups_of_index(g, p))
    ):
        tag, value = "T1.1ii", base
        notes = "applicability requires every other prime divisor to exceed 6p"
    if value is None:
        return None
    return CrCertificate(
        group_name=g.name,
        n=n,
        method="formula",
        value=value,
        lower_bound=value,
        upper_bound=value,
        theorem_tag=tag,
        elapsed_ms=_elapsed_ms(t0),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# witness construction


def witness_lower_bound(g: GroupTable, k: Optional[SubgroupInfo] = None) -> CrCertificate:
    """Certify cr >= n/p + p - 2 from a normal subgroup K of prime index p.

    The witness takes every non-identity element of K plus p - 2 elements
    of one coset x + K.  G/K is cyclic of order p and generated by x + K,
    so labelling each element j when it lies in jx + K adds labels along
    every sum; the labels are built and checked on every table edge by x
    and by the members of K (`homomorphism`).  An ordered sum of distinct
    members lies in the coset of a subset sum of their labels, so labels
    whose subset sums miss p - 1 leave the whole coset -x + K out of the
    closure, which is re-checked here.  With k omitted, the normal subgroup
    of index p (p the smallest prime divisor) with the smallest carrier
    bit-set is used: every such subgroup has n/p elements, so all give the
    same bound.
    """
    t0 = time.perf_counter()
    if k is None:
        p = smallest_prime_divisor(g.n)
        subs = normal_subgroups_of_prime_index(g, p)
        if not subs:
            raise ValueError(f"{g.name} has no normal subgroup of index {p}")
        k = subs[0]
    p = k.index
    if not is_prime(p):
        raise ValueError(f"witness construction needs prime index, got {p}")
    k_members = k.carrier.indices()
    x = next(i for i in range(g.n) if i not in k.carrier)
    zp = [[(a + b) % p for b in range(p)] for a in range(p)]
    label = None
    if k.is_normal:
        label = homomorphism(g, [x, *k_members], [1] + [0] * len(k_members), zp)
    if label is None:
        raise ValueError("witness construction needs a normal subgroup")
    if len(k_members) < p - 2:
        raise ValueError(
            f"witness construction needs {p - 2} coset elements but cosets have {len(k_members)}"
        )
    coset = [a for a in range(g.n) if label[a] == 1]
    t_members = sorted([*k_members[1:], *coset[: p - 2]])
    sums = 1
    for a in t_members:
        sums |= (sums << label[a] | sums >> (p - label[a])) & ((1 << p) - 1)
    if sums >> (p - 1) & 1:
        raise RuntimeError(
            f"witness construction invalid for {g.name} with coset of {x}: "
            "the labels reach the inverse coset"
        )
    lower = len(t_members) + 1
    tag = "L2.6" if g.n == 27 else ("T1.3ii" if p == 2 else "T1.2")
    return CrCertificate(
        group_name=g.name,
        n=g.n,
        method="witness_lower",
        value=None,
        lower_bound=lower,
        upper_bound=g.n,
        theorem_tag=tag,
        witness=tuple(t_members),
        subsets_checked=1,
        elapsed_ms=_elapsed_ms(t0),
    )


# ---------------------------------------------------------------------------
# subset scanning (shared by exhaustive search and the verifiers)

def _scan_escalate(leaf: ElementSet) -> bool:
    """Slow-path cover check of a leaf whose ascending walk fell short."""
    return covers_group(leaf.group, leaf.indices())


# the most maps the canonical-prefix skip tests, the identity included;
# each map is one bit of the skip bit-sets.  The automorphisms, alone and
# followed by inversion, are closed under composition up to this many, so a
# group with a huge Aut(G) stays cheap: Z2^5 has 9,999,360 automorphisms
# and Z3xZ3xZ3 11,232.  At t = 10 the latter evaluates 272 children with
# 2,047 maps or 1,023, and 262 with 4,095
_MAP_LIMIT = 2048


def _pad(phi: bytes) -> bytes:
    """A map of at most 256 points as a `bytes.translate` table."""
    return phi + bytes(256 - len(phi))


def _automorphisms(g: GroupTable) -> list[bytes]:
    """Aut(G) as element maps, identity first, closed up to `_MAP_LIMIT` maps.

    An automorphism is fixed by its images of a generating sequence.  The
    search picks images of the same element order one generator at a time
    and goes on only while they extend to a homomorphism of the subgroup
    spanned so far that sends no element but 0 to 0, so is one-to-one.  A
    full choice that some map of the group already makes is passed over by
    one set lookup; any other found automorphism joins the generators, and
    the maps known so far are closed under composition with it.  Search
    and closure stop at the limit.
    """
    n, op, orders = g.n, g.op, g.element_orders
    gens = generating_sequence(g)
    group = [bytes(range(n))]
    known = set(group)
    made = {bytes(gens)}
    generators: list[bytes] = []
    candidates = [[y for y in range(1, n) if orders[y] == orders[s]] for s in gens]
    images: list[int] = []
    choices = [iter(candidates[0])] if gens else []
    while choices and len(group) < _MAP_LIMIT:
        y = next(choices[-1], None)
        if y is None:
            choices.pop()
            continue
        i = len(choices)
        del images[i - 1 :]
        images.append(y)
        if i < len(gens):
            phi = homomorphism(g, gens[:i], images, op)
            if phi is not None and phi.count(0) == 1:
                choices.append(iter(candidates[i]))
            continue
        phi = None if bytes(images) in made else homomorphism(g, gens, images, op)
        if phi is None or phi.count(0) > 1:
            continue
        # a new generator: compose the maps so far with it, and each new map
        # with every generator, so the maps stay closed under composition
        generators.append(_pad(bytes(phi)))
        old = len(group)
        for j, x in enumerate(group):
            if len(group) >= _MAP_LIMIT:
                break
            for s in generators[-1:] if j < old else generators:
                xs = x.translate(s)
                if xs not in known:
                    known.add(xs)
                    made.add(bytes(xs[t] for t in gens))
                    group.append(xs)
    return group[:_MAP_LIMIT]


def _skip_maps(g: GroupTable) -> list[bytes]:
    """The maps the canonical-prefix skip tests, as maps of scan positions; identity excluded.

    They are the automorphisms, then the automorphisms followed by
    inversion, each once, at most `_MAP_LIMIT` with the identity: every
    such map sends bases to bases.  Position q goes to the position of the
    image of the element at q, so `order[perm[q]] == phi[order[q]]` for
    `order = g.scan_order`.  Positions fit in a byte up to order 256;
    above it no map is tested.
    """
    n, order = g.n, g.scan_order
    if n > 256:
        return []
    pos = [0] * n
    for p, a in enumerate(order):
        pos[a] = p
    autos = _automorphisms(g)
    inversion = _pad(bytes(g.inv))
    maps = dict.fromkeys([*autos, *(phi.translate(inversion) for phi in autos)])
    elements, positions = bytes(order), _pad(bytes(pos))
    return [
        elements.translate(_pad(phi)).translate(positions)
        for phi in list(maps)[1:_MAP_LIMIT]
    ]


class _Skips(NamedTuple):
    """A table's skip maps, where they send each position as bit-sets of maps, and its tested prefixes.

    Map i of `maps` is bit i of every bit-set.
    """

    maps: list[bytes]
    # below[q][v], v <= n: the maps that send position q below v, so
    # below[q][v + 1] ^ below[q][v] holds those that send q to v
    below: list[list[int]]
    # later[q][v], v <= q + 1: the maps that send some position after q below v
    later: list[list[int]]
    # falls[q]: the maps that send some position after q below itself
    falls: list[int]
    # per scan size, the tested prefixes (see `_scan_task`)
    prefixes: dict[int, dict[int, int]]


def _skip_tables(maps: list[bytes], n: int) -> _Skips:
    """The bit-set tables of `maps`, permutations of n positions."""
    below = [[0] * (n + 1) for _ in range(n)]
    if maps:
        joined = b"".join(maps)
        # a byte below v reads "1" and any other "0", so the images of
        # position q, last map first, become a binary numeral
        less = [bytes(48 + (b < v) for b in range(256)) for v in range(n + 1)]
        for q in range(n):
            column = joined[q::n][::-1]
            below[q] = [int(column.translate(less[v]), 2) for v in range(n + 1)]
    later = [[0] * (q + 2) for q in range(n)]
    falls = [0] * n
    for q in range(n - 2, -1, -1):
        after, then = later[q + 1], below[q + 1]
        later[q] = [after[v] | then[v] for v in range(q + 2)]
        falls[q] = falls[q + 1] | then[q + 1]
    return _Skips(maps, below, later, falls, {})


# the skip tables of each table, kept for the table's lifetime and keyed by
# its identity: equal tables built apart are kept apart, and hashing a
# table would read all of it
_SKIPS: dict[int, _Skips] = {}


def _skips(g: GroupTable) -> _Skips:
    """The table's skip maps, their bit-set tables and tested prefixes, built on first use."""
    key = id(g)
    entry = _SKIPS.get(key)
    if entry is None:
        entry = _SKIPS[key] = _skip_tables(_skip_maps(g), g.n)
        weakref.finalize(g, _SKIPS.pop, key, None)
    return entry


def _growth_limits(g: GroupTable) -> list[int]:
    """Per scan position p, the deficit below which every later append grows a walk (see `_scan_task`).

    It is the least element order at the positions after p, or n in an
    abelian group, where no order condition is needed.
    """
    n = g.n
    if g.is_abelian:
        return [n] * n
    orders, order = g.element_orders, g.scan_order
    least = [0] * n
    low = n
    for p in range(n - 1, 0, -1):
        low = least[p - 1] = min(low, orders[order[p]])
    return least


class _ScanEnd(Exception):
    """Cap reached, non-basis found or leaf undecided; args are the scan's result."""


def _scan_task(
    args: tuple[GroupTable, int, int]
) -> tuple[int, Optional[tuple[int, ...]]]:
    """Find the first non-basis among the first `cap` size-`size` subsets of G\\{0}.

    `args` is `(g, size, cap)`, one argument, so a wrapper can pass it on
    unread.  Subsets are visited in lexicographic order of their positions in
    `scan_order`, not of their element labels: a depth-first walk over
    positions 1..n-1 takes the element `order[p]` at position p and
    carries the ascending-walk bit-set of the current prefix, in elements.
    The walk only grows as elements are appended, and every value it
    reaches is an ordered sum of distinct elements, so once a prefix of d
    elements ending at position p reaches the whole group, all
    C(n-1-p, size-d) completions are bases and are counted without being
    visited.  A leaf whose walk falls short is escalated as an
    `ElementSet`, which carries its group (non-abelian groups only).

    A prefix whose walk is not full can still certify its subtree by
    growth.  Let B be its walk with 0, missing delta elements, and append
    x: the walk with 0 becomes B | (B + x), which is larger than B unless
    B + x = B.  Then B is a union of left cosets of <x>, and so is the
    rest of G, so delta is a multiple of ord(x).  Hence if delta is below
    the order of every element at a position after p, each append grows
    B until it is G, within delta appends.  An abelian group needs no
    order condition: the y with B + y = B form the stabiliser H of B,
    which only grows as elements are appended, since B | (B + x) is again
    a union of H-cosets.  So the appends that leave B unchanged are
    distinct nonzero elements of the last stabiliser H' before B is G, at
    most |H'| - 1 <= delta' - 1 of them for the last deficit delta', and
    the appends that grow B number at most delta - delta' + 1: any delta
    distinct nonzero appends make B whole (Kneser's theorem is the general
    form).  If delta is also below the k elements still to append, a
    later append puts 0 itself in the walk.  Then all C(n-1-p, k)
    completions are bases and are counted without being visited
    (Cauchy-Davenport in Z_p).  `_growth_limits` gives the order bound
    per position, n in an abelian group.

    The walk after a prefix depends only on the prefix's walk and the
    elements appended, so a subtree is settled when every leaf below it was
    visited or certified by growth and walked to the whole group: its frame
    returns True.  A settled subtree is recorded in `settled[d]` (keyed by
    the walk of its d+1-element prefix, valued by that prefix's last
    position p0).  A later prefix of the same length and walk ending at
    p >= p0 has a subset of those completions and is counted like a full
    prefix.  The memo restarts whenever the first position advances, which
    bounds its size.

    A prefix that a skip map (an automorphism, alone or followed by
    inversion; see `_skip_maps`) sends to an earlier set of positions has
    its subtree counted without being visited: if a set S with that prefix
    were the first non-basis, its image would be a non-basis earlier in
    scan order.  Sets of positions of one size follow scan order by the
    lowest position at which they differ, and the set holding it comes
    first.  For a canonical prefix (one that no map sends earlier), a map
    either fixes it as a set or has its lowest moved position m in it.  A
    child q then goes earlier under a fixing map exactly when q is sent
    below q, and under a moving map exactly when q is sent below m, or
    onto m and the rest of the two sets decides.  So a moving map that
    sends no position after q to or below m, or a fixing map that sends
    none below itself, can skip nothing in the subtree and is dropped
    (orderly generation: Read 1978, McKay 1998).  A frame carries its live
    maps as bit-sets of maps, one for the fixing maps and one per m, and
    the tables of `_skips` hold the maps that send each position below
    each position, so a test is a few bit-set operations per group of
    maps, however many maps the group holds.

    Where to test is one cost rule: the children of a prefix ending at q,
    with k elements to append after it, are tested while it has live maps
    and no more of them than the C(n-1-q, k) sets below it.  On a tested
    prefix's first visit its children sent below a threshold are marked
    (`noncanonical`); a child the scan enters is then checked against the
    maps that send it onto their m, and its live maps are built
    (`extend`).  The count and the find are those of the full scan in the
    same order at every cap.  A skipped subtree was not looked at, so,
    like a short leaf, it leaves its enclosing frames unsettled.

    The tested prefixes of each size are kept per table (`_skips`), keyed
    by their positions as a bit-set: an entry marks the children that go
    earlier and those whose own children are not tested.  A later scan of
    the size reads the entries instead of testing, and a child that it
    reaches first has its frame's live maps rebuilt from the root.  An
    entry with no child going earlier and no entry kept below it is
    dropped once its subtree is done, and its parent marks the child
    untested: later scans keep only entries that lead to a skip.

    Returns the number of subsets certified or examined and the first
    non-basis in scan order, as a sorted tuple of elements, or None.  A
    leaf that escalation cannot decide (it raises `CapacityError`) ends the
    scan uncounted, short of `cap`.
    """
    g, size, cap = args
    if cap <= 0:
        return 0, None
    n = g.n
    full = g.full_mask
    escalate = not g.is_abelian
    tables = g._chunk_tables
    order = g.scan_order
    shifts = range(0, n, CHUNK_BITS)
    last = size - 1
    maps, below, later, falls, prefixes = _skips(g)
    # counts[k][p]: the C(n-1-p, k) sets below a child at position p with k
    # elements still to append
    counts = [[math.comb(n - 1 - p, k) for p in range(n)] for k in range(size + 1)]
    # rooms[k][p]: the most elements the walk with 0 of a child at position
    # p, with k elements still to append, may hold for the scan to enter
    # it; a larger walk misses fewer than k elements and fewer than the
    # growth limit after p
    rooms = [[n - min(k, v) for v in _growth_limits(g)] for k in range(size)]
    path = [0] * size
    settled: list[dict[int, int]] = [{} for _ in range(size)]
    checked = 0
    # live maps are (fixed, moving): a bit-set of the maps that fix the
    # prefix, and pairs (m, bit-set of the maps whose lowest moved position
    # is m), one per m.  Every map fixes the empty prefix
    start = ((1 << len(maps)) - 1, ())
    tested = prefixes.setdefault(size, {})
    # the bits of an entry that mark children going earlier
    earlier = (1 << n) - 1

    def noncanonical(live: tuple, first: int, stop: int) -> int:
        """Positions q in [first, stop) that a live map sends below q if it fixes the prefix, or else below its m."""
        fixed, moving = live
        skip = 0
        for q in range(first, stop):
            at = below[q]
            if fixed & at[q]:
                skip |= 1 << q
            else:
                for m, group in moving:
                    if group & at[m]:
                        skip |= 1 << q
                        break
        return skip

    def extend(live: tuple, d: int) -> Optional[tuple]:
        """The live maps of `path[:d + 1]` from those of `path[:d]`, or None if one sends it earlier.

        No live map sends q = path[d] below q or its m (`noncanonical`).
        """
        fixed, moving = live
        q = path[d]
        at, after = below[q], later[q]
        stay = fixed & at[q + 1]
        rise = (fixed ^ stay) & after[q + 1]
        out = {q: rise} if rise else {}
        fixed = stay & falls[q]
        prefix = None
        for m, group in moving:
            onto = group & at[m + 1]
            rest = (group ^ onto) & after[m + 1]
            if rest:
                out[m] = out.get(m, 0) | rest
            if not onto:
                continue
            if prefix is None:
                prefix = path[: d + 1]
                rows = [below[p] for p in prefix]
            # q lands on m, so the prefix and its image agree up to m.  Past
            # m, an image in a gap between prefix positions sends the prefix
            # earlier, and a prefix position that no image lands on is the
            # new m; for all these maps at once
            low = m + 1
            for a in prefix:
                if a < low:
                    continue
                image = 0
                for row in rows:
                    if onto & (row[a] ^ row[low]):
                        return None
                    image |= row[a + 1] ^ row[a]
                moved = onto ^ onto & image
                if moved:
                    onto ^= moved
                    moved &= after[a + 1]
                    if moved:
                        out[a] = out.get(a, 0) | moved
                    if not onto:
                        break
                low = a + 1
            else:
                fixed |= onto & falls[q]
        return fixed, tuple(out.items())

    def worth(live: tuple, q: int, k: int) -> bool:
        """True when the children of a prefix ending at q, with k to append after them, are tested."""
        fixed, moving = live
        for _, group in moving:
            fixed |= group
        return 0 < fixed.bit_count() <= counts[k][q]

    def frame(d: int, r: int, held: int, live: Optional[tuple], node: Optional[int]) -> bool:
        """Scan the children of the prefix `path[:d]`, whose walk is r; True if settled.

        `held` is the prefix as a bit-set of positions, and `node` its entry
        in `tested`, or None when its children are not tested: bit p for a
        child that goes earlier, bit n + p for one that does not and whose
        children are not tested.  `live` is the prefix's live maps, or None
        when not built.
        """
        nonlocal checked
        memo = settled[d]
        # a plain loop: before Python 3.12 a comprehension is a function call
        chunks = []
        for c, sh in enumerate(shifts):
            v = r >> sh & CHUNK_MASK
            if v:
                chunks.append((c, v))
        k = last - d
        room, count = rooms[k], counts[k]
        clean = True
        kept = False
        for p in range(path[d - 1] + 1 if d else 1, n - k):
            if node is not None and node >> p & 1:
                clean = False
            else:
                a = order[p]
                per = tables[a]
                x = r | 1 << a
                for c, v in chunks:
                    x |= per[c][v]
                # a full walk, a memo hit and a walk bound to grow to the
                # whole group (see the docstring) settle the subtree
                if x != full and memo.get(x, n) > p and (not k or (x | 1).bit_count() <= room[p]):
                    path[d] = p
                    sub = held | 1 << p
                    state = entry = None
                    if node is not None and not node >> n + p & 1:
                        entry = tested.get(sub)
                        if entry is None:
                            # the first scan of this size to reach the child
                            if live is None:
                                live = start
                                for j in range(d):
                                    live = extend(live, j)
                            state = extend(live, d)
                            if state is None:
                                node |= 1 << p
                            elif k and worth(state, p, k):
                                entry = tested[sub] = noncanonical(state, p + 1, n - k + 1)
                            else:
                                node |= 1 << n + p
                            tested[held] = node
                    if node is not None and node >> p & 1:
                        clean = False
                    elif not k:
                        clean = False
                        leaf = ElementSet(g, sum(1 << order[q] for q in path))
                        try:
                            basis = escalate and _scan_escalate(leaf)
                        except CapacityError:
                            raise _ScanEnd(checked, None) from None
                        if not basis:
                            raise _ScanEnd(checked + 1, leaf.indices())
                    else:
                        if not d:
                            for m in settled:
                                m.clear()
                        # a descent happens only when no entry certifies it,
                        # so this p is the smallest seen for the walk
                        if frame(d + 1, x, sub, state, entry):
                            memo[x] = p
                        else:
                            clean = False
                        if entry is not None:
                            if sub in tested:
                                kept = True
                            else:
                                # nothing below the child goes earlier
                                node |= 1 << n + p
                                tested[held] = node
                        continue
            # a skipped subtree, a settled subtree or a basis leaf
            checked += count[p]
            if checked >= cap:
                raise _ScanEnd(cap, None)
        if d and not kept and node is not None and not node & earlier:
            # no child goes earlier and no tested child is kept: later
            # scans need not test this subtree
            del tested[held]
        return clean

    root = tested.get(0)
    if root is None and worth(start, 0, size):
        root = tested[0] = noncanonical(start, 1, n - last)
    try:
        frame(0, 0, 0, start, root)
    except _ScanEnd as end:
        return end.args
    finally:
        # `frame` calls itself, so its closure, memo included, is a cycle
        # that would wait for the cyclic collector: free it as the scan ends
        del frame
    return checked, None


def find_nonbases(
    g: GroupTable, size: int, *, budget: Optional[int] = None
) -> tuple[int, Optional[tuple[int, ...]], bool]:
    """Scan the size-`size` subsets of G\\{0} in scan order for a non-basis.

    Scan order is lexicographic in the positions of `g.scan_order`, which
    lists the orbits of `g.orbit_min` as blocks, largest first.  A
    subtree is counted without being visited when its prefix walks to the
    whole group, when its walk is bound to grow to the whole group with the
    elements still to append (in an abelian group, whenever it misses fewer
    elements than remain to append), when an earlier settled subtree
    (every leaf below it visited or certified by growth, and walked to the
    whole group) had the same walk, or when an automorphism or
    anti-automorphism sends its prefix earlier (see `_scan_task`).  The maps and their bit-set
    tables are built on the first scan of a table, and the prefixes tested
    at each size are kept, while the table lives.
    Returns (subsets checked, first non-basis or None, complete): the count
    is of subsets in scan order, the non-basis is the first in scan order
    (as a sorted tuple of elements), and complete means every subset was
    certified or a non-basis was found.  A budget caps the number of
    subsets examined or certified; a leaf that no route can decide also
    leaves the scan incomplete.  The empty set is a non-basis, so test the
    find with `is not None`.
    """
    if not 0 <= size <= g.n - 1:
        return 0, None, True
    total = math.comb(g.n - 1, size)
    cap = total if budget is None else min(total, budget)
    if size == 0:
        checked, found = (1, ()) if cap > 0 else (0, None)
    else:
        checked, found = _scan_task((g, size, cap))
    return checked, found, found is not None or checked >= total


# ---------------------------------------------------------------------------
# exhaustive search


def cr_exhaustive(g: GroupTable, budget: Optional[int] = None) -> CrCertificate:
    """Exact critical number by an upward exhaustive search.

    Starting just above the witness (or at size 2 without one), each size t
    is scanned for its first non-basis in scan order (see `find_nonbases`)
    until a scan finds none, so the witness and `subsets_checked` follow
    that order.  Non-bases are closed under taking subsets, so the
    non-basis of size t - 1 and the clean scan of size t make t exact; the
    formula oracle only supplies the tag.  If the budget runs out, or a
    leaf cannot be decided, a partial certificate with bounds only is
    returned.
    """
    t_start = time.perf_counter()
    n = g.n
    checked_total = 0
    known: dict[int, tuple[int, ...]] = {}
    try:
        witness = witness_lower_bound(g).witness
    except ValueError:
        witness = None
    if witness is not None:
        known[len(witness)] = witness
        checked_total += 1
        t = len(witness) + 1
    else:
        # only Z1 and groups of order >= 5 have no witness, and in the latter
        # no 2-subset (at most 4 sums) is a basis
        t = min(2, n)
    while True:
        remaining = None if budget is None else max(0, budget - checked_total)
        checked, found, complete = find_nonbases(g, t, budget=remaining)
        checked_total += checked
        if found is None:
            break
        known[t] = found
        t += 1

    if not complete:
        lower = 1 + max(known, default=0)
        return CrCertificate(
            group_name=g.name,
            n=n,
            method="exhaustive",
            value=None,
            lower_bound=lower,
            upper_bound=n,
            theorem_tag=None,
            witness=known.get(lower - 1),
            subsets_checked=checked_total,
            elapsed_ms=_elapsed_ms(t_start),
            notes=(
                "budget exhausted: bounds only"
                if remaining is not None and checked >= remaining
                else "a scan leaf went undecided: bounds only"
            ),
        )
    # every size below the first clean scan holds a non-basis; Z1's is the empty set
    assert t == 1 or t - 1 in known, f"{g.name}: no non-basis of size {t - 1}"
    formula = cr_formula(g)
    return CrCertificate(
        group_name=g.name,
        n=n,
        method="exhaustive",
        value=t,
        lower_bound=t,
        upper_bound=t,
        theorem_tag=formula.theorem_tag if formula is not None and formula.value == t else None,
        witness=known.get(t - 1, ()),
        subsets_checked=checked_total,
        elapsed_ms=_elapsed_ms(t_start),
    )


# ---------------------------------------------------------------------------
# sampled evidence


def cr_sampled_upper(
    g: GroupTable,
    t: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    include: Sequence[Sequence[int]] = (),
) -> CrCertificate:
    """Randomized evidence for cr <= t: seeded size-t draws checked for basis-ness.

    The bound is never claimed proven; a non-basis draw instead becomes a
    disproof witness raising the certified lower bound to t + 1.  Subsets in
    `include` are checked ahead of the random draws.
    """
    t_start = time.perf_counter()
    n = g.n
    if not 1 <= t <= n - 1:
        raise ValueError(f"sample size t={t} out of range 1..{n - 1}")
    if trials < 0 or trials + len(include) == 0:
        raise ValueError(f"a sample needs trials >= 0 and one subset to check, got {trials}")
    rng = random.Random(seed)
    checked = 0
    nonbases = 0
    first_witness: Optional[tuple[int, ...]] = None
    population = range(1, n)

    def check(members: tuple[int, ...]) -> None:
        nonlocal checked, nonbases, first_witness
        checked += 1
        if not covers_group(g, members):
            nonbases += 1
            if first_witness is None:
                first_witness = members

    for extra in include:
        check(tuple(sorted(extra)))
    for _ in range(trials):
        check(tuple(sorted(rng.sample(population, t))))

    if nonbases:
        lower, upper = t + 1, n
        notes = "sampled disproof: a non-basis of the sampled size was found"
    else:
        lower, upper = 1, t
        notes = "sampled evidence only: upper bound not proven"
    return CrCertificate(
        group_name=g.name,
        n=n,
        method="sampled_upper",
        value=None,
        lower_bound=lower,
        upper_bound=upper,
        theorem_tag=None,
        witness=first_witness,
        subsets_checked=checked,
        elapsed_ms=_elapsed_ms(t_start),
        nonbases_found=nonbases,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# resolving sequences


def resolving_sequence(g: GroupTable, x: ElementSet) -> ResolvingSequence:
    """Order a subset so each element maximizes the translate gain of its prefix.

    Built by greedy removal from the top: at each stage the element with the
    largest lambda against the closure of the remaining set (ties to the
    smallest index) is placed last.  The critical index is the largest t whose
    preceding prefix generates a proper subgroup.  The stage that leaves j
    elements has the prefix `ordering[:j]` as its set, so its closure is kept:
    a prefix whose closure with 0 holds more than n/2 elements generates the
    whole group (Lagrange), and its subgroup is not computed.
    """
    if len(x) == 0:
        raise ValueError("resolving sequence needs a nonempty set")
    if 0 in x:
        raise ValueError("resolving sequence input must not contain the identity")
    members = sorted(x.indices())
    k = len(members)
    ordering = [0] * k
    lambdas = [0] * k
    closures = [0] * k
    current = list(members)
    for i in range(k, 0, -1):
        b = exact_reach_mask(g, current)
        closures[i - 1] = b
        best_y = -1
        best_lam = -1
        for y in current:
            lam = lambda_bits(g, b, y)
            if lam > best_lam:
                best_lam = lam
                best_y = y
        ordering[i - 1] = best_y
        lambdas[i - 1] = best_lam
        current.remove(best_y)
    t = 1
    prefix = x.bits
    for j in range(k - 1, 0, -1):
        prefix &= ~(1 << ordering[j])
        if 2 * (closures[j - 1] | 1).bit_count() > g.n:
            continue
        if subgroup_mask(g, prefix) != g.full_mask:
            t = j + 1
            break
    return ResolvingSequence(
        ordering=tuple(ordering),
        lambdas=tuple(lambdas),
        critical_index=t,
        prefix_sizes=tuple(b.bit_count() for b in closures),
    )
