"""Critical-number computation: exhaustive search, formula oracle, witnesses."""

from __future__ import annotations

import math
import random
import time
import weakref
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

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
    quotient,
    smallest_prime_divisor,
    subgroup_mask,
    subgroups_of_index,
)
from .sumsets import (
    CapacityError,
    covers_group,
    exact_reach_mask,
    fixed_order_reach_mask,
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


def _witness_for_subgroup(g: GroupTable, sub: SubgroupInfo) -> CrCertificate:
    t0 = time.perf_counter()
    p = sub.index
    if not is_prime(p):
        raise ValueError(f"witness construction needs prime index, got {p}")
    if not sub.is_normal:
        raise ValueError("witness construction needs a normal subgroup")
    k_bits = sub.carrier.bits
    k_size = k_bits.bit_count()
    if k_size < p - 2:
        raise ValueError(
            f"witness construction needs {p - 2} coset elements but cosets have {k_size}"
        )
    x = next(i for i in range(g.n) if not k_bits >> i & 1)
    gk, proj = quotient(g, sub)
    coset_members = [i for i in range(g.n) if proj[i] == proj[x]]
    t_members = sorted(
        [i for i in range(1, g.n) if k_bits >> i & 1] + coset_members[: p - 2]
    )
    # every ordered sum of distinct members projects to a subset sum of their
    # images in the abelian G/K, so an unreached image of -x means the closure
    # misses the whole coset -x + K
    if fixed_order_reach_mask(gk, [proj[a] for a in t_members]) >> proj[g.inv[x]] & 1:
        raise RuntimeError(
            f"witness construction invalid for {g.name} with coset of {x}: "
            "the image in G/K reaches the inverse coset"
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


def witness_lower_bound(g: GroupTable, k: Optional[SubgroupInfo] = None) -> CrCertificate:
    """Certify cr >= n/p + p - 2 from a normal index-p subgroup.

    The witness takes every non-identity element of the subgroup plus p - 2
    elements of one generating coset: its closure provably misses the inverse
    coset, which is re-verified here by the subset sums of its image in the
    quotient by the subgroup.  With k omitted, the normal subgroup of index
    p (p the smallest prime divisor) with the smallest carrier bit-set is
    used: every such subgroup has n/p elements, so all give the same bound.
    """
    if k is not None:
        return _witness_for_subgroup(g, k)
    p = smallest_prime_divisor(g.n)
    subs = normal_subgroups_of_prime_index(g, p)
    if not subs:
        raise ValueError(f"{g.name} has no normal subgroup of index {p}")
    return _witness_for_subgroup(g, subs[0])


# ---------------------------------------------------------------------------
# subset scanning (shared by exhaustive search and the verifiers)

# the group of the running scan, for the one-argument escalation hook
_SCAN: dict = {}

# deepest frame whose children are tested for a canonical prefix (a frame
# at depth d tests prefixes of d + 1 positions); on the five order-27 scans
# at t = 10, depths 0 to 4 evaluate 151,353, 100,540, 54,510, 32,567 and
# 21,528 children.  Depth 4 makes a repeated scan faster, but the first
# scan of a table tests so many more prefixes that it runs slower than at
# depth 3 (see README.md)
_CANON_DEPTH = 3


def _scan_escalate(members: tuple[int, ...]) -> bool:
    """Slow-path cover check of a leaf whose ascending walk fell short."""
    return covers_group(_SCAN["g"], members)


# the most maps the canonical-prefix skip tests, the identity included.
# The automorphisms, alone and followed by inversion, are closed under
# composition up to this many, so a group with a huge Aut(G) stays cheap:
# Z2^5 has 9,999,360 automorphisms and Z3xZ3xZ3 11,232, and 2,048 of the
# latter evaluate as few order-27 children as 4,096 do
_MAP_LIMIT = 2048


def _pad(phi: bytes) -> bytes:
    """A map of at most 256 points as a `bytes.translate` table."""
    return phi + bytes(256 - len(phi))


def _automorphisms(g: GroupTable) -> list[bytes]:
    """Aut(G) as element maps, closed up to `_MAP_LIMIT` maps; the automorphic symmetries first.

    An automorphism is fixed by its images of a generating sequence.  The
    search picks images of the same element order one generator at a time
    and goes on only while they extend to a homomorphism of the subgroup
    spanned so far that sends no element but 0 to 0, so is one-to-one.  A
    full choice that some map of the group already makes is passed over by
    one set lookup; any other found automorphism joins the generators, and
    the group grows by whole cosets (Dimino's algorithm).  Search and growth
    stop at the limit.
    """
    n, op, orders = g.n, g.op, g.element_orders
    gens = generating_sequence(g)
    if g.is_abelian:
        group = [bytes(phi) for phi in g.symmetries]
    else:
        # each symmetry is an automorphism or an anti-automorphism, and on
        # a pair that does not commute only an automorphism keeps the order
        a, b = next((a, b) for a in range(n) for b in range(a) if op[a][b] != op[b][a])
        group = [bytes(phi) for phi in g.symmetries if phi[op[a][b]] == op[phi[a]][phi[b]]]
    # growing by cosets needs generators of the group so far: at first, all of it
    generators = list(group)
    known = set(group)
    made = {bytes(phi[s] for s in gens) for phi in group}
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
        # a new generator: add the left cosets x.H of the group H so far
        base = list(group)
        generators.append(bytes(phi))
        reps = [bytes(range(n))]
        for r in reps:
            for s in generators:
                x = r.translate(_pad(s))
                if x not in known and len(group) < _MAP_LIMIT:
                    table = _pad(x)
                    coset = [h.translate(table) for h in base]
                    known.update(coset)
                    made.update(bytes(c[t] for t in gens) for c in coset)
                    group.extend(coset)
                    reps.append(x)
    return group[:_MAP_LIMIT]


def _skip_maps(g: GroupTable) -> list[bytes]:
    """The maps the canonical-prefix skip tests, as maps of scan positions; identity excluded.

    They are the symmetries, then the automorphisms and the automorphisms
    followed by inversion, each once, at most `_MAP_LIMIT` in all: every
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
    maps = dict.fromkeys(map(bytes, g.symmetries))
    maps.update(dict.fromkeys(autos))
    maps.update(dict.fromkeys(phi.translate(inversion) for phi in autos))
    elements, positions = bytes(order), _pad(bytes(pos))
    return [
        elements.translate(_pad(phi)).translate(positions)
        for phi in list(maps)[1:_MAP_LIMIT]
    ]


# the skip maps of each table and the skip bit-set of each canonical prefix
# met so far, kept for the table's lifetime and keyed by its identity:
# equal tables built apart are kept apart, and hashing a table would read
# all of it
_SKIPS: dict[int, tuple[list, dict[tuple[int, ...], int]]] = {}


def _skips(g: GroupTable) -> tuple[list, dict[tuple[int, ...], int]]:
    """The table's skip maps and its memo of prefix skips, built on first use."""
    key = id(g)
    entry = _SKIPS.get(key)
    if entry is None:
        entry = _SKIPS[key] = (_skip_maps(g), {})
        weakref.finalize(g, _SKIPS.pop, key, None)
    return entry


def _noncanonical_children(maps: list[bytes], prefix: Sequence[int]) -> int:
    """Positions q after a canonical prefix that some map sends, with the prefix, earlier.

    Sets of positions of one size follow scan order by the lowest position
    at which they differ: the set holding it comes first.  A map that fixes
    the prefix as a set moves the prefix plus q earlier exactly when it
    moves q lower; every map fixes the empty prefix.  The prefix is
    canonical (no map sends it earlier), so for a map that moves it, the
    lowest such position m is in the prefix, and the prefix plus q goes
    earlier exactly when q is sent below m, or onto m and the rest decides.
    Returns a bit-set of positions.
    """
    if not maps:
        return 0
    n = len(maps[0])
    # the images of position q under every map are the bytes joined[q::n]
    joined = b"".join(maps)

    def sent_below(q: int, bound: int) -> bool:
        return any(v in joined[q::n] for v in range(1, bound))

    if not prefix:
        return sum(1 << q for q in range(1, n) if sent_below(q, q))
    held = 0
    images = [0] * len(maps)
    for p in prefix:
        held |= 1 << p
        images = [x | 1 << v for x, v in zip(images, joined[p::n])]
    first, head = prefix[-1] + 1, prefix[0]
    # every q that some map sends below the head is skipped: for each map,
    # m is the head or above, or the map fixes the prefix
    skip = sum(1 << q for q in range(first, n) if sent_below(q, head))
    rest = held ^ 1 << head
    for perm, image in zip(maps, images):
        if not image >> head & 1:
            # m is the head, sent onto by q alone; both sets then hold the
            # head, and the rest of the prefix against its image decides
            diff = image ^ rest
            low = diff & -diff
            if low & image:
                q = 1 << perm.index(head)
                if low < q:
                    skip |= q
            continue
        diff = image ^ held
        if not diff:
            for q in range(first, n):
                if perm[q] < q:
                    skip |= 1 << q
            continue
        m = (diff & -diff).bit_length() - 1
        # the preimages of the positions from the head to m, then of m
        for v in range(head + 1, m):
            skip |= 1 << perm.index(v)
        q = 1 << perm.index(m)
        moved = image | 1 << m
        diff = moved ^ (held | q)
        if diff & -diff & moved:
            skip |= q
    return skip


class _ScanEnd(Exception):
    """Cap reached, non-basis found or leaf undecided; args are the scan's result."""


def _scan_task(args: tuple[int, int]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Find the first non-basis among the first `cap` size-`size` subsets of G\\{0}.

    Subsets are visited in lexicographic order of their positions in
    `scan_order`, not of their element labels: a depth-first walk over
    positions 1..n-1 takes the element `order[p]` at position p and
    carries the ascending-walk bit-set of the current prefix, in elements.
    The walk only grows as elements are appended, and every value it
    reaches is an ordered sum of distinct elements, so once a prefix of d
    elements ending at position p reaches the whole group, all
    C(n-1-p, size-d) completions are bases and are counted without being
    visited.  A leaf whose walk falls short is escalated (non-abelian groups
    only).

    A prefix whose walk is not full can still certify its subtree by
    growth.  Let B be its walk with 0, missing delta elements, and append
    x: the walk with 0 becomes B | (B + x), which is larger than B unless
    B + x = B.  Then B is a union of left cosets of <x>, and so is the
    rest of G, so delta is a multiple of ord(x).  Hence if delta is below
    the order of every element at a position after p, each append grows
    B until it is G, within delta appends; if delta is also below the k
    elements still to append, a later append puts 0 itself in the walk.
    Then all C(n-1-p, k) completions are bases and are counted without
    being visited (Cauchy-Davenport in Z_p).

    The walk after a prefix depends only on the prefix's walk and the
    elements appended, so a subtree is settled when every leaf below it was
    visited or certified by growth and walked to the whole group: its frame
    returns True.  A settled subtree is recorded in `settled[d]` (keyed by
    the walk of its d+1-element prefix, valued by that prefix's last
    position p0).  A later prefix of the same length and walk ending at
    p >= p0 has a subset of those completions and is counted like a full
    prefix.  The memo restarts whenever the first position advances, which
    bounds its size.

    A prefix of at most `_CANON_DEPTH` + 1 positions that a skip map (an
    automorphism, alone or followed by inversion; see `_skip_maps`) sends
    to an earlier set of positions has its subtree counted without being
    visited: if a set S with that prefix were the first non-basis, its
    image would be a non-basis earlier in scan order.  The skip bit-set of
    each canonical prefix is computed once per table and kept (`_skips`),
    so only the first scan of a table pays for the tests.  The count and
    the find are those of the full scan in the same order at every cap.  A
    skipped subtree was not looked at, so, like a short leaf, it leaves its
    enclosing frames unsettled.

    Returns the number of subsets certified or examined and the first
    non-basis in scan order, as a sorted tuple of elements, or None.  A
    leaf that escalation cannot decide (it raises `CapacityError`) ends the
    scan uncounted, short of `cap`.
    """
    size, cap = args
    if cap <= 0:
        return 0, None
    g = _SCAN["g"]
    n = g.n
    full = g.full_mask
    escalate = not g.is_abelian
    tables = g._chunk_tables
    order = g.scan_order
    shifts = range(0, n, CHUNK_BITS)
    comb = math.comb
    last = size - 1
    maps, skips = _skips(g)
    # rooms[k][p]: the most elements the walk with 0 of a child at position
    # p, with k elements still to append, may hold for the scan to enter
    # it; a larger walk misses fewer than k elements and fewer than the
    # order of each element after p, the least of which is least[p]
    orders = g.element_orders
    least = [0] * n
    low = n
    for p in range(n - 1, 0, -1):
        low = least[p - 1] = min(low, orders[order[p]])
    rooms = [[n - min(k, v) for v in least] for k in range(size)]
    path = [0] * size
    settled: list[dict[int, int]] = [{} for _ in range(size)]
    checked = 0

    def frame(d: int, r: int) -> bool:
        """Scan the children of the prefix `path[:d]`, whose walk is r; True if settled."""
        nonlocal checked
        memo = settled[d]
        chunks = [(c, v) for c, sh in enumerate(shifts) if (v := r >> sh & CHUNK_MASK)]
        skip = 0
        if d <= _CANON_DEPTH:
            # the parent frame tested this prefix, so it is canonical
            prefix = tuple(path[:d])
            skip = skips.get(prefix)
            if skip is None:
                skip = skips[prefix] = _noncanonical_children(maps, prefix)
        k = last - d
        room = rooms[k]
        clean = True
        for p in range(path[d - 1] + 1 if d else 1, n - k):
            if skip >> p & 1:
                clean = False
            else:
                a = order[p]
                per = tables[a]
                x = r | 1 << a
                for c, v in chunks:
                    x |= per[c][v]
                if x != full and memo.get(x, n) > p:
                    path[d] = p
                    if not k:
                        clean = False
                        members = tuple(sorted(order[q] for q in path))
                        try:
                            basis = escalate and _scan_escalate(members)
                        except CapacityError:
                            raise _ScanEnd(checked, None) from None
                        if not basis:
                            raise _ScanEnd(checked + 1, members)
                    elif (x | 1).bit_count() <= room[p]:
                        if not d:
                            for m in settled:
                                m.clear()
                        # a descent happens only when no entry certifies it,
                        # so this p is the smallest seen for the walk
                        if frame(d + 1, x):
                            memo[x] = p
                        else:
                            clean = False
                        continue
                    # else the walk is bound to grow to the whole group
                    # (see the docstring), and the subtree is settled
            # a skipped subtree, a full walk, a memo hit, a subtree certified
            # by growth or a basis leaf
            checked += comb(n - 1 - p, k)
            if checked >= cap:
                raise _ScanEnd(cap, None)
        return clean

    try:
        frame(0, 0)
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
    lists the orbits under `g.symmetries` as blocks, largest first.  A
    subtree is counted without being visited when its prefix walks to the
    whole group, when its walk is bound to grow to the whole group with the
    elements still to append, when an earlier settled subtree (every leaf
    below it visited or certified by growth, and walked to the whole group)
    had the same walk, or when an automorphism or anti-automorphism sends
    its prefix earlier (see `_scan_task`); the maps and the skip of each
    prefix are built on the first scan of a table and kept while the table
    lives.
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
        _SCAN["g"] = g
        checked, found = _scan_task((size, cap))
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
