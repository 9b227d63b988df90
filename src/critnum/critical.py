"""Critical-number computation: exhaustive search, formula oracle, witnesses."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import (
    CHUNK_BITS,
    CHUNK_MASK,
    ElementSet,
    GroupTable,
    SubgroupInfo,
    is_nilpotent,
    is_prime,
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
        return {
            "group_name": self.group_name,
            "n": self.n,
            "method": self.method,
            "value": self.value,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "theorem_tag": self.theorem_tag,
            "witness": list(self.witness) if self.witness is not None else None,
            "subsets_checked": self.subsets_checked,
            "elapsed_ms": self.elapsed_ms,
            "nonbases_found": self.nonbases_found,
            "notes": self.notes,
        }


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
    has_index2 = n % 2 == 0 and bool(subgroups_of_index(g, 2))
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
    quotient by the subgroup.  With k omitted, all normal subgroups of index
    p (p the smallest prime divisor) are tried and the best bound kept.
    """
    if k is not None:
        return _witness_for_subgroup(g, k)
    p = smallest_prime_divisor(g.n)
    candidates = [s for s in subgroups_of_index(g, p) if s.is_normal]
    if not candidates:
        raise ValueError(f"{g.name} has no normal subgroup of index {p}")
    best: Optional[CrCertificate] = None
    for sub in candidates:
        cert = _witness_for_subgroup(g, sub)
        if best is None or cert.lower_bound > best.lower_bound:
            best = cert
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# subset scanning (shared by exhaustive search and the verifiers)

# the group of the running scan, for the one-argument escalation hook
_SCAN: dict = {}

# deepest frame whose children are tested for a canonical prefix (a frame
# at depth d tests prefixes of d + 1 positions); on the five order-27 scans
# at t = 10, depths 0, 2, 3 and 4 evaluate 183,773, 114,021, 101,519 and
# 94,673 children.  Depth 3 also runs faster than depth 2 (see README.md),
# and at depth 4 the tests cost more than they save
_CANON_DEPTH = 3


def _scan_escalate(members: tuple[int, ...]) -> bool:
    """Slow-path cover check of a leaf whose ascending walk fell short."""
    return covers_group(_SCAN["g"], members)


# a map of scan positions, the bit-set of positions it moves lower, and
# `below`, where below[b] is the bit-set of positions it sends below b
_PositionMap = tuple[tuple[int, ...], int, list[int]]


def _symmetry_masks(g: GroupTable) -> list[_PositionMap]:
    """Each symmetry but the identity as a map of scan positions, with its bit-sets.

    Position q goes to the position of the image of the element at q, so
    `order[perm[q]] == phi[order[q]]` for `order = g.scan_order`.
    """
    order = g.scan_order
    pos = {a: p for p, a in enumerate(order)}
    out = []
    for phi in g.symmetries[1:]:
        perm = tuple(pos[phi[a]] for a in order)
        below = [0]
        # positions by their images, ascending: the preimage of 0, 1, ...
        for q in sorted(range(g.n), key=perm.__getitem__):
            below.append(below[-1] | 1 << q)
        lower = sum(1 << q for q, v in enumerate(perm) if v < q)
        out.append((perm, lower, below))
    return out


def _noncanonical_children(syms: list[_PositionMap], prefix: Sequence[int]) -> int:
    """Positions q after a canonical prefix that a symmetry maps the prefix plus q earlier.

    Sets of positions of one size follow scan order by the lowest position
    at which they differ: the set holding it comes first.  The prefix is
    canonical (no symmetry maps it earlier), so for a map that moves it,
    the lowest such position m is in the prefix, and the prefix plus q goes
    earlier exactly when q is sent below m, or onto m and the rest decides.
    A map that fixes the prefix as a set moves the prefix plus q earlier
    exactly when it moves q lower.  Returns a bit-set of positions.
    """
    held = 0
    for p in prefix:
        held |= 1 << p
    skip = 0
    for perm, lower, below in syms:
        image = 0
        for p in prefix:
            image |= 1 << perm[p]
        diff = image ^ held
        if not diff:
            skip |= lower
            continue
        m = (diff & -diff).bit_length() - 1
        skip |= below[m]
        # the one child sent onto m, as a bit
        q = below[m + 1] ^ below[m]
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

    The walk after a prefix depends only on the prefix's walk and the
    elements appended, so a subtree is settled when every leaf below it was
    visited and walked to the whole group: its frame returns True.  A
    settled subtree is recorded in `settled[d]` (keyed by the walk of its
    d+1-element prefix, valued by that prefix's last position p0).  A later
    prefix of the same length and walk ending at p >= p0 has a subset of
    those completions and is counted like a full prefix.  The memo restarts
    whenever the first position advances, which bounds its size.

    A prefix of at most `_CANON_DEPTH` + 1 positions that a symmetry maps
    to an earlier set of positions has its subtree counted without being
    visited: if a set S with that prefix were the first non-basis, its
    image would be a non-basis earlier in scan order.  At depth 0 these are
    the first positions that are not the head of their orbit block.  The
    count and the find are those of the full scan in the same order at
    every cap.  A skipped subtree was not looked at, so, like a short leaf,
    it leaves its enclosing frames unsettled.

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
    syms = _symmetry_masks(g)
    path = [0] * size
    settled: list[dict[int, int]] = [{} for _ in range(size)]
    checked = 0

    def frame(d: int, r: int) -> bool:
        """Scan the children of the prefix `path[:d]`, whose walk is r; True if settled."""
        nonlocal checked
        memo = settled[d]
        chunks = [(c, v) for c, sh in enumerate(shifts) if (v := r >> sh & CHUNK_MASK)]
        # the parent frame tested this prefix, so it is canonical
        skip = _noncanonical_children(syms, path[:d]) if d <= _CANON_DEPTH else 0
        clean = True
        for p in range(path[d - 1] + 1 if d else 1, n - last + d):
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
                    if d < last:
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
                    clean = False
                    members = tuple(sorted(order[q] for q in path))
                    try:
                        basis = escalate and _scan_escalate(members)
                    except CapacityError:
                        raise _ScanEnd(checked, None) from None
                    if not basis:
                        raise _ScanEnd(checked + 1, members)
            # a skipped subtree, a full walk, a memo hit or a basis leaf
            checked += comb(n - 1 - p, last - d)
            if checked >= cap:
                raise _ScanEnd(cap, None)
        return clean

    try:
        frame(0, 0)
    except _ScanEnd as end:
        return end.args
    return checked, None


def find_nonbases(
    g: GroupTable, size: int, *, budget: Optional[int] = None
) -> tuple[int, Optional[tuple[int, ...]], bool]:
    """Scan the size-`size` subsets of G\\{0} in scan order for a non-basis.

    Scan order is lexicographic in the positions of `g.scan_order`, which
    lists the orbits under `g.symmetries` as blocks, largest first.
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
