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
    smallest_prime_divisor,
    subgroup_mask,
    subgroups_of_index,
)
from .sumsets import DEFAULT_MASK_LIMIT, covers_group, exact_reach_mask, lambda_bits

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


def _left_coset_bits(g: GroupTable, x: int, k_bits: int) -> int:
    out = 0
    row = g.op[x]
    b = k_bits
    while b:
        h = (b & -b).bit_length() - 1
        b &= b - 1
        out |= 1 << row[h]
    return out


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
    coset = _left_coset_bits(g, x, k_bits)
    coset_members = [i for i in range(g.n) if coset >> i & 1]
    t_members = sorted(
        [i for i in range(1, g.n) if k_bits >> i & 1] + coset_members[: p - 2]
    )
    reach = exact_reach_mask(g, t_members)
    inv_coset = _left_coset_bits(g, g.inv[x], k_bits)
    if inv_coset & ~reach == 0:
        raise RuntimeError(
            f"witness construction invalid for {g.name} with coset of {x}: "
            "the closure covers the inverse coset"
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
    coset, which is re-verified here by exact computation.  With k omitted,
    all normal subgroups of index p (p the smallest prime divisor) are tried
    and the best bound kept.
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

# the group and mask limit of the running scan, for the one-argument escalation hook
_SCAN: dict = {}


def _scan_escalate(members: tuple[int, ...]) -> bool:
    """Slow-path cover check of a leaf whose ascending walk fell short."""
    return covers_group(_SCAN["g"], members, _SCAN["mask_limit"])


def _scan_task(args: tuple[int, int, int]) -> tuple[int, list[tuple[int, ...]]]:
    """Certify the first `cap` size-`size` subsets of G\\{0} in lexicographic order.

    A depth-first walk over the subsets carries the ascending-walk bit-set of
    the current prefix.  The walk only grows as elements are appended, and
    every value it reaches is an ordered sum of distinct elements, so once a
    prefix of d elements ending in `a` reaches the whole group, all
    C(n-1-a, size-d) completions are bases and are counted without being
    visited.  A leaf whose walk falls short is escalated (non-abelian groups
    only).

    Returns the number of subsets certified or examined and the non-bases
    found (stopping after `limit` finds when limit > 0).
    """
    size, cap, limit = args
    g = _SCAN["g"]
    n = g.n
    full = g.full_mask
    escalate = not g.is_abelian
    tables = g._chunk_tables
    shifts = range(0, n, CHUNK_BITS)
    comb = math.comb
    checked = 0
    found: list[tuple[int, ...]] = []
    if cap <= 0:
        return checked, found
    last = size - 1
    path = [0] * size
    reach = [0]
    stack = [iter(range(1, n - last))]
    while stack:
        d = len(stack) - 1
        r = reach[d]
        chunks = [(c, v) for c, sh in enumerate(shifts) if (v := r >> sh & CHUNK_MASK)]
        for a in stack[d]:
            per = tables[a]
            x = r | 1 << a
            for c, v in chunks:
                x |= per[c][v]
            if x == full:
                checked += comb(n - 1 - a, last - d)
                if checked >= cap:
                    return cap, found
                continue
            path[d] = a
            if d < last:
                reach.append(x)
                stack.append(iter(range(a + 1, n - last + d + 1)))
                break
            checked += 1
            members = tuple(path)
            if not (escalate and _scan_escalate(members)):
                found.append(members)
                if limit and len(found) >= limit:
                    return checked, found
            if checked >= cap:
                return checked, found
        else:
            stack.pop()
            reach.pop()
    return checked, found


def find_nonbases(
    g: GroupTable,
    size: int,
    *,
    jobs: int = 1,
    budget: Optional[int] = None,
    limit: int = 1,
    mask_limit: int = DEFAULT_MASK_LIMIT,
) -> tuple[int, list[tuple[int, ...]], bool]:
    """Scan all size-`size` subsets of G\\{0} in lexicographic order for non-bases.

    Returns (subsets checked, non-bases found, complete) where complete means
    the scan either covered every subset or stopped early at the find limit.
    A budget caps the number of subsets examined or certified.  `jobs` is
    accepted but unused: the scan is serial.
    """
    if not 0 <= size <= g.n - 1:
        return 0, [], True
    total = math.comb(g.n - 1, size)
    cap = total if budget is None else min(total, budget)
    if size == 0:
        checked, found = (1, [()]) if cap > 0 else (0, [])
    else:
        _SCAN.update(g=g, mask_limit=mask_limit)
        checked, found = _scan_task((size, cap, limit))
    complete = cap >= total or (limit and len(found) >= limit)
    return checked, found, bool(complete)


# ---------------------------------------------------------------------------
# exhaustive search


def cr_exhaustive(
    g: GroupTable, budget: Optional[int] = None, jobs: int = 1
) -> CrCertificate:
    """Exact critical number by monotone exhaustive search.

    A candidate is taken from the formula oracle (or the witness bound) and
    adjusted until every subset of size t is a basis while some subset of
    size t - 1 is not; downward closure of non-bases makes that value exact.
    If the budget runs out first, a partial certificate with bounds only is
    returned.  `jobs` is accepted but unused: the scan is serial.
    """
    t_start = time.perf_counter()
    n = g.n
    checked_total = 0
    known: dict[int, tuple[int, ...]] = {}

    formula = cr_formula(g)
    witness_cert: Optional[CrCertificate] = None
    try:
        witness_cert = witness_lower_bound(g)
    except ValueError:
        pass
    if witness_cert is not None and witness_cert.witness is not None:
        known[len(witness_cert.witness)] = witness_cert.witness
        checked_total += 1
    if formula is not None and formula.value is not None:
        t = formula.value
    elif witness_cert is not None:
        t = witness_cert.lower_bound
    else:
        t = 2
    t = max(1, min(t, n))

    def remaining() -> Optional[int]:
        return None if budget is None else max(0, budget - checked_total)

    def partial() -> CrCertificate:
        lower = 1 + max(known, default=0)
        witness = known.get(max(known)) if known else None
        return CrCertificate(
            group_name=g.name,
            n=n,
            method="exhaustive",
            value=None,
            lower_bound=lower,
            upper_bound=n,
            theorem_tag=None,
            witness=witness,
            subsets_checked=checked_total,
            elapsed_ms=_elapsed_ms(t_start),
            notes="budget exhausted: bounds only",
        )

    while True:
        if t <= n - 1:
            checked, found, complete = find_nonbases(g, t, budget=remaining(), limit=1)
            checked_total += checked
            if found:
                known[t] = found[0]
                t += 1
                continue
            if not complete:
                return partial()
        if t - 1 in known or t - 1 == 0:
            value = t
            witness = known.get(t - 1, ())
            break
        checked, found, complete = find_nonbases(g, t - 1, budget=remaining(), limit=1)
        checked_total += checked
        if found:
            known[t - 1] = found[0]
            value = t
            witness = found[0]
            break
        if not complete:
            return partial()
        t -= 1

    tag = None
    if formula is not None and formula.value == value:
        tag = formula.theorem_tag
    return CrCertificate(
        group_name=g.name,
        n=n,
        method="exhaustive",
        value=value,
        lower_bound=value,
        upper_bound=value,
        theorem_tag=tag,
        witness=tuple(witness),
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
    preceding prefix generates a proper subgroup.
    """
    if len(x) == 0:
        raise ValueError("resolving sequence needs a nonempty set")
    if 0 in x:
        raise ValueError("resolving sequence input must not contain the identity")
    members = sorted(x.indices())
    k = len(members)
    ordering = [0] * k
    lambdas = [0] * k
    prefix_sizes = [0] * k
    current = list(members)
    for i in range(k, 0, -1):
        b = exact_reach_mask(g, current)
        best_y = -1
        best_lam = -1
        for y in current:
            lam = lambda_bits(g, b, y)
            if lam > best_lam:
                best_lam = lam
                best_y = y
        ordering[i - 1] = best_y
        lambdas[i - 1] = best_lam
        prefix_sizes[i - 1] = b.bit_count()
        current.remove(best_y)
    t = 1
    prefix = x.bits
    for j in range(k - 1, 0, -1):
        prefix &= ~(1 << ordering[j])
        if subgroup_mask(g, prefix) != g.full_mask:
            t = j + 1
            break
    return ResolvingSequence(
        ordering=tuple(ordering),
        lambdas=tuple(lambdas),
        critical_index=t,
        prefix_sizes=tuple(prefix_sizes),
    )
