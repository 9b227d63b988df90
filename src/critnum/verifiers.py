"""Desk-scale verifiers: exhaustive or seeded checks with counterexample capture."""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional, Sequence

from .catalog import ORDER27_NAMES, catalog_group, catalog_init, resolve_group
from .critical import DEFAULT_SEED, cr_exhaustive, cr_formula, find_nonbases, resolving_sequence
from .groups import (
    ElementSet,
    GroupTable,
    cyclic,
    is_prime,
    smallest_prime_divisor,
    subgroup_mask,
)
from .sumsets import (
    covers_group,
    exact_reach_mask,
    fixed_order_reach_mask,
    fold_cd,
    lambda_bits,
    sigma_r,
    sumset_bits,
)

DEFAULT_TRIALS = 10_000

LEMMA_IDS = (
    "L2.1",
    "L2.2",
    "L2.3",
    "L2.4",
    "L2.5i",
    "L2.5ii",
    "L2.5iii",
    "L2.5iv",
    "L2.5v",
    "L2.6",
    "INEQ2.3",
    "INEQ2.4",
    "CDFOLD",
    "T1.3small",
)


@dataclass
class VerificationReport:
    """Outcome of one verification job; failures hold replayable witness inputs."""

    lemma_id: str
    group_name: str
    mode: str
    cases_checked: int
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)
    seed: Optional[int] = None
    trials: Optional[int] = None
    jobs: int = 1
    elapsed_ms: int = 0
    complete: bool = True
    notes: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "group_name": self.group_name,
            "mode": self.mode,
            "cases_checked": self.cases_checked,
            "skipped": self.skipped,
            "failures": self.failures,
            "seed": self.seed,
            "trials": self.trials,
            "jobs": self.jobs,
            "elapsed_ms": self.elapsed_ms,
            "complete": self.complete,
            "notes": self.notes,
        }


def _ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def _group_rng(seed: int, g: GroupTable) -> random.Random:
    return random.Random((seed * 1_000_003 + zlib.crc32(g.name.encode())) & 0xFFFFFFFF)


def _pick_mode(mode: Optional[str], g: GroupTable, exhaustive_cap: int) -> str:
    if mode in ("exhaustive", "sampled"):
        return mode
    return "exhaustive" if g.n <= exhaustive_cap else "sampled"


# ---------------------------------------------------------------------------
# L2.1: A + B covers the group whenever |A| + |B| exceeds its order


def verify_L2_1(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    t0 = time.perf_counter()
    n = g.n
    full = g.full_mask
    mode = _pick_mode(mode, g, 10)
    cases = 0
    failures: list[dict] = []
    if mode == "exhaustive":
        by_size: dict[int, list[int]] = {}
        for size in range(1, n + 1):
            by_size[size] = [
                sum(1 << i for i in comb) for comb in combinations(range(n), size)
            ]
        for sa in range(1, n + 1):
            for sb in range(n + 1 - sa, n + 1):
                for a_bits in by_size[sa]:
                    for b_bits in by_size[sb]:
                        cases += 1
                        if sumset_bits(g, a_bits, b_bits) != full:
                            failures.append({"A": _bits_list(a_bits), "B": _bits_list(b_bits)})
        report_trials = None
    else:
        rng = _group_rng(seed, g)
        for _ in range(trials):
            sa = rng.randint(1, n)
            sb = rng.randint(n + 1 - sa, n)
            a_bits = sum(1 << i for i in rng.sample(range(n), sa))
            b_bits = sum(1 << i for i in rng.sample(range(n), sb))
            cases += 1
            if sumset_bits(g, a_bits, b_bits) != full:
                failures.append({"A": _bits_list(a_bits), "B": _bits_list(b_bits)})
        report_trials = trials
    return VerificationReport(
        lemma_id="L2.1",
        group_name=g.name,
        mode=mode,
        cases_checked=cases,
        failures=failures,
        seed=seed if mode == "sampled" else None,
        trials=report_trials,
        elapsed_ms=_ms(t0),
    )


def _bits_list(bits: int) -> list[int]:
    out = []
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out


# ---------------------------------------------------------------------------
# L2.2: in an abelian group of order pq, every (p+q-1)-subset avoiding 0 is a basis


def verify_L2_2(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> VerificationReport:
    t0 = time.perf_counter()
    p = smallest_prime_divisor(g.n) if g.n > 1 else 1
    q = g.n // p
    if not (g.is_abelian and is_prime(p) and is_prime(q)):
        raise ValueError(
            f"verify L2.2 needs an abelian group of order pq, got {g.name} of order {g.n}"
        )
    size = p + q - 1
    mode = _pick_mode(mode, g, 35)
    failures: list[dict] = []
    if mode == "exhaustive":
        checked, found, complete = find_nonbases(g, size, jobs=jobs, limit=8)
        for comb in found:
            failures.append({"set": list(comb)})
        report_trials = None
        report_seed = None
    else:
        rng = _group_rng(seed, g)
        checked = 0
        complete = True
        for _ in range(trials):
            comb = tuple(sorted(rng.sample(range(1, g.n), size)))
            checked += 1
            if not covers_group(g, comb):
                failures.append({"set": list(comb)})
        report_trials = trials
        report_seed = seed
    return VerificationReport(
        lemma_id="L2.2",
        group_name=g.name,
        mode=mode,
        cases_checked=checked,
        failures=failures,
        seed=report_seed,
        trials=report_trials,
        jobs=jobs,
        elapsed_ms=_ms(t0),
        complete=complete,
    )


# ---------------------------------------------------------------------------
# L2.3: a generating set always contains a good translate direction


def _l23_holds(g: GroupTable, s_members: Sequence[int], b_bits: int) -> bool:
    """max lambda over the set vs min((|B|+1)/2, (|S u -S|+2)/4), by cross-multiplication."""
    su_bits = 0
    for x in s_members:
        su_bits |= (1 << x) | (1 << g.inv[x])
    b_size = b_bits.bit_count()
    u = su_bits.bit_count()
    bound4 = min(2 * (b_size + 1), u + 2)
    best = 0
    for x in s_members:
        lam = lambda_bits(g, b_bits, x)
        if lam > best:
            best = lam
            if 4 * best >= bound4:
                return True
    return 4 * best >= bound4


def verify_L2_3(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    max_set_size: Optional[int] = None,
    max_b_size: Optional[int] = None,
) -> VerificationReport:
    t0 = time.perf_counter()
    n = g.n
    mode = _pick_mode(mode, g, 10)
    b_cap = n // 2 if max_b_size is None else min(max_b_size, n // 2)
    cases = 0
    skipped = 0
    failures: list[dict] = []
    if mode == "exhaustive":
        s_cap = n - 1 if max_set_size is None else min(max_set_size, n - 1)
        gen_sets = []
        for size in range(1, s_cap + 1):
            for comb in combinations(range(1, n), size):
                if subgroup_mask(g, sum(1 << i for i in comb)) == g.full_mask:
                    gen_sets.append(comb)
                else:
                    skipped += 1
        b_list = []
        for size in range(1, b_cap + 1):
            for comb in combinations(range(n), size):
                b_list.append(sum(1 << i for i in comb))
        for s_members in gen_sets:
            for b_bits in b_list:
                cases += 1
                if not _l23_holds(g, s_members, b_bits):
                    failures.append({"set": list(s_members), "B": _bits_list(b_bits)})
        report_trials = None
        report_seed = None
    else:
        rng = _group_rng(seed, g)
        s_cap = min(8, n - 1) if max_set_size is None else min(max_set_size, n - 1)
        for _ in range(trials):
            s_members = tuple(sorted(rng.sample(range(1, n), rng.randint(1, s_cap))))
            if subgroup_mask(g, sum(1 << i for i in s_members)) != g.full_mask:
                skipped += 1
                continue
            b_size = rng.randint(1, b_cap)
            b_bits = sum(1 << i for i in rng.sample(range(n), b_size))
            cases += 1
            if not _l23_holds(g, s_members, b_bits):
                failures.append({"set": list(s_members), "B": _bits_list(b_bits)})
        report_trials = trials
        report_seed = seed
    return VerificationReport(
        lemma_id="L2.3",
        group_name=g.name,
        mode=mode,
        cases_checked=cases,
        skipped=skipped,
        failures=failures,
        seed=report_seed,
        trials=report_trials,
        elapsed_ms=_ms(t0),
    )


# ---------------------------------------------------------------------------
# L2.4: in odd order, sign-disjoint sets of size >= 3 have closure >= 2|S|


def _inverse_pairs(g: GroupTable) -> list[tuple[int, int]]:
    return [(x, g.inv[x]) for x in range(1, g.n) if x < g.inv[x]]


def _l24_holds(g: GroupTable, members: tuple[int, ...]) -> bool:
    need = 2 * len(members)
    r = fixed_order_reach_mask(g, members)
    if r.bit_count() >= need:
        return True
    if g.is_abelian:
        return False
    return exact_reach_mask(g, members).bit_count() >= need


def verify_L2_4(
    g: GroupTable,
    min_size: int = 3,
    max_size: int = 6,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    t0 = time.perf_counter()
    if g.n % 2 == 0:
        raise ValueError("this check applies to odd-order groups only")
    mode = _pick_mode(mode, g, 27)
    pairs = _inverse_pairs(g)
    cases = 0
    failures: list[dict] = []
    if mode == "exhaustive":
        for size in range(min_size, max_size + 1):
            if size > len(pairs):
                break
            for chosen in combinations(pairs, size):
                for signs in product((0, 1), repeat=size):
                    members = tuple(sorted(pair[s] for pair, s in zip(chosen, signs)))
                    cases += 1
                    if not _l24_holds(g, members):
                        failures.append({"set": list(members)})
        report_trials = None
        report_seed = None
    else:
        rng = _group_rng(seed, g)
        for _ in range(trials):
            size = rng.randint(min_size, min(max_size, len(pairs)))
            chosen = rng.sample(pairs, size)
            members = tuple(sorted(pair[rng.randint(0, 1)] for pair in chosen))
            cases += 1
            if not _l24_holds(g, members):
                failures.append({"set": list(members)})
        report_trials = trials
        report_seed = seed
    return VerificationReport(
        lemma_id="L2.4",
        group_name=g.name,
        mode=mode,
        cases_checked=cases,
        failures=failures,
        seed=report_seed,
        trials=report_trials,
        elapsed_ms=_ms(t0),
    )


# ---------------------------------------------------------------------------
# L2.5 (i)-(v): closure floors in groups of order 9


def verify_L2_5(g: GroupTable, item: str) -> VerificationReport:
    t0 = time.perf_counter()
    if g.n != 9:
        raise ValueError(f"this check applies to groups of order 9, got order {g.n}")
    if item not in ("i", "ii", "iii", "iv", "v"):
        raise ValueError(f"item must be one of i..v, got {item!r}")
    n = g.n
    full = g.full_mask
    translate = g.translate
    cases = 0
    skipped = 0
    failures: list[dict] = []

    if item == "i":
        for comb in combinations(range(n), 3):
            reach = exact_reach_mask(g, comb)
            if reach & 1:
                skipped += 1
                continue
            cases += 1
            if reach.bit_count() < 6:
                failures.append({"set": list(comb), "closure_size": reach.bit_count()})
    elif item == "ii":
        for comb in combinations(range(1, n), 3):
            cases += 1
            if exact_reach_mask(g, comb).bit_count() < 5:
                failures.append({"set": list(comb)})
    elif item == "iii":
        for comb in combinations(range(1, n), 4):
            cases += 1
            if exact_reach_mask(g, comb).bit_count() < 7:
                failures.append({"set": list(comb)})
    elif item == "iv":
        for comb in combinations(range(n), 4):
            cases += 1
            pair_sums = sigma_r(g, ElementSet.from_indices(g, comb), 2)
            if len(pair_sums) < 5:
                failures.append({"set": list(comb), "pair_sums": list(pair_sums)})
    else:
        a_sets = list(combinations(range(n), 4))
        b_sets = []
        for size in range(2, n + 1):
            for comb in combinations(range(n), size):
                b_sets.append(comb)
        for a_comb in a_sets:
            a_bits = sum(1 << i for i in a_comb)
            for b_comb in b_sets:
                cases += 1
                out = 0
                count = 0
                for x in b_comb:
                    out |= translate(a_bits, x)
                    count = out.bit_count()
                    if count >= 5:
                        break
                if count < 5:
                    failures.append({"A": list(a_comb), "B": list(b_comb)})
    return VerificationReport(
        lemma_id=f"L2.5{item}",
        group_name=g.name,
        mode="exhaustive",
        cases_checked=cases,
        skipped=skipped,
        failures=failures,
        elapsed_ms=_ms(t0),
    )


def run_L2_5(g: GroupTable) -> list[VerificationReport]:
    return [verify_L2_5(g, item) for item in ("i", "ii", "iii", "iv", "v")]


# ---------------------------------------------------------------------------
# L2.6: every group of order 27 has critical number 10


def verify_L2_6(
    group: Optional[str] = None,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> VerificationReport:
    t0 = time.perf_counter()
    if group is None:
        groups = [catalog_group(name) for name in ORDER27_NAMES]
        group_name = "*"
    else:
        g = resolve_group(group)
        if g.n != 27:
            raise ValueError(f"group {g.name} has order {g.n}, expected 27")
        groups = [g]
        group_name = g.name
    cases = 0
    failures: list[dict] = []
    complete = True
    for g in groups:
        cert = cr_exhaustive(g, budget=budget, jobs=jobs)
        cases += cert.subsets_checked
        if cert.value is None:
            complete = False
        elif cert.value != 10:
            failures.append({"group": g.name, "cr": cert.value, "expected": 10})
    return VerificationReport(
        lemma_id="L2.6",
        group_name=group_name,
        mode="exhaustive",
        cases_checked=cases,
        failures=failures,
        jobs=jobs,
        elapsed_ms=_ms(t0),
        complete=complete,
    )


# ---------------------------------------------------------------------------
# T1.3 at small even orders: cr equals n/2 (4 at order 6) given an index-2 subgroup


def verify_T1_3_small(jobs: int = 1, budget: Optional[int] = None) -> VerificationReport:
    t0 = time.perf_counter()
    cases = 0
    failures: list[dict] = []
    excluded = []
    complete = True
    for entry in catalog_init():
        if entry.order % 2 or not 6 <= entry.order <= 16 or entry.abelian:
            continue
        g = catalog_group(entry.name)
        if not entry.has_index2_subgroup:
            cases += 1
            pred = cr_formula(g)
            if pred is not None and pred.theorem_tag in ("T1.3i", "T1.3ii"):
                failures.append(
                    {"group": entry.name, "error": "predicate should have excluded this group"}
                )
            else:
                excluded.append(entry.name)
            continue
        expected = 4 if entry.order == 6 else entry.order // 2
        cert = cr_exhaustive(g, budget=budget, jobs=jobs)
        cases += 1
        if cert.value is None:
            complete = False
        elif cert.value != expected:
            failures.append({"group": entry.name, "cr": cert.value, "expected": expected})
    notes = None
    if excluded:
        notes = "predicate correctly excludes: " + ", ".join(excluded)
    return VerificationReport(
        lemma_id="T1.3small",
        group_name="*",
        mode="exhaustive",
        cases_checked=cases,
        failures=failures,
        jobs=jobs,
        elapsed_ms=_ms(t0),
        complete=complete,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# inequality (2.3): removing y from S costs at least lambda of the closure


def verify_ineq_2_3(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    max_size: Optional[int] = None,
) -> VerificationReport:
    t0 = time.perf_counter()
    n = g.n
    mode = _pick_mode(mode, g, 10)
    cases = 0
    failures: list[dict] = []

    def check(members: tuple[int, ...], y: int) -> None:
        nonlocal cases
        cases += 1
        b = exact_reach_mask(g, members)
        rest = tuple(m for m in members if m != y)
        sub = exact_reach_mask(g, rest)
        if b.bit_count() < sub.bit_count() + lambda_bits(g, b, y):
            failures.append({"set": list(members), "y": y})

    if mode == "exhaustive":
        cap = n - 1 if max_size is None else min(max_size, n - 1)
        for size in range(1, cap + 1):
            for comb in combinations(range(1, n), size):
                for y in comb:
                    check(comb, y)
        report_trials = None
        report_seed = None
    else:
        rng = _group_rng(seed, g)
        cap = min(8, n - 1) if max_size is None else min(max_size, n - 1)
        for _ in range(trials):
            size = rng.randint(1, cap)
            comb = tuple(sorted(rng.sample(range(1, n), size)))
            check(comb, rng.choice(comb))
        report_trials = trials
        report_seed = seed
    return VerificationReport(
        lemma_id="INEQ2.3",
        group_name=g.name,
        mode=mode,
        cases_checked=cases,
        failures=failures,
        seed=report_seed,
        trials=report_trials,
        elapsed_ms=_ms(t0),
    )


# ---------------------------------------------------------------------------
# inequality (2.4): quadratic floor from a resolving sequence


def verify_ineq_2_4(
    g: GroupTable,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    min_size: int = 4,
    max_size: int = 10,
) -> VerificationReport:
    """Seeded check of the resolving-sequence floor on sign-disjoint subsets.

    Samples X with 0 not in X and X disjoint from -X (the setting in which the
    floor is derived); draws whose closure has at least n/2 elements or whose
    X generates a proper subgroup fall outside the hypotheses and are skipped.
    """
    t0 = time.perf_counter()
    n = g.n
    if n % 2 == 0:
        raise ValueError("this check applies to odd-order groups only")
    pairs = _inverse_pairs(g)
    rng = _group_rng(seed, g)
    cases = 0
    skipped = 0
    failures: list[dict] = []
    top = min(max_size, len(pairs))
    for _ in range(trials):
        size = rng.randint(min_size, top)
        chosen = rng.sample(pairs, size)
        members = tuple(sorted(pair[rng.randint(0, 1)] for pair in chosen))
        reach = exact_reach_mask(g, members)
        total = reach.bit_count()
        if 2 * total >= n:
            skipped += 1
            continue
        if subgroup_mask(g, sum(1 << i for i in members)) != g.full_mask:
            skipped += 1
            continue
        rs = resolving_sequence(g, ElementSet.from_indices(g, members))
        k = size
        t = rs.critical_index
        cases += 1
        for s in range(t, k + 1):
            b_prev = rs.prefix_sizes[s - 2] if s >= 2 else 0
            if 4 * total < (k + s + 3) * (k - s + 1) - 2 + 4 * b_prev:
                failures.append(
                    {
                        "set": list(members),
                        "s": s,
                        "critical_index": t,
                        "closure_size": total,
                    }
                )
    return VerificationReport(
        lemma_id="INEQ2.4",
        group_name=g.name,
        mode="sampled",
        cases_checked=cases,
        skipped=skipped,
        failures=failures,
        seed=seed,
        trials=trials,
        elapsed_ms=_ms(t0),
    )


# ---------------------------------------------------------------------------
# Cauchy-Davenport fold: q - 1 binary sumsets cover the prime cyclic group


def verify_cd_fold(qs: Sequence[int] = (2, 3, 5, 7)) -> VerificationReport:
    t0 = time.perf_counter()
    cases = 0
    failures: list[dict] = []
    for q in qs:
        if not is_prime(q) or q > 13:
            raise ValueError(f"fold check needs a prime q <= 13, got {q}")
        g = cyclic(q)
        for tup in product(range(1, q), repeat=q - 1):
            cases += 1
            if fold_cd(g, tup).bits != g.full_mask:
                failures.append({"q": q, "elements": list(tup)})
    return VerificationReport(
        lemma_id="CDFOLD",
        group_name=",".join(f"Z{q}" for q in qs),
        mode="exhaustive",
        cases_checked=cases,
        failures=failures,
        elapsed_ms=_ms(t0),
    )
