"""Desk-scale verifiers: exhaustive or seeded checks with counterexample capture."""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from typing import Any, Callable, Iterable, Optional, Sequence

from .catalog import ORDER27_NAMES, catalog_group, catalog_init
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


def _run_cases(
    lemma_id: str,
    g: GroupTable,
    mode: str,
    check: Callable[[Any], Optional[dict]],
    every: Optional[Callable[[], Iterable[Any]]] = None,
    draw: Optional[Callable[[random.Random], Any]] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """The verifiers' case loop: `check` every case of `every()`, or of `trials` seeded draws.

    A `None` case lies outside the lemma's hypotheses and counts as skipped;
    `check` returns a failure record, or `None` when the case holds.
    """
    t0 = time.perf_counter()
    sampled = mode == "sampled"
    if sampled:
        if trials < 1:
            raise ValueError(f"{lemma_id}: a sampled run needs trials >= 1, got {trials}")
        rng = _group_rng(seed, g)
        cases: Iterable[Any] = (draw(rng) for _ in range(trials))
    else:
        cases = every()
    checked = skipped = 0
    failures: list[dict] = []
    for case in cases:
        if case is None:
            skipped += 1
            continue
        checked += 1
        failure = check(case)
        if failure is not None:
            failures.append(failure)
    return VerificationReport(
        lemma_id=lemma_id,
        group_name=g.name,
        mode=mode,
        cases_checked=checked,
        skipped=skipped,
        failures=failures,
        seed=seed if sampled else None,
        trials=trials if sampled else None,
        elapsed_ms=_ms(t0),
    )


# ---------------------------------------------------------------------------
# L2.1: A + B covers the group whenever |A| + |B| exceeds its order


def verify_L2_1(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    n = g.n
    full = g.full_mask

    def every():
        by_size = {size: list(combinations(range(n), size)) for size in range(1, n + 1)}
        for sa in range(1, n + 1):
            # each A's translates are computed once and looked up for every B;
            # a sampled A translates on demand, since its sumset stops at full
            rows = [
                (a, [g.translate(sum(1 << i for i in a), x) for x in range(n)].__getitem__)
                for a in by_size[sa]
            ]
            for sb in range(n + 1 - sa, n + 1):
                for a, shift in rows:
                    for b in by_size[sb]:
                        yield a, b, shift

    def draw(rng):
        sa = rng.randint(1, n)
        sb = rng.randint(n + 1 - sa, n)
        a = sorted(rng.sample(range(n), sa))
        b = sorted(rng.sample(range(n), sb))
        return a, b, partial(g.translate, sum(1 << i for i in a))

    def check(case):
        a, b, shift = case
        out = 0
        for x in b:
            out |= shift(x)
            if out == full:
                return None
        return {"A": list(a), "B": list(b)}

    return _run_cases("L2.1", g, _pick_mode(mode, g, 10), check, every, draw, trials, seed)


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
) -> VerificationReport:
    t0 = time.perf_counter()
    p = smallest_prime_divisor(g.n) if g.n > 1 else 1
    q = g.n // p
    if not (g.is_abelian and is_prime(p) and is_prime(q)):
        raise ValueError(
            f"verify L2.2 needs an abelian group of order pq, got {g.name} of order {g.n}"
        )
    size = p + q - 1
    if _pick_mode(mode, g, 35) == "exhaustive":
        checked, found, complete = find_nonbases(g, size)
        return VerificationReport(
            lemma_id="L2.2",
            group_name=g.name,
            mode="exhaustive",
            cases_checked=checked,
            failures=[] if found is None else [{"set": list(found)}],
            elapsed_ms=_ms(t0),
            complete=complete,
        )
    return _run_cases(
        "L2.2",
        g,
        "sampled",
        lambda comb: None if covers_group(g, comb) else {"set": list(comb)},
        draw=lambda rng: tuple(sorted(rng.sample(range(1, g.n), size))),
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# L2.3: a generating set always contains a good translate direction


def verify_L2_3(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    max_set_size: Optional[int] = None,
    max_b_size: Optional[int] = None,
) -> VerificationReport:
    n = g.n
    mode = _pick_mode(mode, g, 10)
    default_cap = n - 1 if mode == "exhaustive" else 8
    s_cap = min(default_cap if max_set_size is None else max_set_size, n - 1)
    b_cap = n // 2 if max_b_size is None else min(max_b_size, n // 2)

    def generates(members) -> bool:
        return subgroup_mask(g, sum(1 << i for i in members)) == g.full_mask

    def spread(members) -> int:
        return len({*members, *(g.inv[x] for x in members)})  # |S u -S|

    def every():
        gen_sets = []
        for size in range(1, s_cap + 1):
            for comb in combinations(range(1, n), size):
                if generates(comb):
                    gen_sets.append((comb, spread(comb)))
                else:
                    yield None
        b_list = [
            sum(1 << i for i in comb)
            for size in range(1, b_cap + 1)
            for comb in combinations(range(n), size)
        ]
        for s_members, u in gen_sets:
            for b_bits in b_list:
                yield s_members, u, b_bits

    def draw(rng):
        s_members = tuple(sorted(rng.sample(range(1, n), rng.randint(1, s_cap))))
        if not generates(s_members):
            return None
        b_bits = sum(1 << i for i in rng.sample(range(n), rng.randint(1, b_cap)))
        return s_members, spread(s_members), b_bits

    def check(case):
        # max lambda over S vs min((|B|+1)/2, (|S u -S|+2)/4), by cross-multiplication
        s_members, u, b_bits = case
        bound4 = min(2 * (b_bits.bit_count() + 1), u + 2)
        for x in s_members:
            if 4 * lambda_bits(g, b_bits, x) >= bound4:
                return None
        return {"set": list(s_members), "B": _bits_list(b_bits)}

    return _run_cases("L2.3", g, mode, check, every, draw, trials, seed)


# ---------------------------------------------------------------------------
# L2.4: in odd order, sign-disjoint sets of size >= 3 have closure >= 2|S|


def _inverse_pairs(g: GroupTable) -> list[tuple[int, int]]:
    return [(x, g.inv[x]) for x in range(1, g.n) if x < g.inv[x]]


def _draw_sign_disjoint(
    rng: random.Random, pairs: list[tuple[int, int]], min_size: int, max_size: int
) -> tuple[int, ...]:
    """One member from each of a random number of distinct inverse pairs, sorted."""
    chosen = rng.sample(pairs, rng.randint(min_size, min(max_size, len(pairs))))
    return tuple(sorted(pair[rng.randint(0, 1)] for pair in chosen))


def verify_L2_4(
    g: GroupTable,
    min_size: int = 3,
    max_size: int = 6,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    if g.n % 2 == 0:
        raise ValueError("this check applies to odd-order groups only")
    pairs = _inverse_pairs(g)

    def every():
        for size in range(min_size, min(max_size, len(pairs)) + 1):
            for chosen in combinations(pairs, size):
                for signs in product((0, 1), repeat=size):
                    yield tuple(sorted(pair[s] for pair, s in zip(chosen, signs)))

    def check(members):
        need = 2 * len(members)
        if fixed_order_reach_mask(g, members).bit_count() >= need:
            return None
        # in an abelian group the fixed-order walk already reaches every subset sum
        if not g.is_abelian and exact_reach_mask(g, members).bit_count() >= need:
            return None
        return {"set": list(members)}

    return _run_cases(
        "L2.4",
        g,
        _pick_mode(mode, g, 27),
        check,
        every,
        lambda rng: _draw_sign_disjoint(rng, pairs, min_size, max_size),
        trials,
        seed,
    )


# ---------------------------------------------------------------------------
# L2.5 (i)-(v): closure floors in groups of order 9


def verify_L2_5(g: GroupTable, item: str) -> VerificationReport:
    if g.n != 9:
        raise ValueError(f"this check applies to groups of order 9, got order {g.n}")
    if item not in ("i", "ii", "iii", "iv", "v"):
        raise ValueError(f"item must be one of i..v, got {item!r}")
    n = g.n

    if item == "i":

        def every():
            for comb in combinations(range(n), 3):
                reach = exact_reach_mask(g, comb)
                yield None if reach & 1 else (comb, reach.bit_count())

        def check(case):
            comb, size = case
            return None if size >= 6 else {"set": list(comb), "closure_size": size}

    elif item in ("ii", "iii"):
        size, floor = (3, 5) if item == "ii" else (4, 7)

        def every():
            return combinations(range(1, n), size)

        def check(comb):
            return None if exact_reach_mask(g, comb).bit_count() >= floor else {"set": list(comb)}

    elif item == "iv":

        def every():
            return combinations(range(n), 4)

        def check(comb):
            pair_sums = sigma_r(g, ElementSet.from_indices(g, comb), 2)
            if len(pair_sums) >= 5:
                return None
            return {"set": list(comb), "pair_sums": list(pair_sums)}

    else:

        def every():
            b_sets = [comb for size in range(2, n + 1) for comb in combinations(range(n), size)]
            for a_comb in combinations(range(n), 4):
                a_bits = sum(1 << i for i in a_comb)
                shifts = [g.translate(a_bits, x) for x in range(n)]
                for b_comb in b_sets:
                    yield a_comb, shifts, b_comb

        def check(case):
            a_comb, shifts, b_comb = case
            out = 0
            for x in b_comb:
                out |= shifts[x]
                if out.bit_count() >= 5:
                    return None
            return {"A": list(a_comb), "B": list(b_comb)}

    return _run_cases(f"L2.5{item}", g, "exhaustive", check, every)


def run_L2_5(g: GroupTable) -> list[VerificationReport]:
    return [verify_L2_5(g, item) for item in ("i", "ii", "iii", "iv", "v")]


# ---------------------------------------------------------------------------
# L2.6: every group of order 27 has critical number 10


def verify_L2_6(
    g: Optional[GroupTable] = None, budget: Optional[int] = None
) -> VerificationReport:
    """Exact cr of `g`, or of all five order-27 catalog groups when `g` is None."""
    t0 = time.perf_counter()
    if g is None:
        groups = [catalog_group(name) for name in ORDER27_NAMES]
        group_name = "*"
    else:
        if g.n != 27:
            raise ValueError(f"group {g.name} has order {g.n}, expected 27")
        groups = [g]
        group_name = g.name
    cases = 0
    failures: list[dict] = []
    complete = True
    for h in groups:
        cert = cr_exhaustive(h, budget=budget)
        cases += cert.subsets_checked
        if cert.value is None:
            complete = False
        elif cert.value != 10:
            failures.append({"group": h.name, "cr": cert.value, "expected": 10})
    return VerificationReport(
        lemma_id="L2.6",
        group_name=group_name,
        mode="exhaustive",
        cases_checked=cases,
        failures=failures,
        elapsed_ms=_ms(t0),
        complete=complete,
    )


# ---------------------------------------------------------------------------
# T1.3 at small even orders: cr equals n/2 (4 at order 6) given an index-2 subgroup


def verify_T1_3_small(budget: Optional[int] = None) -> VerificationReport:
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
        cert = cr_exhaustive(g, budget=budget)
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
    n = g.n
    mode = _pick_mode(mode, g, 10)
    default_cap = n - 1 if mode == "exhaustive" else 8
    cap = min(default_cap if max_size is None else max_size, n - 1)

    def every():
        for size in range(1, cap + 1):
            for comb in combinations(range(1, n), size):
                reach = exact_reach_mask(g, comb)
                for y in comb:
                    yield comb, reach, y

    def draw(rng):
        comb = tuple(sorted(rng.sample(range(1, n), rng.randint(1, cap))))
        return comb, exact_reach_mask(g, comb), rng.choice(comb)

    def check(case):
        members, reach, y = case
        rest = exact_reach_mask(g, tuple(m for m in members if m != y))
        if reach.bit_count() >= rest.bit_count() + lambda_bits(g, reach, y):
            return None
        return {"set": list(members), "y": y}

    return _run_cases("INEQ2.3", g, mode, check, every, draw, trials, seed)


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
    A failing X is reported once, at the first s whose floor it misses.
    """
    n = g.n
    if n % 2 == 0:
        raise ValueError("this check applies to odd-order groups only")
    pairs = _inverse_pairs(g)

    def draw(rng):
        members = _draw_sign_disjoint(rng, pairs, min_size, max_size)
        total = exact_reach_mask(g, members).bit_count()
        if 2 * total >= n or subgroup_mask(g, sum(1 << i for i in members)) != g.full_mask:
            return None
        return members, total

    def check(case):
        members, total = case
        rs = resolving_sequence(g, ElementSet.from_indices(g, members))
        k = len(members)
        t = rs.critical_index
        for s in range(t, k + 1):
            b_prev = rs.prefix_sizes[s - 2] if s >= 2 else 0
            if 4 * total < (k + s + 3) * (k - s + 1) - 2 + 4 * b_prev:
                return {"set": list(members), "s": s, "critical_index": t, "closure_size": total}
        return None

    return _run_cases("INEQ2.4", g, "sampled", check, draw=draw, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Cauchy-Davenport fold: q - 1 binary sumsets cover the prime cyclic group


def verify_cd_fold(qs: Sequence[int] = (2, 3, 5, 7)) -> VerificationReport:
    t0 = time.perf_counter()
    cases = 0
    failures: list[dict] = []
    for q in qs:
        # (q-1)^(q-1) tuples: 46,656 at q = 7, 10^10 at q = 11
        if not is_prime(q) or q > 7:
            raise ValueError(f"fold check needs a prime q <= 7, got {q}")
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
