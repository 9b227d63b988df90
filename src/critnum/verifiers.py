"""Desk-scale verifiers: exhaustive or seeded checks with counterexample capture."""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import combinations, product
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

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
        return asdict(self)


def _pick_mode(mode: Optional[str], g: GroupTable, exhaustive_cap: int) -> str:
    if mode in ("exhaustive", "sampled"):
        return mode
    return "exhaustive" if g.n <= exhaustive_cap else "sampled"


# an outcome is None for a case outside the lemma's hypotheses, or
# (cases checked, failure record or None, whether it ran to the end)
_Outcome = Optional[tuple[int, Optional[dict], bool]]


def _tally(
    lemma_id: str,
    group_name: str,
    mode: str,
    outcomes: Iterable[_Outcome],
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> VerificationReport:
    """The one place a report is made: the sum of `outcomes`, timed as they are produced.

    A sampled run that checked no case is incomplete, not a pass; an exhaustive
    run whose every case lies outside the hypotheses holds vacuously.
    """
    t0 = time.perf_counter()
    checked = skipped = 0
    failures: list[dict] = []
    complete = True
    for outcome in outcomes:
        if outcome is None:
            skipped += 1
            continue
        count, failure, done = outcome
        checked += count
        complete = complete and done
        if failure is not None:
            failures.append(failure)
    return VerificationReport(
        lemma_id=lemma_id,
        group_name=group_name,
        mode=mode,
        cases_checked=checked,
        skipped=skipped,
        failures=failures,
        seed=seed,
        trials=trials,
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        complete=complete and (checked > 0 or mode == "exhaustive"),
    )


def _run_cases(
    lemma_id: str,
    group_name: str,
    mode: str,
    check: Callable[[Any], Optional[dict]],
    every: Optional[Callable[[], Iterable[Any]]] = None,
    draw: Optional[Callable[[random.Random], Any]] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """The verifiers' case loop: `check` every case of `every()`, or of `trials` seeded draws.

    A `None` case lies outside the lemma's hypotheses and counts as skipped;
    `check` returns a failure record, or `None` when the case holds.  The
    draws are seeded by `seed` and the group's name.
    """
    if mode == "sampled":
        if trials < 1:
            raise ValueError(f"{lemma_id}: a sampled run needs trials >= 1, got {trials}")
        rng = random.Random((seed * 1_000_003 + zlib.crc32(group_name.encode())) & 0xFFFFFFFF)
        cases: Iterable[Any] = (draw(rng) for _ in range(trials))
    else:
        cases, seed, trials = every(), None, None
    outcomes = (None if case is None else (1, check(case), True) for case in cases)
    return _tally(lemma_id, group_name, mode, outcomes, seed, trials)


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

    return _run_cases("L2.1", g.name, _pick_mode(mode, g, 10), check, every, draw, trials, seed)


# ---------------------------------------------------------------------------
# L2.2: in an abelian group of order pq, every (p+q-1)-subset avoiding 0 is a basis


def verify_L2_2(
    g: GroupTable,
    mode: Optional[str] = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    p = smallest_prime_divisor(g.n) if g.n > 1 else 1
    q = g.n // p
    if not (g.is_abelian and is_prime(p) and is_prime(q)):
        raise ValueError(
            f"verify L2.2 needs an abelian group of order pq, got {g.name} of order {g.n}"
        )
    size = p + q - 1
    if _pick_mode(mode, g, 35) == "exhaustive":

        def scan():
            checked, found, complete = find_nonbases(g, size)
            yield checked, None if found is None else {"set": list(found)}, complete

        return _tally("L2.2", g.name, "exhaustive", scan())
    return _run_cases(
        "L2.2",
        g.name,
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
        return {"set": list(s_members), "B": list(ElementSet(g, b_bits).indices())}

    return _run_cases("L2.3", g.name, mode, check, every, draw, trials, seed)


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
        g.name,
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

    return _run_cases(f"L2.5{item}", g.name, "exhaustive", check, every)


# ---------------------------------------------------------------------------
# L2.6: every group of order 27 has critical number 10


def _cr_outcome(h: GroupTable, expected: int, budget: Optional[int]) -> _Outcome:
    """Exact cr of `h`: the subsets its scan checked, a failure unless it is `expected`, and
    whether the scan finished within `budget`."""
    cert = cr_exhaustive(h, budget=budget)
    failure = None
    if cert.value not in (None, expected):
        failure = {"group": h.name, "cr": cert.value, "expected": expected}
    return cert.subsets_checked, failure, cert.value is not None


def verify_L2_6(
    g: Optional[GroupTable] = None, budget: Optional[int] = None
) -> VerificationReport:
    """Exact cr of `g`, or of all five order-27 catalog groups when `g` is None."""
    if g is not None and g.n != 27:
        raise ValueError(f"group {g.name} has order {g.n}, expected 27")
    groups = [catalog_group(name) for name in ORDER27_NAMES] if g is None else [g]
    outcomes = (_cr_outcome(h, 10, budget) for h in groups)
    return _tally("L2.6", "*" if g is None else g.name, "exhaustive", outcomes)


# ---------------------------------------------------------------------------
# T1.3 at small even orders: cr equals n/2 (4 at order 6) given an index-2 subgroup


def verify_T1_3_small(budget: Optional[int] = None) -> VerificationReport:
    """One case per non-abelian catalog group of even order 6 to 16: an exact cr scan
    where an index-2 subgroup exists, and a check that the predicate excludes the rest."""
    excluded = []

    def outcomes():
        for entry in catalog_init():
            if entry.order % 2 or not 6 <= entry.order <= 16 or entry.abelian:
                continue
            g = catalog_group(entry.name)
            if entry.has_index2_subgroup:
                expected = 4 if entry.order == 6 else entry.order // 2
                _, failure, done = _cr_outcome(g, expected, budget)
                yield 1, failure, done
                continue
            failure = None
            pred = cr_formula(g)
            if pred is not None and pred.theorem_tag in ("T1.3i", "T1.3ii"):
                error = "predicate should have excluded this group"
                failure = {"group": entry.name, "error": error}
            else:
                excluded.append(entry.name)
            yield 1, failure, True

    report = _tally("T1.3small", "*", "exhaustive", outcomes())
    if excluded:
        report.notes = "predicate correctly excludes: " + ", ".join(excluded)
    return report


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

    return _run_cases("INEQ2.3", g.name, mode, check, every, draw, trials, seed)


# ---------------------------------------------------------------------------
# inequality (2.4): quadratic floor from a resolving sequence


def verify_ineq_2_4(
    g: GroupTable,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    min_size: int = 4,
    max_size: int = 10,
    mode: Optional[str] = None,
) -> VerificationReport:
    """Seeded check of the resolving-sequence floor on sign-disjoint subsets.

    Samples X with 0 not in X and X disjoint from -X (the setting in which the
    floor is derived); draws whose closure has at least n/2 elements or whose
    X generates a proper subgroup fall outside the hypotheses and are skipped.
    A failing X is reported once, at the first s whose floor it misses.
    """
    n = g.n
    if mode == "exhaustive":
        raise ValueError("INEQ2.4 is a sampled check: it has no --mode exhaustive")
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

    return _run_cases("INEQ2.4", g.name, "sampled", check, draw=draw, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# Cauchy-Davenport fold: q - 1 binary sumsets cover the prime cyclic group


def verify_cd_fold(qs: Sequence[int] = (2, 3, 5, 7)) -> VerificationReport:
    for q in qs:
        # (q-1)^(q-1) tuples: 46,656 at q = 7, 10^10 at q = 11
        if not is_prime(q) or q > 7:
            raise ValueError(f"fold check needs a prime q <= 7, got {q}")

    def every():
        for q in qs:
            g = cyclic(q)
            for tup in product(range(1, q), repeat=q - 1):
                yield g, tup

    def check(case):
        g, tup = case
        return None if fold_cd(g, tup).bits == g.full_mask else {"q": g.n, "elements": list(tup)}

    return _run_cases("CDFOLD", ",".join(f"Z{q}" for q in qs), "exhaustive", check, every)


# ---------------------------------------------------------------------------
# the lemma table: each id's runners, its group rule and the parameters it reads


class Lemma(NamedTuple):
    """`group` is "required", "optional" or "refused"; `reads` names the parameters
    (of mode, trials, seed, budget) that `runners` take besides the group."""

    runners: tuple[Callable[..., VerificationReport], ...]
    group: str
    reads: tuple[str, ...]


_SAMPLED = ("mode", "trials", "seed")
_L2_5_ITEMS = {f"L2.5{i}": partial(verify_L2_5, item=i) for i in ("i", "ii", "iii", "iv", "v")}

LEMMAS: dict[str, Lemma] = {
    "L2.1": Lemma((verify_L2_1,), "required", _SAMPLED),
    "L2.2": Lemma((verify_L2_2,), "required", _SAMPLED),
    "L2.3": Lemma((verify_L2_3,), "required", _SAMPLED),
    "L2.4": Lemma((verify_L2_4,), "required", _SAMPLED),
    "L2.5": Lemma(tuple(_L2_5_ITEMS.values()), "required", ()),
    **{lemma_id: Lemma((runner,), "required", ()) for lemma_id, runner in _L2_5_ITEMS.items()},
    "L2.6": Lemma((verify_L2_6,), "optional", ("budget",)),
    "INEQ2.3": Lemma((verify_ineq_2_3,), "required", _SAMPLED),
    "INEQ2.4": Lemma((verify_ineq_2_4,), "required", _SAMPLED),
    "CDFOLD": Lemma((verify_cd_fold,), "refused", ()),
    "T1.3small": Lemma((verify_T1_3_small,), "refused", ("budget",)),
}
LEMMA_IDS = tuple(LEMMAS)


def prepare(
    lemma_id: str, g: Optional[GroupTable] = None, **params: Any
) -> Callable[[], list[VerificationReport]]:
    """Verifier `lemma_id` on `g`, checked but not run; a parameter given as None counts as not given.

    Raises ValueError for an unknown id, a missing or unread group, or a
    parameter the lemma does not read.  Calling the result runs the
    verifier and returns its reports.
    """
    if lemma_id not in LEMMAS:
        raise ValueError(f"unknown lemma id {lemma_id!r}; choose from {', '.join(LEMMA_IDS)}")
    lemma = LEMMAS[lemma_id]
    if g is None and lemma.group == "required":
        raise ValueError(f"verify {lemma_id} requires --group")
    if g is not None and lemma.group == "refused":
        raise ValueError(f"verify {lemma_id} takes no --group")
    given = {name: value for name, value in params.items() if value is not None}
    for name in given:
        if name not in lemma.reads:
            raise ValueError(f"verify {lemma_id} does not read --{name}")
    args = () if lemma.group == "refused" else (g,)
    return lambda: [runner(*args, **given) for runner in lemma.runners]


def run(lemma_id: str, g: Optional[GroupTable] = None, **params: Any) -> list[VerificationReport]:
    """The reports of verifier `lemma_id` on `g` (see `prepare`)."""
    return prepare(lemma_id, g, **params)()


def run_L2_5(g: GroupTable) -> list[VerificationReport]:
    """The five reports of L2.5 (i)-(v) on `g`."""
    return run("L2.5", g)
