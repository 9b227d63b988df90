"""The workloads: inputs made from the seed, timed passes, output checks.

Calls into the program go through module attributes (`critical.sigma`, ...)
so that the tracing wrappers in `layers` see them.  The checks use the
functions bound below at import, before any wrapper is installed, so checking
adds nothing to the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from critnum import catalog, cli, critical, sumsets
from critnum.groups import ElementSet, GroupTable

from measure import Outcomes

_covers_group = sumsets.covers_group
clock = time.perf_counter

ORDER27_SCAN = math.comb(26, 10)


@dataclass
class Tally:
    """What the timed passes of one run did."""

    outcomes: Outcomes = field(default_factory=Outcomes)
    pass_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    work: int = 0


@dataclass
class Context:
    """Set-up state shared by the passes of one run."""

    groups: dict[str, GroupTable]
    tmp: Optional[Path] = None
    jobs: int = 1
    outputs: list[str] = field(default_factory=list)
    cache_ids: itertools.count = field(default_factory=itertools.count)


def _built(names) -> dict[str, GroupTable]:
    groups = {name: catalog.catalog_group(name) for name in names}
    for g in groups.values():
        g.translate(1, 0)  # builds the table's lazy translate lookup
        g.is_abelian
    return groups


def oracle_closure(op, members) -> int:
    """Bit-set of all sums of distinct members in any order, by brute force.

    Independent of the program: members that commute pairwise give plain
    subset sums; otherwise every subset is closed over every last element.
    """
    members = list(members)
    if all(op[a][b] == op[b][a] for a in members for b in members):
        reach = 0
        for a in members:
            step = 1 << a
            r = reach
            while r:
                low = r & -r
                r ^= low
                step |= 1 << op[low.bit_length() - 1][a]
            reach |= step
        return reach
    k = len(members)
    reach = [0] * (1 << k)
    total = 0
    for mask in range(1, 1 << k):
        bits = 0
        for j in range(k):
            if mask >> j & 1:
                a = members[j]
                r = reach[mask ^ (1 << j)]
                if not r:
                    bits |= 1 << a
                while r:
                    low = r & -r
                    r ^= low
                    bits |= 1 << op[low.bit_length() - 1][a]
        reach[mask] = bits
        total |= bits
    return total


def _timed(outcomes: Outcomes, what: str, call):
    """(result, seconds) of one timed call, or None after counting it as failed."""
    try:
        t0 = clock()
        result = call()
        return result, clock() - t0
    except Exception as exc:  # a raising call is a failed item, and the run goes on
        outcomes.record(False, f"{what}: {exc!r}")
        return None


def _guarded(outcomes: Outcomes, what: str, check) -> None:
    try:
        ok = bool(check())
    except Exception as exc:  # a raising check is a failed item, and the run goes on
        ok = False
        what = f"{what}: {exc!r}"
    outcomes.record(ok, what)


class Order27:
    """`cr exact` on the five groups of order 27 through the command line."""

    name = "order27"
    unit = "subsets certified"
    trace_passes = 1

    def setup(self) -> Context:
        return Context(_built(catalog.ORDER27_NAMES))

    def run_pass(self, ctx: Context, seed: int, index: int, tally: Tally) -> None:
        cache = ctx.tmp / f"cache-{next(ctx.cache_ids)}.jsonl"
        os.environ["CRITNUM_CACHE"] = str(cache)
        ctx.outputs = []
        total = 0.0
        for name in catalog.ORDER27_NAMES:
            done = _timed(tally.outcomes, f"cr exact {name}", lambda: _dispatch(self._argv(ctx, name)))
            if done is None:
                ctx.outputs.append("")
                continue
            (rc, out), dt = done
            total += dt
            tally.latencies_ms.append(dt * 1000)
            ctx.outputs.append(out)
            _guarded(tally.outcomes, f"cr exact {name}", lambda: rc == 0 and _cr_ok(ctx.groups[name], out))
        tally.pass_s.append(total)
        tally.work += ORDER27_SCAN * len(catalog.ORDER27_NAMES)
        # a fresh store took every result as a miss followed by one put
        _guarded(tally.outcomes, "five misses and five puts", lambda: _lines(cache) == len(ctx.outputs))

    def replay(self, ctx: Context, tally: Tally) -> None:
        """Re-run the last pass from the cache: byte-identical output, no new records."""
        cache = Path(os.environ["CRITNUM_CACHE"])
        for name, first in zip(catalog.ORDER27_NAMES, ctx.outputs):
            _guarded(tally.outcomes, f"replay {name}", lambda: _dispatch(self._argv(ctx, name)) == (0, first))
        _guarded(tally.outcomes, "replay adds no records", lambda: _lines(cache) == len(ctx.outputs))

    @staticmethod
    def _argv(ctx: Context, name: str) -> list[str]:
        return ["cr", "exact", "--group", name, "--jobs", str(ctx.jobs)]


def _dispatch(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cli_dispatch(argv)
    return rc, buf.getvalue()


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _cr_ok(g: GroupTable, out: str) -> bool:
    rec = json.loads(out)
    witness = rec["witness"]
    return (
        rec["value"] == rec["lower_bound"] == rec["upper_bound"] == 10
        and len(witness) == 9
        and not _covers_group(g, witness)
        and oracle_closure(g.op, witness) != g.full_mask
        and rec["subsets_checked"] >= ORDER27_SCAN
    )


class Closure:
    """`sigma` and `resolving_sequence` on seeded small subsets of every group of order <= 32."""

    name = "closure"
    unit = "subsets closed"
    trace_passes = 2
    max_size = 8
    per_size = 25  # about 2.5 s a pass, long enough to average over swings in machine speed
    oracle_share = 1 / 8

    def setup(self) -> Context:
        groups = _built(name for name, _ in catalog.CATALOG_DESCRIPTORS)
        return Context({name: g for name, g in groups.items() if g.n <= 32})

    def run_pass(self, ctx: Context, seed: int, index: int, tally: Tally) -> None:
        rng = random.Random(f"closure:{seed}:{index}")
        items = []
        for g in ctx.groups.values():
            for size in range(1, self.max_size + 1):
                for _ in range(self.per_size):
                    members = sorted(rng.sample(range(1, g.n), min(size, g.n - 1)))
                    items.append((g, members, rng.random() < self.oracle_share))
        total = 0.0
        for g, members, by_oracle in items:
            x = ElementSet.from_indices(g, members)
            done = _timed(
                tally.outcomes,
                f"{g.name} {members}",
                lambda: (sumsets.sigma(g, x), critical.resolving_sequence(g, x)),
            )
            if done is None:
                continue
            (clo, rs), dt = done
            total += dt
            tally.latencies_ms.append(dt * 1000)
            _guarded(
                tally.outcomes,
                f"{g.name} {members}",
                lambda: rs.prefix_sizes[-1] == len(clo.full)
                and sorted(rs.ordering) == members
                and (not by_oracle or clo.full.bits == oracle_closure(g.op, members)),
            )
        tally.pass_s.append(total)
        tally.work += len(items)


WORKLOADS = {w.name: w for w in (Order27(), Closure())}
