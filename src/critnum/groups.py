"""Finite groups as validated Cayley tables with 0-based element indices."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence


class GroupValidationError(ValueError):
    """A multiplication table violates one of the group axioms."""


def smallest_prime_divisor(n: int) -> int:
    """Smallest prime dividing n (n must be at least 2)."""
    if n < 2:
        raise ValueError(f"smallest_prime_divisor requires n >= 2, got {n}")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    while n > 1:
        p = smallest_prime_divisor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def is_prime(m: int) -> bool:
    return m >= 2 and smallest_prime_divisor(m) == m


# bit-set chunk width of the translate lookup tables
CHUNK_BITS = 9
CHUNK_MASK = (1 << CHUNK_BITS) - 1


def chunked_translation_tables(
    op: Sequence[Sequence[int]], n: int
) -> list[list[list[int]]]:
    """Per-element lookup tables mapping bit-set chunks to their right translates.

    tables[x][c][v] is the translate {y + x : y in chunk c with pattern v},
    so a full translate is the OR of one lookup per chunk.  Equal entries are
    one shared int object: most translates recur across elements and chunks,
    so sharing keeps the tables several times smaller.
    """
    share = {}.setdefault
    tables: list[list[list[int]]] = []
    for x in range(n):
        col = [op[y][x] for y in range(n)]
        per_chunk = []
        for base in range(0, n, CHUNK_BITS):
            # doubling: the patterns with bit i set are those without it, plus y + x
            tab = [0]
            for y in col[base : base + CHUNK_BITS]:
                bit = 1 << y
                grown = [t | bit for t in tab]
                tab += map(share, grown, grown)
            per_chunk.append(tab)
        tables.append(per_chunk)
    return tables


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table, identity at index 0."""

    n: int
    op: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    name: str
    reindex: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def is_abelian(self) -> bool:
        op = self.op
        for a in range(self.n):
            row = op[a]
            for b in range(a + 1, self.n):
                if row[b] != op[b][a]:
                    return False
        return True

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """The order of each element: the length of its cycle 0, x, x + x, ... back to 0."""
        op = self.op
        orders = []
        for x in range(self.n):
            k, y = 1, x
            while y:
                y = op[y][x]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def _chunk_tables(self) -> list[list[list[int]]]:
        return chunked_translation_tables(self.op, self.n)

    @cached_property
    def orbit_min(self) -> tuple[int, ...]:
        """The smallest image of each element under maps that send bases to bases.

        In an abelian group the images of x are kx for k coprime to n;
        otherwise they are the conjugates of x and their inverses.  Inversion
        maps bases to bases because -(a1 + ... + ak) = (-ak) + ... + (-a1).
        """
        n, op, inv = self.n, self.op, self.inv
        if self.is_abelian:

            def images(x: int) -> Iterator[int]:
                # the running multiple kx, kept when k is a unit
                y = 0
                for k in range(1, n):
                    y = op[y][x]
                    if math.gcd(k, n) == 1:
                        yield y
        else:

            def images(x: int) -> Iterator[int]:
                for y in range(n):
                    c = op[op[y][x]][inv[y]]
                    yield c
                    yield inv[c]

        return tuple(min(images(x), default=x) for x in range(n))

    @cached_property
    def scan_order(self) -> tuple[int, ...]:
        """The order in which the subset scan takes elements: 0, then orbit blocks.

        Each orbit of `orbit_min` is one ascending block, so its head is the
        orbit minimum.  Blocks come largest first, ties by head: the heads
        of small orbits then sit at late positions, whose subtrees are small.
        """
        blocks: dict[int, list[int]] = {}
        for x in range(1, self.n):
            blocks.setdefault(self.orbit_min[x], []).append(x)
        ordered = sorted(blocks.values(), key=lambda b: (-len(b), b[0]))
        return (0, *(x for block in ordered for x in block))

    def translate(self, bits: int, x: int) -> int:
        """Right translate of a bit-set: {y + x : y in bits}."""
        out = 0
        for tab in self._chunk_tables[x]:
            v = bits & CHUNK_MASK
            if v:
                out |= tab[v]
            bits >>= CHUNK_BITS
        return out

    def subset(self, indices: Iterable[int]) -> "ElementSet":
        return ElementSet.from_indices(self, indices)


@dataclass(frozen=True)
class ElementSet:
    """A subset of a group's elements stored as a bit-set over indices."""

    group: GroupTable
    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.group.n:
            raise ValueError(
                f"bit-set {self.bits:#x} has bits outside 0..{self.group.n - 1}"
            )

    @classmethod
    def from_indices(cls, group: GroupTable, indices: Iterable[int]) -> "ElementSet":
        bits = 0
        for i in indices:
            if not 0 <= i < group.n:
                raise ValueError(f"element index {i} out of range 0..{group.n - 1}")
            bits |= 1 << i
        return cls(group, bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.group.n) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.group.n and bool(self.bits >> i & 1)

    def _same_group(self, other: "ElementSet") -> None:
        if self.group != other.group:
            raise ValueError("element sets belong to different groups")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._same_group(other)
        return ElementSet(self.group, self.bits | other.bits)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._same_group(other)
        return ElementSet(self.group, self.bits & other.bits)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._same_group(other)
        return ElementSet(self.group, self.bits & ~other.bits)

    def complement(self) -> "ElementSet":
        return ElementSet(self.group, self.group.full_mask & ~self.bits)

    def translate(self, x: int) -> "ElementSet":
        return ElementSet(self.group, self.group.translate(self.bits, x))


@dataclass(frozen=True)
class SubgroupInfo:
    """A subgroup given by its carrier set, with normality and index."""

    carrier: ElementSet
    is_normal: bool
    index: int


# ---------------------------------------------------------------------------
# table validation


def _find_identity(op: Sequence[Sequence[int]], n: int) -> Optional[int]:
    for e in range(n):
        if all(op[e][g] == g for g in range(n)) and all(op[g][e] == g for g in range(n)):
            return e
    return None


def _validated_table(
    rows: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]],
    name: str,
) -> GroupTable:
    """Validate group axioms, re-index so the identity sits at 0, and build the table."""
    n = len(rows)
    if n == 0:
        raise GroupValidationError("empty table")
    for g, row in enumerate(rows):
        if len(row) != n:
            raise GroupValidationError(f"row {g} has {len(row)} entries, expected {n}")
        for h, v in enumerate(row):
            if not 0 <= v < n:
                raise GroupValidationError(f"entry op[{g}][{h}] = {v} out of range 0..{n - 1}")

    if labels is None:
        labels = [str(i) for i in range(n)]
    elif len(labels) != n:
        raise GroupValidationError(f"{len(labels)} labels for {n} elements")

    e = _find_identity(rows, n)
    if e is None:
        raise GroupValidationError("identity/inverse axiom violated: no two-sided identity element")
    reindex: Optional[tuple[int, ...]] = None
    if e != 0:
        perm = [e] + [g for g in range(n) if g != e]
        pos = [0] * n
        for new, old in enumerate(perm):
            pos[old] = new
        rows = [[pos[rows[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
        labels = [labels[perm[i]] for i in range(n)]
        reindex = tuple(perm)

    op = tuple(tuple(row) for row in rows)
    for a in range(n):
        opa = op[a]
        for b in range(n):
            op_ab = op[opa[b]]
            opb = op[b]
            for c in range(n):
                if op_ab[c] != opa[opb[c]]:
                    raise GroupValidationError(
                        f"associativity violated at triple ({a}, {b}, {c}): "
                        f"({a}+{b})+{c} = {op_ab[c]} but {a}+({b}+{c}) = {opa[opb[c]]}"
                    )

    inv = []
    for g in range(n):
        x = next((h for h in range(n) if op[g][h] == 0), None)
        if x is None or op[x][g] != 0:
            raise GroupValidationError(
                f"identity/inverse axiom violated: element {g} has no two-sided inverse"
            )
        inv.append(x)

    return GroupTable(n, op, tuple(inv), tuple(labels), name, reindex)


# ---------------------------------------------------------------------------
# constructors


def _table(
    elements: Iterable,
    mul: Callable,
    name: str,
    label: Callable[..., str] = str,
) -> GroupTable:
    """Tabulate `mul` on `elements`, numbered in the order given (identity first)."""
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    rows = [[index[mul(x, y)] for y in elements] for x in elements]
    return _validated_table(rows, [label(x) for x in elements], name)


def _tuple_label(x: tuple) -> str:
    return "(" + ",".join(map(str, x)) + ")"


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    return _table(range(n), lambda i, j: (i + j) % n, f"Z{n}")


def _cyclic_by_two(k: int, c: int, name: str, rot: str, flip: str) -> GroupTable:
    """Z_k = <r> and a coset s<r>, s r s^-1 = r^-1 and s^2 = r^c: r^i s^a as (i, a).

    (i, a)(j, b) = (i +- j + c*a*b, a xor b), minus when a = 1; rotations
    come first, then the coset.
    """
    elements = [(i, a) for a in (0, 1) for i in range(k)]

    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        (i, a), (j, b) = x, y
        return ((i - j if a else i + j) + c * a * b) % k, a ^ b

    return _table(elements, mul, name, lambda x: f"{rot}{x[0]}{flip * x[1]}")


def dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m: rotations r^i and reflections r^i s."""
    if m < 1:
        raise ValueError(f"dihedral parameter must be positive, got {m}")
    return _cyclic_by_two(m, 0, f"D{m}", "r", "s")


def dicyclic(m: int) -> GroupTable:
    """Dicyclic group of order 4m: <a, b | a^(2m) = 1, b^2 = a^m, bab^-1 = a^-1>."""
    if m < 1:
        raise ValueError(f"dicyclic parameter must be positive, got {m}")
    return _cyclic_by_two(2 * m, m, f"Dic{m}", "a", "b")


def semidirect_cyclic(a: int, b: int, k: int) -> GroupTable:
    """Z_a semidirect Z_b where the Z_b generator acts on Z_a by x -> k*x."""
    if a < 1 or b < 1:
        raise ValueError(f"semidirect_cyclic requires positive orders, got ({a}, {b})")
    if math.gcd(k, a) != 1:
        raise ValueError(f"action multiplier k={k} is not invertible mod {a}")
    if pow(k, b, a) != 1 % a:
        raise ValueError(f"k^b = {k}^{b} is not 1 mod {a}: the action has wrong order")
    act = [pow(k, y, a) for y in range(b)]
    return _table(
        product(range(a), range(b)),
        lambda u, v: ((u[0] + act[u[1]] * v[0]) % a, (u[1] + v[1]) % b),
        f"Z{a}:Z{b}(k={k})",
        _tuple_label,
    )


def heisenberg(p: int) -> GroupTable:
    """Upper unitriangular 3x3 matrices over Z_p, flattened lexicographically.

    Order p^3, exponent p for odd p; covers the non-abelian exponent-p group
    alongside semidirect_cyclic for prime-cube orders.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"heisenberg requires an odd prime, got {p}")
    return _table(
        product(range(p), repeat=3),
        lambda u, v: ((u[0] + v[0]) % p, (u[1] + v[1]) % p, (u[2] + v[2] + u[0] * v[1]) % p),
        f"H{p ** 3}",
        _tuple_label,
    )


def alternating(n: int) -> GroupTable:
    """Even permutations of range(n) in lexicographic order, with (x*y)[i] = x[y[i]]."""
    if n < 1:
        raise ValueError(f"alternating group degree must be positive, got {n}")
    return _table(
        (x for x in permutations(range(n)) if sum(a > b for a, b in combinations(x, 2)) % 2 == 0),
        lambda x, y: tuple(x[i] for i in y),
        f"A{n}",
        lambda x: "".join(map(str, x)),
    )


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product with element (x, y) at index x*|H| + y."""
    return _table(
        product(range(g.n), range(h.n)),
        lambda u, v: (g.op[u[0]][v[0]], h.op[u[1]][v[1]]),
        f"{g.name}x{h.name}",
        lambda u: f"({g.labels[u[0]]},{h.labels[u[1]]})",
    )


_DESCRIPTOR_RE = re.compile(r"^\s*([a-z_]+)\s*\((.*)\)\s*$")


def _split_args(body: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return [p.strip() for p in parts]


def make_group(descriptor: str) -> GroupTable:
    """Build a group from a constructor descriptor such as "dihedral(3)".

    Supported: cyclic(n), dihedral(m), dicyclic(m), semidirect_cyclic(a,b,k),
    heisenberg(p), alternating(n), direct_product(desc,desc) with nesting
    allowed.
    """
    m = _DESCRIPTOR_RE.match(descriptor)
    if not m:
        raise ValueError(f"unrecognized group descriptor {descriptor!r}")
    kind, body = m.group(1), m.group(2)
    args = _split_args(body)
    if kind == "direct_product":
        if len(args) != 2:
            raise ValueError(f"direct_product takes 2 arguments, got {len(args)}")
        return direct_product(make_group(args[0]), make_group(args[1]))
    try:
        ints = [int(x) for x in args]
    except ValueError:
        raise ValueError(f"non-integer arguments in descriptor {descriptor!r}") from None
    simple = {
        "cyclic": (cyclic, 1),
        "dihedral": (dihedral, 1),
        "dicyclic": (dicyclic, 1),
        "semidirect_cyclic": (semidirect_cyclic, 3),
        "heisenberg": (heisenberg, 1),
        "alternating": (alternating, 1),
    }
    if kind not in simple:
        raise ValueError(f"unknown group constructor {kind!r}")
    fn, arity = simple[kind]
    if len(ints) != arity:
        raise ValueError(f"{kind} takes {arity} argument(s), got {len(ints)}")
    return fn(*ints)


# ---------------------------------------------------------------------------
# Cayley file format


def save_cayley(g: GroupTable) -> str:
    """Serialize to the text Cayley format (comments, order, labels, rows)."""
    lines = [f"# name: {g.name}"]
    if g.reindex is not None:
        lines.append("# reindexed: " + " ".join(str(i) for i in g.reindex))
    lines.append(str(g.n))
    lines.append("labels: " + " ".join(g.labels))
    for row in g.op:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def load_cayley(text: str) -> GroupTable:
    """Parse the text Cayley format, re-validating every group axiom.

    If the identity is not at index 0 the table is re-indexed; the applied
    permutation is kept on the result and written back as a comment on save.
    """
    name = None
    data_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("name:"):
                name = comment[len("name:"):].strip()
            continue
        data_lines.append(line)
    if not data_lines:
        raise GroupValidationError("no data lines in Cayley text")
    try:
        n = int(data_lines[0])
    except ValueError:
        raise GroupValidationError(f"first data line must be the order, got {data_lines[0]!r}") from None
    rest = data_lines[1:]
    labels = None
    if rest and rest[0].startswith("labels:"):
        labels = rest[0][len("labels:"):].split()
        rest = rest[1:]
    if len(rest) != n:
        raise GroupValidationError(f"expected {n} table rows, found {len(rest)}")
    rows = []
    for line in rest:
        try:
            rows.append([int(v) for v in line.split()])
        except ValueError:
            raise GroupValidationError(f"non-integer table entry in row {line!r}") from None
    return _validated_table(rows, labels, name or f"loaded[{n}]")


# ---------------------------------------------------------------------------
# subgroup machinery


def subgroup_mask(g: GroupTable, bits: int) -> int:
    """Bit-set of the subgroup generated by the elements of a bit-set.

    The least set holding 0 that is closed under right translation by each
    generator: in a finite group every inverse is a positive power, so that
    set is already the subgroup.
    """
    gens = [x for x in range(1, g.n) if bits >> x & 1]
    translate = g.translate
    h = 1
    while True:
        prev = h
        for x in gens:
            h |= translate(h, x)
        if h == prev:
            return h


def _is_normal_mask(g: GroupTable, mask: int) -> bool:
    op = g.op
    inv = g.inv
    members = [i for i in range(g.n) if mask >> i & 1]
    for x in range(g.n):
        row = op[x]
        xi = inv[x]
        for h in members:
            if not mask >> op[row[h]][xi] & 1:
                return False
    return True


def subgroup_closure(g: GroupTable, gens: ElementSet) -> SubgroupInfo:
    """Smallest subgroup containing the generators, with normality computed."""
    mask = subgroup_mask(g, gens.bits)
    size = mask.bit_count()
    return SubgroupInfo(
        carrier=ElementSet(g, mask),
        is_normal=_is_normal_mask(g, mask),
        index=g.n // size,
    )


def _all_subgroup_masks(g: GroupTable) -> tuple[int, ...]:
    """Every subgroup of g, found by closing known subgroups under one extra generator."""
    found = {1}
    frontier = [1]
    while frontier:
        base = frontier.pop()
        for x in range(1, g.n):
            if base >> x & 1:
                continue
            mask = subgroup_mask(g, base | (1 << x))
            if mask not in found:
                found.add(mask)
                frontier.append(mask)
    return tuple(sorted(found))


def generating_sequence(g: GroupTable) -> list[int]:
    """Elements that generate G, highest order first, none generated by the others."""
    orders = g.element_orders
    gens: list[int] = []
    seen = 1
    for x in sorted(range(1, g.n), key=lambda x: (-orders[x], x)):
        if not seen >> x & 1:
            gens.append(x)
            seen = subgroup_mask(g, sum(1 << s for s in gens))
    for s in list(gens):
        rest = [t for t in gens if t != s]
        if subgroup_mask(g, sum(1 << t for t in rest)) == g.full_mask:
            gens = rest
    return gens


def homomorphism(
    g: GroupTable, gens: Sequence[int], images: Sequence[int], target: Sequence[Sequence[int]]
) -> Optional[list[int]]:
    """The map with gens[i] -> images[i] and phi(x + s) = phi(x) + phi(s), or None.

    `target` is the multiplication table the images live in.  The map is
    built outward from 0 and checked on every edge x -> x + s of the
    subgroup the generators s span, which makes it a homomorphism there;
    elements outside that subgroup map to -1.
    """
    op = g.op
    phi = [-1] * g.n
    phi[0] = 0
    queue = [0]
    pairs = tuple(zip(gens, images))
    for x in queue:
        row, image_row = op[x], target[phi[x]]
        for s, t in pairs:
            y, want = row[s], image_row[t]
            if phi[y] < 0:
                phi[y] = want
                queue.append(y)
            elif phi[y] != want:
                return None
    return phi


def normal_subgroups_of_prime_index(g: GroupTable, p: int) -> list[SubgroupInfo]:
    """The normal subgroups of prime index p, sorted by carrier bit-set.

    They are the kernels of the maps of G onto Z_p.  Such a map is fixed by
    its images of a generating sequence; maps that differ by a unit of Z_p
    share a kernel, so only choices whose first nonzero image is 1 are tried.
    """
    if not is_prime(p):
        raise ValueError(f"index {p} is not prime")
    if g.n % p:
        return []
    gens = generating_sequence(g)
    zp = [[(a + b) % p for b in range(p)] for a in range(p)]
    choices = (c for c in product(range(p), repeat=len(gens)) if next(filter(None, c), 0) == 1)
    maps = (homomorphism(g, gens, images, zp) for images in choices)
    kernels = sorted(sum(1 << x for x, v in enumerate(phi) if not v) for phi in maps if phi)
    return [SubgroupInfo(ElementSet(g, k), True, p) for k in kernels]


def subgroups_of_index(g: GroupTable, k: int) -> list[SubgroupInfo]:
    """All subgroups of the given index, sorted by carrier bit-set."""
    if k < 1 or g.n % k != 0:
        raise ValueError(f"index {k} does not divide the group order {g.n}")
    want = g.n // k
    out = []
    for mask in _all_subgroup_masks(g):
        if mask.bit_count() == want:
            out.append(
                SubgroupInfo(ElementSet(g, mask), _is_normal_mask(g, mask), k)
            )
    return out


def quotient(g: GroupTable, k: SubgroupInfo) -> tuple[GroupTable, tuple[int, ...]]:
    """Quotient group by a normal subgroup plus the element -> coset-index map."""
    if not k.is_normal:
        raise ValueError("cannot form quotient: subgroup is not normal")
    kmask = k.carrier.bits
    n = g.n
    op = g.op
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for h in range(n):
            if kmask >> h & 1:
                coset_of[op[x][h]] = idx
    qt = _table(
        reps,
        lambda x, y: reps[coset_of[op[x][y]]],
        f"{g.name}/K{len(reps)}",
        lambda x: f"{g.labels[x]}+K",
    )
    proj = tuple(coset_of)
    for a in range(n):
        row = op[a]
        for b in range(n):
            if proj[row[b]] != qt.op[proj[a]][proj[b]]:
                raise GroupValidationError(
                    f"quotient projection is not a homomorphism at ({a}, {b})"
                )
    return qt, proj


def center(g: GroupTable) -> ElementSet:
    """Elements commuting with everything, by brute force."""
    op = g.op
    bits = 0
    for x in range(g.n):
        row = op[x]
        if all(row[y] == op[y][x] for y in range(g.n)):
            bits |= 1 << x
    return ElementSet(g, bits)


def is_nilpotent(g: GroupTable) -> bool:
    """True iff any two elements of coprime order commute.

    Then each Sylow p-subgroup is normal: its normalizer holds it and every
    element of order prime to p, so a Sylow subgroup for every prime.  A
    group whose Sylow subgroups are normal is their direct product, and
    there elements of coprime order commute.
    """
    orders, op = g.element_orders, g.op
    return all(
        op[a][b] == op[b][a]
        for a in range(1, g.n)
        for b in range(a + 1, g.n)
        if math.gcd(orders[a], orders[b]) == 1
    )
