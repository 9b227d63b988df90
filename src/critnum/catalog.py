"""Built-in group catalog: every group the verification suite runs over."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

from .groups import (
    GroupTable,
    is_nilpotent,
    make_group,
    normal_subgroups_of_prime_index,
    smallest_prime_divisor,
)

# name -> constructor descriptor
CATALOG_DESCRIPTORS: tuple[tuple[str, str], ...] = (
    ("Z4", "cyclic(4)"),
    ("Z6", "cyclic(6)"),
    ("D3", "dihedral(3)"),
    ("Z8", "cyclic(8)"),
    ("D4", "dihedral(4)"),
    ("Dic2", "dicyclic(2)"),
    ("Z9", "cyclic(9)"),
    ("Z3xZ3", "direct_product(cyclic(3),cyclic(3))"),
    ("Z10", "cyclic(10)"),
    ("D5", "dihedral(5)"),
    ("D6", "dihedral(6)"),
    ("Dic3", "dicyclic(3)"),
    ("Z2xD3", "direct_product(cyclic(2),dihedral(3))"),
    ("A4", "alternating(4)"),
    ("D7", "dihedral(7)"),
    ("Z15", "cyclic(15)"),
    ("D8", "dihedral(8)"),
    ("Dic4", "dicyclic(4)"),
    ("Z2xD4", "direct_product(cyclic(2),dihedral(4))"),
    ("SD16", "semidirect_cyclic(8,2,3)"),
    ("M16", "semidirect_cyclic(8,2,5)"),
    ("Z21", "cyclic(21)"),
    ("Z7:Z3", "semidirect_cyclic(7,3,2)"),
    ("Z25", "cyclic(25)"),
    ("Z27", "cyclic(27)"),
    ("Z9xZ3", "direct_product(cyclic(9),cyclic(3))"),
    ("Z3xZ3xZ3", "direct_product(cyclic(3),direct_product(cyclic(3),cyclic(3)))"),
    ("H27", "heisenberg(3)"),
    ("Z9:Z3", "semidirect_cyclic(9,3,4)"),
    ("Z45", "cyclic(45)"),
)

ORDER27_NAMES = ("Z27", "Z9xZ3", "Z3xZ3xZ3", "H27", "Z9:Z3")


@dataclass(frozen=True)
class CatalogEntry:
    """A named catalog group with its structure flags."""

    name: str
    descriptor: str
    order: int
    abelian: bool
    nilpotent: bool
    has_index2_subgroup: bool
    smallest_prime: int

    def to_json(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=None)
def catalog_group(name: str) -> GroupTable:
    """The catalog group with the given name (tables are built once and cached)."""
    for entry_name, descriptor in CATALOG_DESCRIPTORS:
        if entry_name == name:
            return make_group(descriptor)
    raise KeyError(f"unknown catalog group {name!r}")


def compute_flags(g: GroupTable) -> dict:
    return {
        "abelian": g.is_abelian,
        "nilpotent": is_nilpotent(g),
        "has_index2_subgroup": bool(normal_subgroups_of_prime_index(g, 2)),
        "smallest_prime": smallest_prime_divisor(g.n),
    }


def catalog_init() -> list[CatalogEntry]:
    """Register the built-in catalog, computing every flag from the tables."""
    entries = []
    for name, descriptor in CATALOG_DESCRIPTORS:
        g = catalog_group(name)
        flags = compute_flags(g)
        entries.append(CatalogEntry(name=name, descriptor=descriptor, order=g.n, **flags))
    return entries


def resolve_group(name_or_descriptor: str) -> GroupTable:
    """Look up a catalog name, falling back to parsing a constructor descriptor."""
    try:
        return catalog_group(name_or_descriptor)
    except KeyError:
        pass
    try:
        return make_group(name_or_descriptor)
    except ValueError:
        raise KeyError(
            f"{name_or_descriptor!r} is neither a catalog group nor a valid descriptor"
        ) from None


def order27_groups() -> list[GroupTable]:
    return [catalog_group(name) for name in ORDER27_NAMES]
