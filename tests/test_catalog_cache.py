"""Catalog integrity and JSON-lines cache semantics."""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import critnum
from critnum.cache import ResultCache, params_hash
from critnum.catalog import (
    CATALOG_DESCRIPTORS,
    catalog_group,
    catalog_init,
    compute_flags,
    order27_groups,
    resolve_group,
)
from critnum.groups import is_prime, smallest_prime_divisor, subgroups_of_index


def test_catalog_builds_and_flags_recomputable():
    entries = catalog_init()
    assert len(entries) == len(CATALOG_DESCRIPTORS)
    for entry in entries:
        g = catalog_group(entry.name)
        assert g.n == entry.order
        flags = compute_flags(g)
        assert entry.abelian == flags["abelian"]
        assert entry.nilpotent == flags["nilpotent"]
        assert entry.has_index2_subgroup == flags["has_index2_subgroup"]
        assert entry.smallest_prime == flags["smallest_prime"]


def test_catalog_expected_flags():
    by_name = {e.name: e for e in catalog_init()}
    h27 = by_name["H27"]
    assert (h27.abelian, h27.nilpotent, h27.smallest_prime) == (False, True, 3)
    assert by_name["D5"].has_index2_subgroup
    z45 = by_name["Z45"]
    assert z45.nilpotent and z45.smallest_prime == 3
    assert not by_name["A4"].has_index2_subgroup


def test_catalog_contains_no_prime_order_groups():
    for entry in catalog_init():
        assert not is_prime(entry.order)


def test_five_order27_groups_pairwise_structurally_distinct():
    groups = order27_groups()
    assert [g.n for g in groups] == [27] * 5
    # distinguish by (abelian, element-order multiset) signatures
    sigs = []
    for g in groups:
        orders = []
        for x in range(27):
            k, y = 1, x
            while y != 0:
                y = g.op[y][x]
                k += 1
            orders.append(k)
        sigs.append((g.is_abelian, tuple(sorted(orders))))
    assert len(set(sigs)) == 5


def test_a4_fixture_no_index2_subgroup_oracle():
    g = catalog_group("A4")
    assert g.n == 12
    # independent oracle: no 6-element subset containing 0 is closed
    for comb in combinations(range(1, 12), 5):
        members = (0,) + comb
        mask = sum(1 << i for i in members)
        if all(mask >> g.op[a][b] & 1 for a in members for b in members):
            pytest.fail(f"unexpected index-2 subgroup {members}")
    assert subgroups_of_index(g, 2) == []


def test_resolve_group_falls_back_to_descriptor():
    assert resolve_group("Z27").n == 27
    assert resolve_group("cyclic(11)").n == 11
    with pytest.raises(KeyError):
        resolve_group("nonsense")


def test_criterion10_preconditions_hold_for_catalog():
    # every catalog group with a normal index-p subgroup can host the witness
    for entry in catalog_init():
        p = smallest_prime_divisor(entry.order)
        g = catalog_group(entry.name)
        for sub in subgroups_of_index(g, p):
            if sub.is_normal:
                assert len(sub.carrier) >= p - 2


# ---------------------------------------------------------------------------
# cache


def test_cache_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    record = {"value": 4, "elapsed_ms": 123}
    params = {"group": "D3", "budget": None}
    cache.put("D3", "cr exact", params, record)
    assert cache.get("D3", "cr exact", params) == record


def test_cache_miss_on_empty_and_different_params(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    assert cache.get("D3", "cr exact", {"x": 1}) is None
    cache.put("D3", "cr exact", {"x": 1}, {"v": 1})
    assert cache.get("D3", "cr exact", {"x": 2}) is None
    assert cache.get("D4", "cr exact", {"x": 1}) is None


def test_cache_first_record_wins(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    params = {"a": 1}
    cache.put("G", "op", params, {"elapsed_ms": 1})
    cache.put("G", "op", params, {"elapsed_ms": 2})
    assert cache.get("G", "op", params) == {"elapsed_ms": 1}


def test_cache_skips_corrupt_lines(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put("G", "op", {"a": 1}, {"v": 1})
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    cache.put("G", "op", {"a": 2}, {"v": 2})
    assert cache.get("G", "op", {"a": 2}) == {"v": 2}
    assert "corrupt" in capsys.readouterr().err


def test_params_hash_is_order_insensitive():
    assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
    assert params_hash({"a": 1}) != params_hash({"a": 2})


def test_params_hash_digest_is_stable():
    # a cache written by an earlier version keeps its keys
    assert params_hash({"a": 1, "b": 2}) == (
        "43258cff783fe7036d8a43033f830adfc60ec037382473548ac742b888292777"
    )


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL; only a cache lookup should pay for it
    env = dict(os.environ, PYTHONPATH=str(Path(critnum.__file__).parents[1]))
    code = "import sys, critnum; print('hashlib' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cache_lock_reentrant_sessions(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    with cache.lock():
        cache.put("G", "op", {"a": 1}, {"v": 1})
    with cache.lock():
        assert cache.get("G", "op", {"a": 1}) == {"v": 1}
