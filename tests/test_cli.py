"""CLI dispatch: outputs, exit codes, cache replay."""

import json

import pytest

from critnum import sumsets
from critnum.cache import ResultCache
from critnum.cli import ENGINE_VERSION, cli_dispatch
from critnum.critical import DEFAULT_SEED
from critnum.verifiers import DEFAULT_TRIALS, LEMMA_IDS


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CRITNUM_CACHE", str(tmp_path / "cache.jsonl"))
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cr_exact_d3(capsys):
    code, out, _ = run(capsys, "cr", "exact", "--group", "D3")
    assert code == 0
    cert = json.loads(out)
    assert cert["value"] == 4
    assert cert["method"] == "exhaustive"


def test_cr_formula_d7(capsys):
    code, out, _ = run(capsys, "cr", "formula", "--group", "D7")
    assert code == 0
    cert = json.loads(out)
    assert cert["value"] == 7
    assert cert["theorem_tag"] == "T1.3ii"


def test_cr_formula_not_applicable(capsys):
    code, out, _ = run(capsys, "cr", "formula", "--group", "Z9")
    assert code == 0
    assert json.loads(out) == {
        "group_name": "Z9",
        "n": 9,
        "method": "formula",
        "applicable": False,
    }


def test_cr_witness_and_sample(capsys):
    code, out, _ = run(capsys, "cr", "witness", "--group", "Z9")
    assert code == 0
    assert json.loads(out)["lower_bound"] == 4
    code, out, _ = run(
        capsys, "cr", "sample", "--group", "Z9", "--t", "5", "--trials", "50", "--seed", "5"
    )
    assert code == 0
    assert json.loads(out)["nonbases_found"] == 0


def test_cr_sample_requires_t(capsys):
    code, _, err = run(capsys, "cr", "sample", "--group", "Z9")
    assert code == 2
    assert "--t" in err


def test_cr_sample_refuses_a_count_below_one(capsys):
    # -3 trials once printed upper_bound 4 with no subset checked, and exited 0
    for trials in ("-3", "0"):
        code, out, err = run(
            capsys, "cr", "sample", "--group", "Z9", "--t", "4", "--trials", trials
        )
        assert code == 2 and out == ""
        assert "positive integer" in err


def test_verify_sampled_refuses_zero_trials(capsys):
    # 0 trials once printed cases_checked 0 and complete true, and exited 0
    code, out, err = run(
        capsys, "verify", "L2.1", "--group", "D3", "--mode", "sampled", "--trials", "0"
    )
    assert code == 2 and out == ""
    assert "positive integer" in err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "CDFOLD")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []


def test_verify_l22_rejects_groups_not_abelian_of_order_pq(capsys):
    for name in ("D5", "Z27"):
        code, out, err = run(capsys, "verify", "L2.2", "--group", name, "--no-cache")
        assert code == 2 and out == ""
        assert "order pq" in err


@pytest.mark.parametrize("name", ["Z3xZ3", "Z15", "Z9"])
def test_verify_l22_runs_on_the_named_group(capsys, name):
    code, out, _ = run(capsys, "verify", "L2.2", "--group", name, "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["group_name"] == name
    assert report["failures"] == [] and report["complete"]


@pytest.mark.parametrize(
    "descriptor,name",
    [
        ("direct_product(cyclic(3),cyclic(5))", "Z3xZ5"),
        # Z3 x Z3 under a name without "x": it has no element of order 9
        ("semidirect_cyclic(3,3,1)", "Z3:Z3(k=1)"),
    ],
    ids=["direct_product", "semidirect_cyclic"],
)
def test_verify_l22_reports_the_requested_group(capsys, descriptor, name):
    code, out, _ = run(capsys, "verify", "L2.2", "--group", descriptor, "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["group_name"] == name
    assert report["failures"] == [] and report["complete"]


def test_verify_l26_single_group(capsys):
    code, out, _ = run(
        capsys, "verify", "L2.6", "--group", "Z27", "--budget", "2000", "--jobs", "1"
    )
    assert code == 3
    report = json.loads(out)
    assert report["failures"] == []
    assert report["group_name"] == "Z27"
    assert report["complete"] is False  # budget-capped partial run


def test_cr_exact_undecided_leaf_exit_three(capsys, monkeypatch):
    # a non-basis wider than the complete search takes ends the scan incomplete
    monkeypatch.setattr(sumsets, "MASK_LIMIT", 3)
    code, out, _ = run(capsys, "cr", "exact", "--group", "A4", "--no-cache")
    assert code == 3
    cert = json.loads(out)
    assert cert["value"] is None and cert["lower_bound"] == 4
    assert "undecided" in cert["notes"]


def test_cr_exact_budget_exhausted_exit_three(capsys):
    code, out, _ = run(capsys, "cr", "exact", "--group", "Z9", "--budget", "5", "--no-cache")
    assert code == 3
    cert = json.loads(out)
    assert cert["method"] == "exhaustive" and cert["value"] is None


def test_verify_l25_emits_five_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "L2.5", "--group", "Z9")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["lemma_id"] for r in lines] == ["L2.5i", "L2.5ii", "L2.5iii", "L2.5iv", "L2.5v"]


def test_verify_requires_group_where_needed(capsys):
    code, _, err = run(capsys, "verify", "L2.4")
    assert code == 2
    assert "--group" in err


def test_unknown_group_usage_error(capsys):
    code, _, err = run(capsys, "cr", "exact", "--group", "NOPE")
    assert code == 2
    assert "usage" in err


@pytest.mark.parametrize(
    "argv", [("cr", "exact", "--group", "NOPE"), ("verify", "L2.5i", "--group", "NOPE")]
)
def test_unknown_group_leaves_no_cache_file(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""
    assert not (tmp_path / "cache.jsonl").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("verify", "NOPE", "--group", "Z9"), "lemma"),
        (("verify", "L2.4"), "--group"),
        (("verify", "CDFOLD", "--group", "Z9"), "--group"),
        (("verify", "L2.1", "--group", "Z9", "--budget", "5"), "--budget"),
        (("cr", "sample", "--group", "Z9"), "--t"),
        (("cr", "sample", "--group", "Z9", "--t", "9"), "--t"),
    ],
)
def test_usage_error_leaves_no_cache_file(capsys, tmp_path, monkeypatch, argv, flag):
    # with no CRITNUM_CACHE the store is ./critnum-cache.jsonl: flags are
    # checked before the store is opened, so the directory stays empty
    monkeypatch.delenv("CRITNUM_CACHE")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_dispatches_share_one_parser_but_no_values(capsys, tmp_path):
    # the parser is built once per process; a flag given to one dispatch is
    # not seen by the next
    code, pretty, _ = run(capsys, "--pretty", "cr", "formula", "--group", "D7", "--no-cache")
    assert code == 0 and not pretty.startswith("{")
    code, plain, _ = run(capsys, "cr", "formula", "--group", "D7")
    assert code == 0 and json.loads(plain)["value"] == 7
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1
    code, _, _ = run(capsys, "cr", "exact", "--group", "Z9", "--budget", "5")
    assert code == 3
    code, out, _ = run(capsys, "cr", "exact", "--group", "Z9")
    assert code == 0 and json.loads(out)["value"] == 5


def test_file_descriptor_is_not_a_group(capsys):
    # groups come only from the catalog and the constructor descriptors
    code, out, err = run(capsys, "cr", "exact", "--group", "file:a4.cayley")
    assert code == 2 and out == ""
    assert "neither a catalog group nor a valid descriptor" in err


def test_unknown_lemma_usage_error(capsys):
    code, _, err = run(capsys, "verify", "L9.9", "--group", "Z9")
    assert code == 2
    assert "lemma" in err


def test_unknown_flag_usage_error(capsys):
    code, _, _ = run(capsys, "cr", "exact", "--group", "D3", "--bogus")
    assert code == 2


def test_group_make_load_show(capsys, tmp_path):
    code, out, _ = run(capsys, "group", "make", "dihedral(3)")
    assert code == 0
    path = tmp_path / "d3.cayley"
    path.write_text(out)
    code, out, _ = run(capsys, "group", "load", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary == {
        "name": "D3",
        "order": 6,
        "abelian": False,
        "nilpotent": False,
        "has_index2_subgroup": True,
        "smallest_prime": 2,
    }
    code, out, _ = run(capsys, "group", "show", "H27")
    assert json.loads(out)["nilpotent"] is True


def test_group_load_invalid_table_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_text("2\n0 1\n1 1\n")
    code, _, err = run(capsys, "group", "load", str(path))
    assert code == 2
    assert "identity/inverse" in err


@pytest.mark.parametrize("name,reason", [("", "Is a directory"), ("nope", "No such file")])
def test_group_load_of_an_unreadable_path_usage_error(capsys, tmp_path, name, reason):
    # the message names the path, not the bare errno
    path = tmp_path / name
    code, _, err = run(capsys, "group", "load", str(path))
    assert code == 2
    assert reason in err and str(path) in err


def test_cache_path_under_a_regular_file_usage_error(capsys, tmp_path, monkeypatch):
    # exit 1 means a verifier failed, so an unusable cache path must not give it
    (tmp_path / "plain").write_text("")
    monkeypatch.setenv("CRITNUM_CACHE", str(tmp_path / "plain" / "cache.jsonl"))
    code, out, err = run(capsys, "cr", "exact", "--group", "D3")
    assert code == 2 and out == ""
    assert "plain" in err


def test_sigma_output(capsys):
    code, out, _ = run(capsys, "sigma", "--group", "cyclic(5)", "--set", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["full"] == [1, 2, 3]
    code, out, _ = run(capsys, "sigma", "--group", "Z9", "--set", "1,2", "--by-cardinality")
    data = json.loads(out)
    assert data["by_cardinality"] == {"1": [1, 2], "2": [3]}


def test_resolve_output(capsys):
    code, out, _ = run(capsys, "resolve", "--group", "Z9", "--set", "3,6")
    assert code == 0
    data = json.loads(out)
    assert data["critical_index"] == 2


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    names = {e["name"] for e in lines}
    assert {"Z27", "H27", "Z9:Z3", "A4", "Z45"} <= names


def test_cache_replay_byte_identical(capsys):
    code, first, _ = run(capsys, "cr", "exact", "--group", "D4")
    assert code == 0
    code, second, _ = run(capsys, "cr", "exact", "--group", "D4")
    assert code == 0
    assert first == second  # elapsed_ms preserved from the original run


def test_cache_misses_a_record_without_the_engine_stamp(capsys, tmp_path):
    # a record keyed without the engine version came from the lexicographic
    # scan, with another witness and count: it is a miss and gets one new
    # record, which then replays byte-identically
    path = tmp_path / "cache.jsonl"
    code, fresh, _ = run(capsys, "cr", "exact", "--group", "Z9")
    assert code == 0
    entry = json.loads(path.read_text())
    assert entry["params"].pop("engine") == ENGINE_VERSION
    stale = {**entry["record"], "witness": [1, 2, 3, 8], "subsets_checked": 62}
    path.unlink()
    ResultCache(str(path)).put("Z9", "cr exact", entry["params"], stale)
    code, first, _ = run(capsys, "cr", "exact", "--group", "Z9")
    assert code == 0
    cert = json.loads(first)
    assert (cert["witness"], cert["subsets_checked"]) == ([1, 2, 7, 8], 67)
    assert {**cert, "elapsed_ms": 0} == {**json.loads(fresh), "elapsed_ms": 0}
    assert len(path.read_text().splitlines()) == 2
    code, second, _ = run(capsys, "cr", "exact", "--group", "Z9")
    assert second == first
    assert len(path.read_text().splitlines()) == 2


def test_no_cache_skips_store(capsys, tmp_path):
    run(capsys, "--no-cache", "cr", "exact", "--group", "D3")
    assert not (tmp_path / "cache.jsonl").exists()


def test_verify_cache_replay(capsys):
    code, first, _ = run(capsys, "verify", "L2.5i", "--group", "Z9")
    code, second, _ = run(capsys, "verify", "L2.5i", "--group", "Z9")
    assert first == second


def test_cache_key_ignores_jobs(capsys, tmp_path):
    code, first, _ = run(capsys, "cr", "exact", "--group", "D4", "--jobs", "1")
    assert code == 0
    code, second, _ = run(capsys, "cr", "exact", "--group", "D4", "--jobs", "2")
    assert code == 0
    assert second == first
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1
    code, out, _ = run(capsys, "--jobs", "3", "verify", "L2.5i", "--group", "Z9")
    assert code == 0
    assert "jobs" not in json.loads(out)


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "--pretty", "cr", "formula", "--group", "D7")
    assert code == 0
    assert "theorem_tag" in out and "{" not in out


def test_exit_code_one_on_failures(capsys, monkeypatch):
    import critnum.cli as cli_mod
    import critnum.verifiers as ver

    def fake_verify(qs=(2, 3, 5, 7)):
        return ver.VerificationReport(
            lemma_id="CDFOLD",
            group_name="Z2",
            mode="exhaustive",
            cases_checked=1,
            failures=[{"q": 2, "elements": [1]}],
        )

    lemma = cli_mod.ver.LEMMAS["CDFOLD"]
    monkeypatch.setitem(cli_mod.ver.LEMMAS, "CDFOLD", lemma._replace(runners=(fake_verify,)))
    code, out, _ = run(capsys, "--no-cache", "verify", "CDFOLD")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["INEQ2.4", "--group", "Z9", "--mode", "sampled", "--trials", "1"],
        ["L2.3", "--group", "Z9", "--mode", "sampled", "--trials", "1"],
    ],
)
def test_verify_sampled_run_that_checked_nothing_exit_three(capsys, argv):
    # the one draw lies outside the lemma's hypotheses: skipped, not a pass
    code, out, _ = run(capsys, "--no-cache", "verify", *argv)
    assert code == 3
    report = json.loads(out)
    assert (report["cases_checked"], report["skipped"]) == (0, 1)
    assert report["complete"] is False and report["failures"] == []


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["CDFOLD", "--group", "Z27"], "--group"),
        (["T1.3small", "--group", "Z27", "--mode", "sampled"], "--group"),
        (["T1.3small", "--mode", "sampled"], "--mode"),
        (["L2.1", "--group", "Z9", "--budget", "5"], "--budget"),
        (["L2.5", "--group", "Z9", "--seed", "3"], "--seed"),
        (["L2.6", "--trials", "5"], "--trials"),
        (["INEQ2.4", "--group", "Z27", "--mode", "exhaustive"], "--mode"),
    ],
)
def test_verify_refuses_a_flag_the_lemma_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "--no-cache", "verify", *argv)
    assert code == 2 and out == ""
    assert flag in err


def test_verify_defaults_are_the_verifiers_own(capsys):
    # an unset --trials/--seed leaves the verifier's default, which the report shows
    code, out, _ = run(capsys, "--no-cache", "verify", "L2.1", "--group", "D6", "--mode", "sampled")
    assert code == 0
    report = json.loads(out)
    assert (report["seed"], report["trials"]) == (DEFAULT_SEED, DEFAULT_TRIALS)


def test_cr_sample_defaults_unchanged(capsys):
    base = ["--no-cache", "cr", "sample", "--group", "Z9", "--t", "5"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    default = json.loads(out)
    assert default["subsets_checked"] == DEFAULT_TRIALS
    code, out, _ = run(capsys, *base, "--trials", str(DEFAULT_TRIALS), "--seed", str(DEFAULT_SEED))
    assert {**json.loads(out), "elapsed_ms": 0} == {**default, "elapsed_ms": 0}


# cheap arguments for each verifier id; an id added to the table without an
# entry here fails its case with a KeyError
_CHEAP_VERIFY_ARGS = {
    "L2.1": ["--group", "D3"],
    "L2.2": ["--group", "cyclic(6)"],
    "L2.3": ["--group", "Z9", "--mode", "sampled", "--trials", "20"],
    "L2.4": ["--group", "Z9"],
    "L2.5": ["--group", "Z9"],
    "L2.5i": ["--group", "Z9"],
    "L2.5ii": ["--group", "Z3xZ3"],
    "L2.5iii": ["--group", "Z9"],
    "L2.5iv": ["--group", "Z3xZ3"],
    "L2.5v": ["--group", "Z9"],
    "L2.6": ["--budget", "50"],
    "INEQ2.3": ["--group", "D3"],
    "INEQ2.4": ["--group", "Z27", "--trials", "50"],
    "CDFOLD": [],
    "T1.3small": ["--budget", "50"],
}


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_every_verifier_id_is_reachable(capsys, lemma_id):
    code, out, err = run(capsys, "--no-cache", "verify", lemma_id, *_CHEAP_VERIFY_ARGS[lemma_id])
    assert code in (0, 3), err  # budgeted scans end incomplete
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["lemma_id"].startswith(lemma_id) for r in reports)
