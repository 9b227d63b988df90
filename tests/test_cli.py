"""CLI dispatch: outputs, exit codes, cache replay."""

import json

import pytest

from critnum.cli import cli_dispatch


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


def test_verify_l22_picks_the_group_by_element_order(capsys):
    # Z3 x Z3 under a name without "x": it has no element of order 9
    code, out, _ = run(
        capsys, "verify", "L2.2", "--group", "semidirect_cyclic(3,3,1)", "--no-cache"
    )
    assert code == 0
    assert json.loads(out)["group_name"] == "Z3xZ3"


def test_verify_l26_single_group(capsys):
    code, out, _ = run(
        capsys, "verify", "L2.6", "--group", "Z27", "--budget", "2000", "--jobs", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["group_name"] == "Z27"
    assert report["complete"] is False  # budget-capped partial run


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

    monkeypatch.setattr(cli_mod.ver, "verify_cd_fold", fake_verify)
    code, out, _ = run(capsys, "--no-cache", "verify", "CDFOLD")
    assert code == 1
