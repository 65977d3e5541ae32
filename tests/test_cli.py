import json

import pytest
from click.testing import CliRunner

from taukb import formats
from taukb.cli import main
from taukb.formats import CardDecl, render_facts


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def test_table_matches_reference_render(runner, reference):
    result = invoke(runner, "table")
    assert result.exit_code == 0
    assert result.output == formats.render_table([list(r) for r in reference.grid])


def test_table_deterministic(runner):
    a = invoke(runner, "table")
    b = invoke(runner, "table")
    assert a.output == b.output


def test_query_output(runner):
    assert invoke(runner, "query", "18", "8").output == "NotImplies\n"
    assert invoke(runner, "query", "0", "18").output == "Implies\n"
    assert invoke(runner, "query", "0", "15").output == "Unknown\n"


def test_card_outputs(runner):
    assert invoke(runner, "card", "6").output == "cov(M) <= non(S1(T,Omega)) <= d\n"
    assert invoke(runner, "card", "12").output == "non(Sfin(Gamma,T)) = b\n"
    assert invoke(runner, "card", "10").output == "non(S1(Omega,Omega)) = cov(M)\n"


def test_explain_mentions_witness_model(runner):
    result = invoke(runner, "explain", "18", "8")
    assert result.exit_code == 0
    assert "R4 [model laver]" in result.output


def test_diff_clean_by_default(runner):
    result = invoke(runner, "diff")
    assert result.exit_code == 0
    assert result.output == "identical\n"


def test_problems_lists_solved_issue(runner):
    result = invoke(runner, "problems")
    assert "issue 3" in result.output and "Lubomyr Zdomsky" in result.output


def test_jsonl_mirrors_query(runner):
    result = invoke(runner, "--format", "jsonl", "query", "18", "8")
    assert json.loads(result.output) == {"row": 18, "col": 8, "verdict": "NotImplies"}


def test_jsonl_table_has_22_rows(runner):
    result = invoke(runner, "--format", "jsonl", "table")
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert len(rows) == 22 and rows[8]["row"] == "+" * 22


@pytest.fixture()
def ablated_facts(tmp_path):
    from taukb.core import atom

    ff = formats.load_default_facts().without(
        lambda d: isinstance(d, CardDecl) and d.expr == atom("od"))
    path = tmp_path / "ablated.txt"
    path.write_text(render_facts(ff), encoding="utf-8")
    return path


def test_ablated_facts_open_cells_and_diff_exits_1(runner, ablated_facts):
    table = invoke(runner, "--facts", str(ablated_facts), "table")
    assert table.exit_code == 0
    assert table.output.count("?") > 55
    result = invoke(runner, "--facts", str(ablated_facts), "diff")
    assert result.exit_code == 1
    assert "computed=Unknown" in result.output


def test_parse_error_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("arrow 0\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(bad), "table")
    assert result.exit_code == 2


def test_contradiction_exits_3(runner, tmp_path):
    from importlib.resources import files

    text = files("taukb.data").joinpath("base_facts.txt").read_text(encoding="utf-8")
    bad = tmp_path / "contradictory.txt"
    bad.write_text(text + "\narrow 18 8\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(bad), "table")
    assert result.exit_code == 3


def test_diag_and_odiag_commands(runner, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("01/1\n01/1\n\n10/1\n10/1\n", encoding="utf-8")
    result = invoke(runner, "diag", str(fam), "--col-bound", "3", "--hit-quota", "2")
    assert result.exit_code == 0
    assert result.output == "selector: {2} {2}\n"
    result = invoke(runner, "odiag", str(fam), "--col-bound", "3")
    assert result.exit_code == 0
    assert result.output.startswith("g = ")

    disjoint = tmp_path / "disjoint.txt"
    disjoint.write_text("0100/0\n\n0010/0\n", encoding="utf-8")
    result = invoke(runner, "odiag", str(disjoint), "--col-bound", "4")
    assert result.exit_code == 0
    assert "not o-diagonalizable" in result.output


def test_budget_flag_guards_search(runner, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("\n".join(["1/1"] * 20) + "\n", encoding="utf-8")
    result = invoke(runner, "--budget", "10", "odiag", str(fam), "--col-bound", "4")
    assert result.exit_code == 2


@pytest.mark.parametrize("extra", ["include self.txt", "include other.txt", "include missing.txt",
                                   "nonimp 0 15 model=ghost"])
def test_bad_fact_input_exits_2(runner, tmp_path, extra):
    from importlib.resources import files

    text = files("taukb.data").joinpath("base_facts.txt").read_text(encoding="utf-8")
    (tmp_path / "self.txt").write_text(text + extra + "\n", encoding="utf-8")
    (tmp_path / "other.txt").write_text("include self.txt\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(tmp_path / "self.txt"), "table")
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
