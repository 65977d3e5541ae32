import contextlib
import errno
import io
import json
import os
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import given, settings

import taukb
from taukb import formats
from taukb.cli import main
from taukb.formats import CardDecl
from taukb.writers import render_facts


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


def test_explain_cites_a_fact_read_from_an_include_by_its_file(tmp_path, runner):
    base = formats.data_text("base_facts.txt").replace("arrow 18 19\n", "", 1)
    (tmp_path / "main.txt").write_text(base + "include sub.txt\n", encoding="utf-8")
    (tmp_path / "sub.txt").write_text("# moved here\n\narrow 18 19\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(tmp_path / "main.txt"), "explain", "18", "19")
    assert result.exit_code == 0, result.output
    assert result.output == "S0 fact [sub.txt:3]: Ufin(Gamma,Gamma) -> Ufin(Gamma,T)\n"


def test_nested_includes_cite_each_file_by_its_path_from_the_top_file(tmp_path, runner):
    # a/inc.txt's "include sub.txt" names a/sub.txt; main.txt's names sub.txt
    base = formats.data_text("base_facts.txt").replace("arrow 18 19\n", "", 1).replace("arrow 0 1\n", "", 1)
    (tmp_path / "a").mkdir()
    (tmp_path / "main.txt").write_text(base + "include a/inc.txt\ninclude sub.txt\n", encoding="utf-8")
    (tmp_path / "a" / "inc.txt").write_text("include sub.txt\n", encoding="utf-8")
    (tmp_path / "a" / "sub.txt").write_text("arrow 18 19\n", encoding="utf-8")
    (tmp_path / "sub.txt").write_text("arrow 0 1\n", encoding="utf-8")
    for cell, line in ((("18", "19"), "S0 fact [a/sub.txt:1]: Ufin(Gamma,Gamma) -> Ufin(Gamma,T)\n"),
                       (("0", "1"), "S0 fact [sub.txt:1]: S1(Gamma,Gamma) -> S1(Gamma,T)\n")):
        result = invoke(runner, "--facts", str(tmp_path / "main.txt"), "explain", *cell)
        assert result.exit_code == 0, result.output
        assert result.output == line


@pytest.mark.parametrize("files", [
    # one file reached two ways, from a/ and from the top file, has one name
    {"main.txt": "include a/inc.txt\ninclude x.txt\n", "a/inc.txt": "include ../x.txt\n", "x.txt": "arrow 18 19\n"},
    {"main.txt": "include ./x.txt\n", "x.txt": "arrow 18 19\n"},
], ids=["two-ways", "dot-slash"])
def test_an_included_file_is_cited_by_its_normalised_path(tmp_path, runner, files):
    (tmp_path / "a").mkdir()
    base = formats.data_text("base_facts.txt").replace("arrow 18 19\n", "", 1)
    for name, text in files.items():
        (tmp_path / name).write_text(base + text if name == "main.txt" else text, encoding="utf-8")
    result = invoke(runner, "--facts", str(tmp_path / "main.txt"), "explain", "18", "19")
    assert result.exit_code == 0, result.output
    assert result.output == "S0 fact [x.txt:1]: Ufin(Gamma,Gamma) -> Ufin(Gamma,T)\n"


def test_nested_include_error_names_the_file_by_its_path_from_the_top_file(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "main.txt").write_text('property 0 "S1(Gamma,Gamma)"\ninclude a/dupinc.txt\n', encoding="utf-8")
    (tmp_path / "a" / "dupinc.txt").write_text("include sub2.txt\n", encoding="utf-8")
    (tmp_path / "a" / "sub2.txt").write_text('# a comment\nproperty 0 "S1(Gamma,T)"\n', encoding="utf-8")
    result = CliRunner().invoke(main, ["--facts", str(tmp_path / "main.txt"), "table"])
    assert result.exit_code == 2, result.output
    assert result.stderr == ("error: fact file does not resolve: include a/sub2.txt: line 2: duplicate serial 0, "
                             "first declared on line 1\n")


def test_card_line_with_a_missing_operand_exits_2(tmp_path, runner):
    path = tmp_path / "facts.txt"
    path.write_text(formats.data_text("base_facts.txt") + "card 0 eq min{,b}\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(path), "table")
    assert result.exit_code == 2, result.output
    assert "expected expression at ',b}'" in result.stderr


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


@pytest.mark.parametrize("command", ["table", "diff"])
def test_table_and_diff_name_the_undeclared_serials(tmp_path, command):
    from taukb import engine
    from taukb.formats import SerialRef
    from taukb.models import load_default_registry

    gone = {SerialRef(20), SerialRef(21)}
    ff = formats.load_default_facts().without(
        lambda d: getattr(d, "serial", None) in (20, 21)
        or any(getattr(d, field, None) in gone for field in ("src", "dst", "ref")))
    path = tmp_path / "partial.txt"
    path.write_text(render_facts(ff), encoding="utf-8")
    result = CliRunner().invoke(main, ["--facts", str(path), command])
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: the fact file declares no property with serial 20, 21\n"
    grid = engine.close(engine.build_knowledge_base(ff, load_default_registry())).serial_grid()
    assert len(grid) == 20 and all(len(row) == 20 for row in grid)


def test_parse_error_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("arrow 0\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(bad), "table")
    assert result.exit_code == 2


def test_contradiction_exits_3(runner, tmp_path):
    text = formats.data_text("base_facts.txt")
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


def test_a_comment_line_ends_no_family_block(runner, tmp_path):
    # one array of two rows either way: only a blank line separates arrays
    fam = tmp_path / "family.txt"
    for text in ("01/1\n# note\n10/1\n", "01/1\n10/1\n"):
        fam.write_text(text, encoding="utf-8")
        assert invoke(runner, "odiag", str(fam)).output == "g = 0 0\n"
        assert invoke(runner, "diag", str(fam)).output == "selector: {} {0}\n"


def test_a_comment_line_ends_no_model_block(runner, tmp_path):
    # the level line after the comment still belongs to model m
    models = tmp_path / "models.txt"
    models.write_text('model m cite "x"\n# c\nlevel p 1\n', encoding="utf-8")
    result = invoke(runner, "--models", str(models), "table")
    assert result.exit_code == 0, result.output
    models.write_text('model m cite "x"\nlevel p 1\n', encoding="utf-8")
    assert invoke(runner, "--models", str(models), "table").output == result.output


@pytest.mark.parametrize("args, output", [
    (["diag", "--size-bound", "0", "--hit-quota", "0"], "selector: " + " ".join(["{}"] * 3000) + "\n"),
    (["diag", "--col-bound", "0"], "not finitely tau-diagonalizable within the bounds\n"),
    (["odiag", "--col-bound", "1"], "g = " + " ".join(["0"] * 3000) + "\n"),
], ids=" ".join)
def test_deep_family_searches(runner, tmp_path, args, output):
    # one candidate per row over 3,000 rows; the second search backtracks through all of them
    fam = tmp_path / "deep.txt"
    fam.write_text("\n".join(["0/1"] * 2999 + ["1/1"]) + "\n\n" + "\n".join(["1/1"] + ["0/1"] * 2999) + "\n",
                   encoding="utf-8")
    result = invoke(runner, args[0], str(fam), *args[1:])
    assert result.exit_code == 0, result.output
    assert result.output == output


def test_budget_flag_guards_search(runner, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("\n".join(["1/1"] * 20) + "\n", encoding="utf-8")
    result = invoke(runner, "--budget", "10", "odiag", str(fam), "--col-bound", "4")
    assert result.exit_code == 2


def _diag_child(tmp_path, family, bound):
    """`taukb diag` in a child process, on FAMILY with both bounds BOUND."""
    (tmp_path / "family.txt").write_text(family, encoding="utf-8")
    src = str(Path(taukb.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "taukb.cli", "diag", "family.txt", "--col-bound", bound,
                           "--size-bound", bound], capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), timeout=10)


@pytest.mark.parametrize("bound", ["2000", "10000", "40000"])
def test_budget_guard_refuses_wide_bounds_at_once(tmp_path, bound):
    # the guard stops adding column sets at the first partial count over budget;
    # summing them all takes 13.5 s at bound 10,000 and over a minute at 40,000
    proc = _diag_child(tmp_path, "01/1\n01/1\n\n10/1\n10/1\n", bound)
    assert proc.returncode == 2
    assert proc.stderr == f"error: at least {int(bound) + 1}^2 selector tuples exceed budget 2000000\n"


def test_budget_guard_sums_nothing_for_a_family_with_no_rows(tmp_path):
    # one empty tuple whatever the bounds; summing them takes 12 s at bound 10,000
    proc = _diag_child(tmp_path, "", "40000")
    assert (proc.returncode, proc.stdout) == (0, "selector: \n")


@pytest.mark.parametrize("extra", ["include self.txt", "include other.txt", "include missing.txt",
                                   "nonimp 0 15 model=ghost", "nonimp 0 17 model=ch model=cohen",
                                   "nonimp 0 15 model="])
def test_bad_fact_input_exits_2(runner, tmp_path, extra):
    text = formats.data_text("base_facts.txt")
    (tmp_path / "self.txt").write_text(text + extra + "\n", encoding="utf-8")
    (tmp_path / "other.txt").write_text("include self.txt\n", encoding="utf-8")
    result = invoke(runner, "--facts", str(tmp_path / "self.txt"), "table")
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)


_BAD_INPUTS = {
    "table.txt": b"x\n",
    "few_serials.txt": b'property 0 "S1(Gamma,Gamma)" non=b\nproperty 1 "S1(Gamma,T)" non=b\narrow 0 1\n',
    "not_utf8.txt": b"\xff\xfe",
    "ragged.fam": b"01/1\n10/1\n\n1/1\n",
    "gamma.fam": b"01/1\n10/1\n\n11/1\n10/1\n",
    "p_above_t.models": b'model bad cite "x"\nlevel p 2\nlevel t 1\n',
    "duplicate.models": b'model m cite "x"\nlevel p 1\n\nmodel m cite "y"\nlevel p 1\n',
    "level_twice.models": b'model m cite "x"\nlevel aleph1 1\nlevel d 1\nlevel b 2\nlevel b 1\nlevel c 2\n',
}


@pytest.mark.parametrize("args", [
    ["diff", "table.txt"],
    ["--facts", "few_serials.txt", "table"],
    ["--facts", "not_utf8.txt", "table"],
    ["--models", "not_utf8.txt", "table"],
    ["diag", "not_utf8.txt"],
    ["odiag", "not_utf8.txt"],
    ["diff", "not_utf8.txt"],
    ["odiag", "ragged.fam"],
    ["--models", "p_above_t.models", "table"],
    ["--models", "duplicate.models", "table"],
    ["--models", "level_twice.models", "table"],
    ["diag", "gamma.fam", "--col-bound", "-1"],
    ["diag", "gamma.fam", "--size-bound", "-1"],
    ["odiag", "gamma.fam", "--col-bound", "-1"],
    ["diag", "gamma.fam", "--hit-quota", "-1"],
    ["diag", "gamma.fam", "--hit-quota", "-3"],
    ["diag", "gamma.fam", "--exceptions", "-1"],
], ids=" ".join)
def test_bad_input_file_exits_2_without_traceback(tmp_path, monkeypatch, args):
    for name, data in _BAD_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.output


_P0 = 'property 0 "S1(Gamma,Gamma)" non=b\n'
_DEEP_CARD = "card 0 ge " + "".join(("min{b,", "max{b,")[k % 2] for k in range(500)) + "s" + "}" * 500
# (flag, file text, the one stderr line); each file is refused before any closure
_REFUSALS = [
    ("--facts", _P0 + 'property 0 "S1(Gamma,T)" non=b\n',
     "fact file does not resolve: line 2: duplicate serial 0, first declared on line 1"),
    ("--facts", _P0 + 'property 1 "S1(Gamma,Gamma)" non=b\n',
     "fact file does not resolve: line 2: duplicate property S1(Gamma,Gamma), first declared on line 1"),
    ("--facts", "variant S1 T T borel\nvariant S1 T T borel\n",
     "fact file does not resolve: line 2: duplicate property S1(T,T)[borel], first declared on line 1"),
    ("--facts", _P0 + "arrow 0 S1:T:T:borel\n",
     "fact file does not resolve: line 2: property S1:T:T:borel is not declared"),
    ("--facts", _P0 + "arrow 0 0\n", "fact file does not resolve: line 2: arrow endpoints must be distinct"),
    ("--facts", _P0 + 'nonimp 0 25 cite="x"\n', "fact file does not resolve: line 2: serial 25 is not declared"),
    ("--facts", _P0 + 'nonimp 0 S1:Gamma:Gamma:borel cite="x"\n',
     "fact file does not resolve: line 2: property S1:Gamma:Gamma:borel is not declared"),
    ("--facts", _P0 + "arrow 0 S1:Gamma:Foo:open\n", "line 2, col 1: bad property coordinates S1 Gamma Foo open"),
    ("--facts", _P0 + "arrow 0 a:b\n", "line 2, col 1: ref must be a serial or kind:from:to:variant, got 'a:b'"),
    ("--facts", 'property 30 "S1(Gamma,Gamma)"\n', "line 1, col 1: serial must be an integer in 0..21, got '30'"),
    ("--facts", 'property 0 "Foo"\n', 'line 1, col 1: property name must look like S1(Gamma,Omega), got "Foo"'),
    ("--facts", _P0 + 'property 1 "S1(Gamma,T)"\narrow 0 1 cite=x\n',
     "line 3, col 1: cite value must be double-quoted"),
    ("--facts", 'property 0 "S1(Gamma,Gamma)" non=min{b;s}\n', "line 1, col 1: expected ',' or '}' in 'min{b;s}'"),
    ("--facts", ",\n", "line 1, col 1: unknown declaration ','"),
    ("--facts", _P0 + _DEEP_CARD + "\n", "line 2, col 1: expression nests deeper than 32 levels"),
    ("--models", "model m cite x\nlevel p 1\n", "line 1, col 9: citation must be double-quoted"),
    ("--models", 'model m cite "x"\nlevel b\n', "line 2, col 1: expected: level <atom> <integer>"),
    ("--models", 'model m cite "x"\nlevel b x\n', "line 2, col 1: level must be an integer, got 'x'"),
    ("diff", "+" * 22 + "\nframes 40\n" + ("+" * 22 + "\n") * 21, "line 2: bad frame column '40'"),
    # several bad lines are one error line
    ("--facts", _P0 + "foo\nbar\n",
     "line 2, col 1: unknown declaration 'foo'; line 3, col 1: unknown declaration 'bar'"),
    ("--models", 'model m cite "x"\nlevel b x\nlevel zz 1\n',
     "line 2, col 1: level must be an integer, got 'x'; line 3, col 7: unknown atom 'zz'"),
]


@pytest.mark.parametrize("flag, text, message", _REFUSALS, ids=[m for _, _, m in _REFUSALS])
def test_refused_input_prints_one_error_line(tmp_path, flag, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    args = ["diff", str(path)] if flag == "diff" else [flag, str(path), "table"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {message}\n"
    assert "Traceback" not in result.output


# id -> (arguments, the files they name, the one stderr line): a property
# and a variant line share one duplicate rule, an included file's error is
# reported at its include line, and a family file's bad lines are one line
_DUPLICATE = "fact file does not resolve: line 2: duplicate property S1(Gamma,Gamma), first declared on line 1"
_FILE_REFUSALS = {
    "property-then-variant": (["--facts", "main.txt", "table"], {"main.txt": _P0 + "variant S1 Gamma Gamma open\n"},
                              _DUPLICATE),
    "variant-then-property": (["--facts", "main.txt", "table"], {"main.txt": "variant S1 Gamma Gamma open\n" + _P0},
                              _DUPLICATE),
    "bad-line-in-include": (["--facts", "main.txt", "table"],
                            {"main.txt": "include sub.txt\n", "sub.txt": "\n" * 4 + "bogus line\n"},
                            "line 1, col 1: include sub.txt: line 5, col 1: unknown declaration 'bogus'"),
    "duplicate-in-include": (["--facts", "main.txt", "table"],
                             {"main.txt": 'property 0 "S1(Gamma,Gamma)"\ninclude inc.txt\n',
                              "inc.txt": '# a comment\nproperty 0 "S1(Gamma,T)"\n'},
                             "fact file does not resolve: include inc.txt: line 2: duplicate serial 0, "
                             "first declared on line 1"),
    "include-cycle": (["--facts", "main.txt", "table"],
                      {"main.txt": "include sub.txt\n", "sub.txt": "# back again\ninclude main.txt\n"},
                      "line 1, col 1: include sub.txt: line 2, col 1: include main.txt forms a cycle"),
    "not-utf8-include": (["--facts", "main.txt", "table"], {"main.txt": "include sub.txt\n", "sub.txt": b"\xff\n"},
                         "line 1, col 1: include sub.txt: sub.txt is not UTF-8 text: invalid start byte at byte 0"),
    # an included file is named by its includer's directory as written, "./" included
    "not-utf8-include-from-dot-slash": (["--facts", "./main.txt", "table"],
                                        {"main.txt": "include sub.txt\n", "sub.txt": b"\xff\n"},
                                        "line 1, col 1: include sub.txt: ./sub.txt is not UTF-8 text: invalid start byte at byte 0"),
    "two-bad-family-lines": (["odiag", "fam.txt"], {"fam.txt": "01/1\nbogus\n\n2/1\n"},
                             "line 2: expected <word>/<tailbit>, got 'bogus'; "
                             "line 4: row must be a 0/1 word and a 0/1 tail, got '2' and 1"),
}


@pytest.mark.parametrize("args, files, message", _FILE_REFUSALS.values(), ids=_FILE_REFUSALS)
def test_refused_files_print_one_error_line(tmp_path, monkeypatch, args, files, message):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    monkeypatch.chdir(tmp_path)  # a message names an included file by its path from here
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"


# an empty include path is refused at its own line, before it is joined onto
# its includer's directory, so the message does not depend on how that is named
@pytest.mark.parametrize("facts", ["main.txt", "./main.txt", "{tmp}/main.txt", "sub/main.txt"])
@pytest.mark.parametrize("nested", [False, True], ids=["top", "nested"])
def test_an_empty_include_path_is_one_error_however_its_includer_is_named(tmp_path, monkeypatch, facts, nested):
    (tmp_path / "sub").mkdir()
    for d in (tmp_path, tmp_path / "sub"):
        (d / "main.txt").write_text("include inc.txt\n" if nested else 'include ""\n', encoding="utf-8")
        (d / "inc.txt").write_text('arrow 0 1\ninclude ""\n', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["--facts", facts.format(tmp=tmp_path), "table"])
    assert result.exit_code == 2, result.output
    where = "line 1, col 1: include inc.txt: line 2, col 1: " if nested else "line 1, col 1: "
    assert result.stderr == f'error: {where}include "": empty path\n'


# --- fuzz: generated input files through every command --------------------

_BASE = {name: formats.data_text(name).splitlines()
         for name in ("base_facts.txt", "models.txt", "table1.txt")}
# lines that, inserted into a base file, make it contradictory, redundant,
# inconsistent, cyclic or malformed
_VOCAB = {
    "base_facts.txt": ["arrow 18 8", "arrow 0 21", "nonimp 0 18 model=ch", "nonimp 5 5 model=ghost",
                       "card 3 eq c", "card 6 le p", "card 0 ge od", 'property 3 "S1(T,T)" non=t',
                       "variant S1 O O borel", "include facts.txt", 'include "fam.txt"', "include nowhere",
                       "arrow 0", 'cite="x"', '"', _DEEP_CARD],
    "models.txt": ['model x cite "y"', "level p 2", "level c 1", "level od 9", "level covM 1", "level q 1",
                   "model", "level b"],
    "table1.txt": ["+" * 22, "-" * 22, "?" * 22, "frames 0 3", "frames 22", "+-?"],
}


@st.composite
def _edited(draw, name):
    """A base data file with a few lines dropped, or replaced by or preceded by a vocabulary line."""
    lines = list(_BASE[name])
    for k, op, new in draw(st.lists(st.tuples(st.integers(0, len(lines) - 1),
                                              st.sampled_from(["drop", "replace", "insert"]),
                                              st.sampled_from(_VOCAB[name])), max_size=4)):
        lines[k:k + (op != "insert")] = [] if op == "drop" else [new]
    return "\n".join(lines) + "\n"


_rows = st.lists(st.tuples(st.text("01", max_size=4), st.sampled_from("01")), min_size=1, max_size=4)
_families = st.lists(_rows, min_size=1, max_size=3).map(
    lambda arrays: "\n\n".join("\n".join(f"{w}/{t}" for w, t in rows) for rows in arrays) + "\n")
_serials = st.integers(-1, 22).map(str)
_bounds = st.integers(-1, 4).map(str)
_commands = st.one_of(
    st.sampled_from([["table"], ["problems"], ["diff"], ["diff", "table.txt"]]),
    st.tuples(st.sampled_from(["query", "explain"]), _serials, _serials).map(list),
    st.tuples(st.just("card"), _serials).map(list),
    st.tuples(_bounds, _bounds, _bounds, _bounds).map(
        lambda b: ["diag", "fam.txt", "--col-bound", b[0], "--size-bound", b[1], "--hit-quota", b[2],
                   "--exceptions", b[3]]),
    st.tuples(_bounds).map(lambda b: ["odiag", "fam.txt", "--col-bound", b[0]]),
)


@settings(max_examples=100, deadline=None)
@given(facts=st.none() | _edited("base_facts.txt"), models=st.none() | _edited("models.txt"),
       table=_edited("table1.txt"), family=_families, fmt=st.sampled_from(["table", "jsonl"]),
       budget=st.integers(-1, 20_000), command=_commands)
def test_cli_fuzz_exits_with_a_documented_code(facts, models, table, family, fmt, budget, command):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = ["--format", fmt, "--budget", str(budget)]
        for option, text, name in (("--facts", facts, "facts.txt"), ("--models", models, "models.txt")):
            if text is not None:
                (work / name).write_text(text, encoding="utf-8")
                argv += [option, str(work / name)]
        (work / "table.txt").write_text(table, encoding="utf-8")
        (work / "fam.txt").write_text(family, encoding="utf-8")
        argv += [str(work / a) if a.endswith(".txt") else a for a in command]
        result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code in ((0, 1, 2, 3) if command[0] == "diff" else (0, 2, 3)), result.output
    assert "Traceback" not in result.output


# How a run ends.  A child runs main() as the program, as the benchmark does,
# and ends with os._exit once its output is flushed; main.main() and
# standalone_mode=False, which CliRunner and embedders use, keep the process.
_ENTRY = "import sys; from taukb.cli import main; sys.exit(main())"


def _child(cwd, args, code=_ENTRY, **kwargs):
    """ARGS run by a child through CODE; stdout and stderr are piped unless KWARGS says otherwise,
    and a piped stdout is block-buffered, whatever PYTHONUNBUFFERED says here."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(taukb.__file__).resolve().parent.parent)
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env, timeout=60, **kwargs)


_EXIT_CASES = [(["table"], 0), (["--facts", "no_card0_eq.txt", "diff"], 1), (["card", "22"], 2),
               (["--facts", "arrow_18_8.txt", "diff"], 3)]


@pytest.mark.parametrize("fmt", ["table", "jsonl"])
@pytest.mark.parametrize("args,code", _EXIT_CASES, ids=[" ".join(a) for a, _ in _EXIT_CASES])
def test_a_child_ends_as_the_runner_does(tmp_path, monkeypatch, fmt, args, code):
    from test_golden import _write_inputs

    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["--format", fmt, *args]
    expected = CliRunner().invoke(main, argv)
    proc = _child(tmp_path, argv)
    assert expected.exit_code == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.stdout_bytes, expected.stderr_bytes)


# the handler prints to stdout, which a pipe buffers, so the line shows only if the run flushes it
_BYE = "import atexit; atexit.register(print, 'bye')\nfrom taukb.cli import main\nmain()\n"


@pytest.mark.parametrize("args,code,output", [(["query", "18", "8"], 0, b"NotImplies\n"),
                                              (["card", "22"], 2, b"error: no property with serial 22\n")])
def test_an_atexit_handler_runs_once_after_the_output(tmp_path, args, code, output):
    proc = _child(tmp_path, args, _BYE, stderr=subprocess.STDOUT)
    assert (proc.returncode, proc.stdout) == (code, output + b"bye\n")


@pytest.mark.parametrize("args,code", [(["query", "18", "8"], 0), (["card", "22"], 2)])
def test_a_raising_atexit_handler_keeps_the_exit_code(tmp_path, args, code):
    raising = "import atexit; atexit.register(lambda: 1 / 0)\n" + _ENTRY
    proc = _child(tmp_path, args, raising)
    assert proc.returncode == code
    assert b"ZeroDivisionError" in proc.stderr


def test_main_main_and_standalone_mode_false_keep_the_process(capsys, reference):
    with pytest.raises(SystemExit) as e:
        main.main(["table"])
    assert e.value.code == 0
    assert main(["table"], standalone_mode=False) is None
    assert capsys.readouterr().out == 2 * formats.render_table([list(r) for r in reference.grid])


# a child that runs `card 22`, which writes only to stderr, and reports the SystemExit it catches;
# os._exit would end it before the report (in a child, since it would end this process too)
_CAUGHT = ("import sys\n"
           "from taukb.cli import main\n"
           "try:\n"
           "    main(['card', '22']{})\n"
           "except SystemExit as e:\n"
           "    sys.stdout = sys.__stdout__\n"
           "    print('SystemExit', e.code)\n")
_FULL = ("class Full:\n"
         "    def write(self, s): return len(s)\n"
         "    def flush(self): raise OSError(28, 'No space left on device')\n"
         "sys.stdout = Full()\n")


@pytest.mark.parametrize("code", [
    _CAUGHT.format(", standalone_mode=False"),  # the error boundary's exit is raised, not taken
    _CAUGHT.replace("from taukb", _FULL + "from taukb").format(""),  # a failing last flush leaves the exit to Python
], ids=["standalone_mode=False", "failing flush"])
def test_the_exit_is_raised_when_it_is_not_taken(tmp_path, code):
    proc = _child(tmp_path, [], code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"SystemExit 2\n", b"error: no property with serial 22\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("args", [["table"], ["--format", "jsonl", "card", "5"], ["explain", "18", "19"], ["--help"]])
def test_a_full_stdout_exits_2_with_one_error_line(tmp_path, args):
    with open("/dev/full", "wb") as full:
        proc = _child(tmp_path, args, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()


@pytest.mark.parametrize("args", [["table"], ["--format", "jsonl", "table"], ["explain", "18", "19"], ["diff"]])
def test_a_closed_stdout_pipe_exits_2_with_an_empty_stderr(tmp_path, args):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _child(tmp_path, args, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_usage_text_to_a_full_stderr_exits_2(tmp_path):
    with open("/dev/full", "wb") as full:
        proc = _child(tmp_path, ["bogus"], stderr=full)
    assert (proc.returncode, proc.stdout) == (2, b"")


class _Refusing(io.TextIOBase):
    """A text stream that refuses every write with OSError(err)."""

    encoding = "utf-8"

    def __init__(self, err):
        self.err = err

    def write(self, s):
        raise OSError(self.err, os.strerror(self.err))


class _RefusingRunner(CliRunner):
    """A CliRunner whose sys.<stream>, stream being "stdout" or "stderr", refuses every write with err."""

    def __init__(self, stream, err):
        super().__init__()
        self.stream, self.err = stream, err

    @contextlib.contextmanager
    def isolation(self, *args, **kwargs):
        with super().isolation(*args, **kwargs) as streams:
            setattr(sys, self.stream, _Refusing(self.err))
            yield streams


@pytest.mark.parametrize("args,stream,err,stderr", [
    (["--help"], "stdout", errno.ENOSPC, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"),
    (["table", "--help"], "stdout", errno.ENOSPC, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"),
    (["bogus"], "stderr", errno.ENOSPC, ""),
    (["--help"], "stdout", errno.EPIPE, ""),
    (["table"], "stdout", errno.EPIPE, ""),
    (["diff"], "stdout", errno.EPIPE, ""),
], ids=["help to a full stdout", "command help to a full stdout", "usage to a full stderr", "help to a closed pipe",
        "table to a closed pipe", "diff to a closed pipe"])
def test_the_runner_exits_2_as_a_child_does_when_output_cannot_be_written(args, stream, err, stderr):
    result = _RefusingRunner(stream, err).invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)


@pytest.mark.parametrize("args,code,stderr", [(["table"], 0, b""),
                                              (["card", "22"], 2, b"error: no property with serial 22\n")])
def test_a_closed_stdout_fd_leaves_the_exit_code(tmp_path, args, code, stderr):
    # with fd 1 closed when Python starts, sys.stdout is None, and the last flush skips it
    proc = _child(tmp_path, args, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (code, stderr)


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="no unix sockets on this system")
@pytest.mark.parametrize("args", [["--facts", "sock", "table"], ["--models", "sock", "table"], ["diff", "sock"],
                                  ["odiag", "sock"]])
def test_an_input_file_that_cannot_be_opened_exits_2_naming_it(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    with socket.socket(socket.AF_UNIX) as sock:  # a socket file exists, but open() refuses it
        sock.bind("sock")
        result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot read sock: ")
    assert result.stderr.count("\n") == 1
