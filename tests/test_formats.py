import os
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from taukb import formats
from taukb.core import (CardinalAtom, CoverKind, CoverVariant, Property, SelectorKind, TaukbError, Verdict,
                        parse_expr)
from taukb.formats import (
    ArrowDecl,
    BadShape,
    CardDecl,
    FactParseError,
    IncludeDecl,
    NonImpDecl,
    PropertyDecl,
    SerialRef,
    data_text,
    load_default_facts,
    parse_facts,
    render_table,
)
from taukb.gamma import parse_family_file
from taukb.ledger import Open, PartiallySolved, Solved, list_problems
from taukb.models import Model, parse_models
from taukb.reference import BadSymbol, CorruptReferenceData, load_reference_table, parse_table
from taukb.writers import render_decl, render_facts, render_models

# --- fact DSL -----------------------------------------------------------------


def test_parse_arrow_line():
    ff = parse_facts("arrow 0 18\n")
    assert ff.decls == (ArrowDecl(SerialRef(0), SerialRef(18), None, 1),)


def test_parse_empty_text():
    assert parse_facts("").decls == ()
    assert parse_facts("# only a comment\n\n").decls == ()


def test_parse_arrow_missing_target():
    with pytest.raises(FactParseError) as exc:
        parse_facts("arrow 0\n")
    (line, col, msg), = exc.value.errors
    assert line == 1 and "arrow" in msg


def test_parse_refuses_an_empty_model_name():
    with pytest.raises(FactParseError) as exc:
        parse_facts("arrow 0 1\n  nonimp 0 1 model=\n")
    (line, col, msg), = exc.value.errors
    assert (line, col) == (2, 3) and "model name" in msg


def test_parse_reports_every_bad_line():
    text = "arrow 0\nproperty x\narrow 0 1\ncard 3 gt b\n"
    with pytest.raises(FactParseError) as exc:
        parse_facts(text)
    assert [l for l, _, _ in exc.value.errors] == [1, 2, 4]


def test_parse_rejects_trailing_garbage():
    with pytest.raises(FactParseError):
        parse_facts("arrow 0 1 2\n")
    with pytest.raises(FactParseError):
        parse_facts('nonimp 0 1\n')  # no justification


def test_structural_refs_parse():
    ff = parse_facts("arrow Sfin:Gamma:T:borel 12\n")
    decl = ff.decls[0]
    assert decl.src == Property(SelectorKind.SFIN, CoverKind.GAMMA, CoverKind.TAU, CoverVariant.BOREL)
    assert decl.dst == SerialRef(12)


def test_tau_spelling_alias():
    a = parse_facts("arrow S1:Tau:Omega:open 3\n").decls[0]
    b = parse_facts("arrow S1:T:Omega:open 3\n").decls[0]
    assert a.src == b.src


sample_decls = [
    PropertyDecl(5, SelectorKind.S1, CoverKind.TAU, CoverKind.TAU, parse_expr("t")),
    PropertyDecl(6, SelectorKind.S1, CoverKind.TAU, CoverKind.OMEGA, None),
    ArrowDecl(SerialRef(0), SerialRef(18), None),
    ArrowDecl(Property(SelectorKind.SFIN, CoverKind.GAMMA, CoverKind.TAU, CoverVariant.BOREL),
              SerialRef(12), "inclusion"),
    NonImpDecl(SerialRef(19), SerialRef(18), None, "legacy:Table1"),
    NonImpDecl(SerialRef(18), SerialRef(8), "laver", None),
    CardDecl(SerialRef(14), "eq", parse_expr("min{s,b}"), "diagram label"),
    CardDecl(SerialRef(6), "ge", parse_expr("covM"), None),
    IncludeDecl("extra.txt"),
    IncludeDecl("my facts #2.txt"),
    IncludeDecl(""),
]


@pytest.mark.parametrize("decl", sample_decls, ids=lambda d: type(d).__name__ + "-" + render_decl(d)[:24])
def test_decl_round_trip(decl):
    parsed = parse_facts(render_decl(decl) + "\n").decls[0]
    assert parsed == decl


def test_fact_file_round_trip():
    ff = load_default_facts()
    assert parse_facts(render_facts(ff)) == ff


def test_load_facts_resolves_includes(tmp_path):
    from taukb.formats import load_facts

    (tmp_path / "extra.txt").write_text("arrow 0 1\n", encoding="utf-8")
    main = tmp_path / "main.txt"
    main.write_text('property 0 "S1(Gamma,Gamma)"\nproperty 1 "S1(Gamma,T)"\ninclude extra.txt\n',
                    encoding="utf-8")
    ff = load_facts(main)
    assert [type(d).__name__ for d in ff.decls] == ["PropertyDecl", "PropertyDecl", "ArrowDecl"]


def test_load_facts_includes_a_quoted_path(tmp_path):
    from taukb.formats import load_facts

    (tmp_path / "a b.txt").write_text("arrow 0 1\n", encoding="utf-8")
    main = tmp_path / "main.txt"
    main.write_text('property 0 "S1(Gamma,Gamma)"\nproperty 1 "S1(Gamma,T)"\ninclude "a b.txt"\n',
                    encoding="utf-8")
    assert parse_facts(main.read_text(encoding="utf-8")).decls[-1] == IncludeDecl("a b.txt")
    assert [type(d).__name__ for d in load_facts(main).decls] == ["PropertyDecl", "PropertyDecl", "ArrowDecl"]


@pytest.mark.parametrize("value", ['"x"', 'a "b" c', 'two\nlines'])
@pytest.mark.parametrize("render", [
    lambda v: render_decl(IncludeDecl(v)),
    lambda v: render_decl(ArrowDecl(SerialRef(0), SerialRef(18), v)),
    lambda v: render_models([Model("m", {CardinalAtom.C: 1}, v)]),
], ids=["include-path", "cite", "model-citation"])
def test_renderers_refuse_a_value_they_cannot_quote(render, value):
    # with no escape in the grammar, such a line would not read back as the value
    with pytest.raises(TaukbError, match=re.escape(repr(value))):
        render(value)


@pytest.mark.parametrize("value", ["a b", "a#b", ""])
@pytest.mark.parametrize("render", [
    lambda v: render_decl(NonImpDecl(SerialRef(0), SerialRef(1), v, None)),
    lambda v: render_models([Model(v, {CardinalAtom.C: 1}, "x")]),
], ids=["nonimp-model", "model-name"])
def test_renderers_refuse_a_model_name_that_is_not_one_token(render, value):
    # written bare, such a name would read back as another name, or not at all
    with pytest.raises(TaukbError, match=re.escape(repr(value))):
        render(value)


covers = st.sampled_from(list(CoverKind))
serial_refs = st.integers(0, 21).map(SerialRef)
struct_refs = st.builds(Property, st.sampled_from(list(SelectorKind)), covers, covers,
                        st.sampled_from(list(CoverVariant)))
refs = st.one_of(serial_refs, struct_refs)
cites = st.one_of(st.none(), st.text(alphabet="abcdefgh :;.,-#", min_size=1, max_size=20))


@given(st.builds(ArrowDecl, refs, refs, cites))
def test_arrow_decl_round_trip_random(decl):
    assert parse_facts(render_decl(decl) + "\n").decls[0] == decl


@given(st.builds(CardDecl, refs, st.sampled_from(["eq", "ge", "le"]),
                 st.sampled_from([parse_expr(s) for s in ("b", "t", "min{s,b}", "max{b,s}", "od")]),
                 cites))
def test_card_decl_round_trip_random(decl):
    assert parse_facts(render_decl(decl) + "\n").decls[0] == decl


# --- table codec ----------------------------------------------------------------


def test_render_table_row_symbols(closure):
    text = render_table(closure.serial_grid())
    lines = text.strip().splitlines()
    assert lines[8] == "+" * 22
    assert lines[21] == "-" * 21 + "+"


verdicts = st.sampled_from([Verdict.IMPLIES, Verdict.NOT_IMPLIES, Verdict.UNKNOWN])
grids = st.lists(st.lists(verdicts, min_size=22, max_size=22), min_size=22, max_size=22)


@given(grids)
def test_table_round_trip(grid):
    parsed, frames = parse_table(render_table(grid))
    assert parsed == grid
    assert frames == set()


@given(grids, st.sets(st.tuples(st.integers(0, 21), st.integers(0, 21)), max_size=12))
def test_table_round_trip_with_frames(grid, frames):
    # an empty draw renders through the no-frames call
    parsed, parsed_frames = parse_table(render_table(grid, frames or None))
    assert parsed == grid
    assert parsed_frames == frames


def test_parse_table_bad_symbol():
    good = render_table([[Verdict.UNKNOWN] * 22] * 22)
    with pytest.raises(BadSymbol):
        parse_table(good.replace("?", "x", 1))


def test_parse_table_bad_shape():
    good = render_table([[Verdict.UNKNOWN] * 22] * 22)
    with pytest.raises(BadShape):
        parse_table(good + "???\n")
    with pytest.raises(BadShape):
        parse_table("\n".join(good.splitlines()[:-1]) + "\n")


def test_render_table_requires_22x22():
    with pytest.raises(BadShape):
        render_table([[Verdict.UNKNOWN] * 3] * 3)


def test_render_decl_refuses_a_model_name_that_does_not_read_back():
    with pytest.raises(TaukbError, match=re.escape("""model name 'a"b' cannot be written: it does not read back""")):
        render_decl(NonImpDecl(SerialRef(0), SerialRef(1), 'a"b', None, 1))


def test_render_decl_refuses_a_non_declaration():
    with pytest.raises(TypeError, match="not a declaration"):
        render_decl(object())


# --- embedded reference ----------------------------------------------------------


def test_reference_table_invariants():
    ref = load_reference_table()
    assert all(ref.grid[i][i] is Verdict.IMPLIES for i in range(22))
    assert sum(row.count(Verdict.UNKNOWN) for row in ref.grid) == 55
    assert len(ref.frames) == 21
    assert all(ref.grid[r][c] is Verdict.NOT_IMPLIES for r, c in ref.frames)


@pytest.mark.parametrize("edit, message", [
    (lambda piece: "-" + piece[1:], "diagonal cell (0,0) is not Implies"),
    (lambda piece: piece.replace("?", "+", 1), "expected 55 Unknown cells, found 54"),
    (lambda piece: piece.replace("\nframes 5 6 7 14\n", "\nframes 5 6 7\n", 1), "expected 21 framed cells, found 20"),
    (lambda piece: piece.replace("\nframes 5 6 7 14\n", "\nframes 0 5 6 7\n", 1),
     "framed cell (0,0) is not NotImplies"),
], ids=["diagonal", "unknown-count", "frame-count", "frame-on-implies"])
def test_reference_table_refuses_corrupt_data(monkeypatch, edit, message):
    text = data_text("table1.txt")
    lines = text.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    # the first grid row and its frames line, edited as one piece
    edited = "".join(lines[:k] + [edit(lines[k] + lines[k + 1])] + lines[k + 2:])
    assert edited != text
    monkeypatch.setattr(formats, "data_text", lambda name: edited)
    with pytest.raises(CorruptReferenceData, match=re.escape(message)):
        load_reference_table()


def test_reference_spot_cells():
    ref = load_reference_table()
    assert ref.verdict(0, 4) is Verdict.NOT_IMPLIES
    assert ref.verdict(16, 0) is Verdict.UNKNOWN
    assert ref.verdict(12, 12) is Verdict.IMPLIES


def test_embedded_properties_match_core_table():
    from taukb.reference import property_by_serial

    decls = {d.serial: d for d in load_default_facts().decls if isinstance(d, PropertyDecl)}
    assert sorted(decls) == list(range(22))
    for p in map(property_by_serial, range(22)):
        d = decls[p.serial]
        assert (d.kind, d.source, d.target) == (p.kind, p.source, p.target)
        assert d.non == p.non


# --- problem registry -------------------------------------------------------------


def test_problem_statuses():
    problems = {p.issue: p for p in list_problems()}
    assert len(problems) == 10
    assert problems[3].status == Solved("Yes", "Lubomyr Zdomsky")
    assert problems[7].status == Solved("Yes", "Scheepers; Bartoszyński")
    assert problems[9].status == PartiallySolved("consistently yes")
    for issue in (1, 2, 4, 5, 6, 8, 10):
        assert problems[issue].status == Open()


def test_problems_in_issue_order():
    issues = [p.issue for p in list_problems()]
    assert issues == sorted(issues)
    assert "cov(M) = od" in list_problems()[-1].statement


def test_load_facts_refuses_include_cycle(tmp_path):
    from taukb.formats import load_facts

    (tmp_path / "a.txt").write_text("arrow 0 1\ninclude b.txt\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("include ../" + tmp_path.name + "/a.txt\n", encoding="utf-8")
    with pytest.raises(FactParseError, match="cycle"):
        load_facts(tmp_path / "a.txt")


def _symlink(target, link):
    try:
        os.symlink(target, link)
    except (OSError, NotImplementedError) as e:  # no symlinks here, or no right to make one
        pytest.skip(f"cannot make a symlink: {e}")


def test_load_facts_refuses_a_cycle_closed_through_a_symlink(tmp_path):
    from taukb.formats import load_facts

    (tmp_path / "a.txt").write_text("arrow 0 1\ninclude b.txt\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("include alias.txt\n", encoding="utf-8")
    _symlink(tmp_path / "a.txt", tmp_path / "alias.txt")
    with pytest.raises(FactParseError, match="include alias.txt forms a cycle"):
        load_facts(tmp_path / "a.txt")


def test_a_file_included_through_a_symlinked_directory_is_cited_as_written(tmp_path):
    from taukb.formats import load_facts

    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "sub.txt").write_text("arrow 0 1\n", encoding="utf-8")
    _symlink(tmp_path / "real", tmp_path / "link")
    (tmp_path / "main.txt").write_text("include link/sub.txt\n", encoding="utf-8")
    [decl] = load_facts(str(tmp_path / "main.txt")).decls
    assert (decl, decl.line, decl.origin) == (ArrowDecl(SerialRef(0), SerialRef(1), None), 1, "link/sub.txt")


def test_a_nested_parent_include_resolves_from_its_includer(tmp_path):
    from taukb.formats import load_facts

    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "main.txt").write_text("include a/b/inc.txt\n", encoding="utf-8")
    (tmp_path / "a" / "b" / "inc.txt").write_text("include ../../x.txt\ninclude ../y.txt\n", encoding="utf-8")
    (tmp_path / "x.txt").write_text("arrow 0 1\n", encoding="utf-8")
    (tmp_path / "a" / "y.txt").write_text("arrow 1 2\n", encoding="utf-8")
    decls = load_facts(tmp_path / "main.txt").decls
    assert [(d.src.serial, d.dst.serial, d.origin) for d in decls] == [(0, 1, "x.txt"), (1, 2, "a/y.txt")]


# --- fuzz: every parser returns or raises a TaukbError -----------------------

_WORDS = ["property", "variant", "arrow", "nonimp", "card", "include", "model", "level",
          "cite=", 'cite="x"', "model=ch", "non=", "eq", "ge", "le", "frames", "0", "21", "22",
          "S1:O:O:borel", '"S1(Gamma,Gamma)"', "min{s,b}", "max{", "covM", "aleph1", "+", "-",
          "?", "+" * 22, "01/1", "1/0", "/", "#", '"', "\n", " ", "\t", "\u00a0", "\u0661"]
_texts = st.one_of(st.text(), st.lists(st.sampled_from(_WORDS), max_size=30).map(" ".join))


@settings(max_examples=300, deadline=None)
@given(_texts)
def test_parsers_return_or_raise_taukb_error(text):
    for parse in (parse_facts, parse_models, parse_family_file, parse_table):
        try:
            parse(text)
        except TaukbError:
            pass


# a '#' comment line is skipped wherever it stands: only a blank line ends a
# block of a family or registry file
@pytest.mark.parametrize("parse, text", [
    (parse_facts, data_text("base_facts.txt")),
    (parse_models, data_text("models.txt")),
    (parse_table, data_text("table1.txt")),
    (parse_family_file, "01/1\n10/1\n\n1/1\n0/1\n"),
], ids=["facts", "models", "table", "family"])
def test_a_comment_line_never_changes_what_a_file_says(parse, text):
    lines, want = text.splitlines(keepends=True), parse(text)
    for k in range(len(lines)):
        assert parse("".join(lines[:k] + ["# c\n"] + lines[k:])) == want, f"# c before line {k + 1}"


# --- split_line against the token pattern read token by token ------------------

_REFERENCE_TOKEN = re.compile(r'(?:[^\s"#]|"[^"]*")+|#.*|"')


def _reference_split(line: str) -> list[str]:
    """The tokens of line: every match of the token pattern up to the first
    comment token; a lone double quote before it is an error."""
    tokens = []
    for token in _REFERENCE_TOKEN.findall(line):
        if token[0] == "#":
            break
        if token == '"':
            raise ValueError("unterminated quote")
        tokens.append(token)
    return tokens


def _assert_splits_as_reference(line: str) -> None:
    try:
        want = _reference_split(line)
    except ValueError:
        with pytest.raises(ValueError, match="unterminated quote"):
            formats.split_line(line)
        return
    assert formats.split_line(line) == want, repr(line)


@pytest.mark.parametrize("name", ["base_facts.txt", "models.txt", "table1.txt"])
def test_split_line_reads_every_data_file_line_as_the_token_pattern_does(name):
    lines = data_text(name).splitlines()
    assert lines
    for line in lines:
        _assert_splits_as_reference(line)


# the whitespace that str.split and the pattern's \s must agree on, beyond the ASCII space and tab
_SPACES = "\x1c\x1d\x1e\x1f\x85\u00a0\u1680\u2000\u2028\u2029\u202f\u3000\x0b\x0c\r\n"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_WORDS), max_size=30).map(" ".join),
                 st.text(st.one_of(st.characters(), st.sampled_from(_SPACES + '"# =')))))
def test_split_line_agrees_with_the_token_pattern(line):
    _assert_splits_as_reference(line)


@pytest.mark.parametrize("line, tokens", [
    ('arrow 0 1 cite="a # b"  # a comment', ["arrow", "0", "1", 'cite="a # b"']),
    ("arrow 0 1# a comment", ["arrow", "0", "1"]),
    ('arrow 0 1 # a lone " in a comment', ["arrow", "0", "1"]),
    ("arrow 0\x1c1 ", ["arrow", "0", "1"]),
    ("# all comment\narrow 0 1", []),
])
def test_split_line_examples(line, tokens):
    assert formats.split_line(line) == tokens


@pytest.mark.parametrize("line", ['"', 'arrow 0 1 "', 'arrow 0 1 cite="a # b', 'a " b # c'])
def test_split_line_refuses_a_lone_quote(line):
    with pytest.raises(ValueError, match="unterminated quote"):
        formats.split_line(line)


# --- the parse memos keep values, never errors or declarations -----------------

@pytest.mark.parametrize("parse, text", [
    (parse_expr, "min{b}"), (parse_expr, "frobnicate"), (parse_expr, "min{b,s} trailing"),
    (formats.parse_ref, "S1:O:O"), (formats.parse_ref, "S1:X:O:open"), (formats.parse_ref, "S1:O:O:open:x"),
])
def test_a_malformed_expression_or_ref_raises_the_same_error_every_time(parse, text):
    kept = parse.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises((TaukbError, ValueError)) as exc:
            parse(text)
        messages.append((type(exc.value), str(exc.value)))
    assert messages[0] == messages[1]
    assert parse.cache_info().currsize == kept  # the error was not kept


def test_a_bad_fact_file_reads_the_same_errors_every_time():
    text = "card 14 eq min{b}\narrow 0 S1:X:O:open\nvariant S1 X O open\n"
    errors = []
    for _ in range(2):
        with pytest.raises(FactParseError) as exc:
            parse_facts(text)
        errors.append(exc.value.errors)
    assert errors[0] == errors[1] and len(errors[0]) == 3


def test_two_reads_of_one_text_are_equal_and_share_no_declaration():
    text = data_text("base_facts.txt")
    first, second = parse_facts(text), parse_facts(text)
    assert first == second
    assert not {id(d) for d in first.decls} & {id(d) for d in second.decls}


def test_a_line_repeated_in_an_included_file_keeps_both_origins(tmp_path):
    from taukb.core import Claim
    from taukb.reference import property_by_serial
    from taukb.engine import build_knowledge_base
    from taukb.formats import load_facts
    from taukb.models import load_default_registry

    base = data_text("base_facts.txt")
    n = base.splitlines().index("arrow 18 19") + 1
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "inc.txt").write_text("arrow 18 19\n", encoding="utf-8")
    (tmp_path / "main.txt").write_text(base + "include sub/inc.txt\n", encoding="utf-8")
    claim = Claim("implies", property_by_serial(18), property_by_serial(19))
    for _ in range(2):  # the second read finds every ref and expression already parsed
        ff = load_facts(tmp_path / "main.txt")
        top, included = [d for d in ff.decls if d == ArrowDecl(SerialRef(18), SerialRef(19), None)]
        assert top is not included
        assert (top.origin, top.line, included.origin, included.line) == (None, n, "sub/inc.txt", 1)
        kb = build_knowledge_base(ff, load_default_registry())
        assert [cite for c, cite in kb.facts if c == claim] == [f"facts:{n}", "sub/inc.txt:1"]


def test_each_parse_memo_is_bounded():
    for memo in (parse_expr, formats.parse_ref, formats._struct):
        assert memo.cache_info().maxsize is not None
