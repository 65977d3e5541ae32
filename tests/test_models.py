import itertools

import pytest
from click.testing import CliRunner
from hypothesis import given
import hypothesis.strategies as st

from taukb import TaukbError
from taukb.cli import main
from taukb.core import Atom, CardinalAtom, Min, atom, parse_expr, render_expr
from taukb.engine import build_knowledge_base, close
from taukb.formats import data_text, load_default_facts
from taukb.models import (
    ZFC_ORDER,
    Model,
    ModelParseError,
    ModelRegistry,
    UnknownAtom,
    ZfcConstraint,
    atom_order,
    eval_expr,
    load_default_registry,
    parse_models,
    validate_model,
)
from taukb.writers import render_models

atoms = st.sampled_from(list(CardinalAtom)).map(Atom)
exprs = st.recursive(
    atoms,
    lambda ch: st.lists(ch, min_size=2, max_size=3).map(lambda xs: Min(tuple(xs))),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def registry():
    return load_default_registry()


def test_eval_aleph1_is_bottom(registry):
    for m in registry:
        assert eval_expr(atom("aleph1"), m) == 1


def test_eval_min_max():
    m = Model("toy", {CardinalAtom.S: 1, CardinalAtom.B: 2, CardinalAtom.ALEPH1: 1,
                           CardinalAtom.C: 2}, "test")
    assert eval_expr(parse_expr("min{s,b}"), m) == 1
    assert eval_expr(parse_expr("max{b,s}"), m) == 2


def test_eval_missing_atom_raises():
    m = Model("toy", {CardinalAtom.ALEPH1: 1, CardinalAtom.C: 1}, "test")
    with pytest.raises(UnknownAtom):
        eval_expr(atom("b"), m)


def test_validate_flags_p_above_t():
    m = Model("bad", {CardinalAtom.ALEPH1: 1, CardinalAtom.P: 2, CardinalAtom.T: 1,
                           CardinalAtom.C: 2}, "test")
    violations = validate_model(m)
    assert any("p <= t" in v for v in violations)


def test_validate_flags_misplaced_bottom_and_top():
    m = Model("bad", {CardinalAtom.ALEPH1: 2, CardinalAtom.C: 1}, "test")
    descriptions = validate_model(m)
    assert any("aleph1" in d for d in descriptions)
    assert any("maximum level" in d for d in descriptions)


def test_shipped_models_all_validate(registry):
    assert all(not v for v in registry.validate().values())


def test_shipped_ch_model_is_flat(registry):
    ch = registry.get("ch")
    assert set(ch.levels.values()) == {1}
    assert validate_model(ch) == []


def test_shipped_laver_levels(registry):
    laver = registry.get("laver")
    for name in ("p", "t", "h", "s"):
        assert eval_expr(atom(name), laver) == 1
    for name in ("b", "d", "c"):
        assert eval_expr(atom(name), laver) == 2


def test_less_table_examples(registry):
    assert registry.less_table([atom("p"), atom("b")]) == {(0, 1): "laver"}
    assert registry.less_table([atom("b"), atom("b")]) == {}
    witness = registry.less_table([parse_expr("od"), parse_expr("min{h,min{s,b}}")]).get((0, 1))
    assert witness == "odsmall"


def test_less_table_skips_models_missing_atoms(registry):
    # odsmall has no p level, so it can never witness anything about p
    assert (0, 1) not in registry.less_table([atom("p"), atom("h")])


def test_no_model_separates_covM_from_od(registry):
    # a witness either way would overstep what is actually known
    assert registry.less_table([atom("covM"), atom("od")]) == {}


@given(exprs)
def test_less_table_irreflexive(e):
    assert load_default_registry().less_table([e]) == {}


@given(exprs, exprs)
def test_witness_is_strict_by_at_least_one_level(x, y):
    registry = load_default_registry()
    pair = (x, y)
    for (u, l), name in registry.less_table(list(pair)).items():
        m = registry.get(name)
        assert eval_expr(pair[u], m) + 1 <= eval_expr(pair[l], m)
        # antisymmetry inside the witnessing model
        assert not eval_expr(pair[l], m) < eval_expr(pair[u], m)


def test_models_file_round_trip(registry):
    text = render_models(list(registry.models))
    again = parse_models(text)
    assert again == list(registry.models)


def test_citation_with_hash_round_trips():
    m = Model("m", {CardinalAtom.ALEPH1: 1, CardinalAtom.C: 1}, "issue #3, table 2")
    assert parse_models(render_models([m])) == [m]


def test_parse_models_aggregates_errors():
    bad = "model x\nlevel p one\nlevel q 1\n"
    with pytest.raises(ModelParseError) as exc:
        parse_models(bad)
    lines = [l for l, _, _ in exc.value.errors]
    assert 1 in lines and 2 in lines


@pytest.mark.parametrize("text, errors", [
    # a block without level lines is reported at its model line, at the end of the text too
    ('model a cite "x"\n', [(1, 1, "model 'a' has no level lines")]),
    ('model a cite "x"\n\nmodel b cite "y"\nlevel c 1\n', [(1, 1, "model 'a' has no level lines")]),
    ('model a cite "x"\nfoo 1\n', [(1, 1, "model 'a' has no level lines"), (2, 1, "unknown directive 'foo'")]),
    # a refused level line is the block's one error
    ('model a cite "x"\nlevel zz 1\n', [(2, 7, "unknown atom 'zz'")]),
    ('model a cite "x"\nlevel c 0\n\nmodel b cite "y"\nlevel c 1\n', [(2, 1, "levels start at 1")]),
], ids=["at-end", "before-a-blank", "beside-a-bad-directive", "refused-atom", "refused-level"])
def test_parse_models_reports_a_block_without_levels_at_its_model_line(text, errors):
    with pytest.raises(ModelParseError) as exc:
        parse_models(text)
    assert exc.value.errors == errors


def test_validate_flags_s_above_d():
    m = Model("bad", {CardinalAtom.ALEPH1: 1, CardinalAtom.D: 1, CardinalAtom.S: 2,
                           CardinalAtom.C: 2}, "test")
    assert any("s <= d" in v for v in validate_model(m))


def test_zfc_order_splits_min_constraints_and_closes_transitively():
    assert len(ZFC_ORDER) == 43
    derived = [f"{x} <= {y}" for (x, y), con in ZFC_ORDER.items() if con is None]
    assert len(derived) == 11 and "t <= b" in derived and "p <= od" in derived
    h, b, s = atom("h"), atom("b"), atom("s")
    assert ZFC_ORDER[(h, b)] is ZFC_ORDER[(h, s)] and render_expr(ZFC_ORDER[(h, s)].rhs) == "min{b,s}"


@pytest.mark.parametrize("rhs", ["max{b,s}", "min{b,max{s,d}}"])
def test_atom_order_refuses_a_constraint_of_another_form(rhs):
    with pytest.raises(TaukbError, match="is not of the form x <= y or x <= min"):
        atom_order([ZfcConstraint(atom("h"), parse_expr(rhs), "test")])


def _model(levels: str) -> Model:
    return Model("bad", {atom(a): int(v) for a, v in (pair.split() for pair in levels.split(","))}, "test")


@pytest.mark.parametrize("levels, message", [
    # t <= h <= min{s,b}: a model that leaves out h may not put t above b
    ("aleph1 1, t 2, b 1, c 2", "violates t <= b, which follows from the constraint list"),
    # one half of a min constraint is checked though the model leaves out the other atom
    ("aleph1 1, h 2, s 1, c 2", "violates h <= min{b,s} (Balcar-Pelant-Simon; Handbook of Set Theory survey)"),
    # both halves violated: the constraint is named once
    ("aleph1 1, h 2, s 1, b 1, c 2", "violates h <= min{b,s} (Balcar-Pelant-Simon; Handbook of Set Theory survey)"),
])
def test_validate_checks_every_pair_of_the_derived_order_the_model_assigns(levels, message):
    assert validate_model(_model(levels)) == [message]


def test_registry_with_a_derived_violation_exits_2(tmp_path):
    path = tmp_path / "bad.models"
    path.write_text(data_text("models.txt") + '\nmodel bad cite "x"\nlevel aleph1 1\nlevel t 2\nlevel b 1\nlevel c 2\n',
                    encoding="utf-8")
    result = CliRunner().invoke(main, ["--models", str(path), "table"])
    assert result.exit_code == 2, result.output
    assert result.stderr == ("error: registry failed validation: bad: "
                             "violates t <= b, which follows from the constraint list\n")


def test_two_level_census_bounds_what_any_valid_registry_settles():
    # Any valid model separating u < l thresholds to a valid two-level model
    # that still does, so these models bound what every valid registry settles
    others = [a for a in CardinalAtom if a is not CardinalAtom.ALEPH1]
    two_level = []
    for k, levels in enumerate(itertools.product((1, 2), repeat=len(others))):
        m = Model(f"two{k}", {CardinalAtom.ALEPH1: 1, **dict(zip(others, levels))}, "two-level")
        if 2 in levels and not validate_model(m):
            two_level.append(m)
    assert len(two_level) == 70
    default, facts = load_default_registry(), load_default_facts()

    def changed(extra):
        grids = [close(build_knowledge_base(facts, ModelRegistry([*default, *ms]))).serial_grid() for ms in ((), extra)]
        return [(i, j) for i, row in enumerate(grids[0]) for j, v in enumerate(row) if grids[1][i][j] is not v]

    assert changed(two_level) == [(6, 10), (6, 11), (7, 11)]  # each needs cov(M) < od
    rest = [m for m in two_level if m.levels[CardinalAtom.COV_M] >= m.levels[CardinalAtom.OD]]
    assert len(rest) == 50 and changed(rest) == []
