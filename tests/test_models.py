import pytest
from hypothesis import given
import hypothesis.strategies as st

from taukb.core import Atom, CardinalAtom, Min, atom, parse_expr
from taukb.models import (
    Model,
    ModelParseError,
    UnknownAtom,
    eval_expr,
    load_default_registry,
    parse_models,
    render_models,
    validate_model,
)

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


def test_consistently_less_examples(registry):
    assert registry.consistently_less(atom("p"), atom("b")) == "laver"
    assert registry.consistently_less(atom("b"), atom("b")) is None
    witness = registry.consistently_less(parse_expr("od"), parse_expr("min{h,min{s,b}}"))
    assert witness == "odsmall"


def test_consistently_less_skips_models_missing_atoms(registry):
    # odsmall has no p level, so it can never witness anything about p
    assert registry.consistently_less(atom("p"), atom("h")) is None


def test_no_model_separates_covM_from_od(registry):
    # a witness either way would overstep what is actually known
    assert registry.consistently_less(atom("covM"), atom("od")) is None
    assert registry.consistently_less(atom("od"), atom("covM")) is None


@given(exprs)
def test_consistently_less_irreflexive(e):
    registry = load_default_registry()
    assert registry.consistently_less(e, e) is None


@given(exprs, exprs)
def test_witness_is_strict_by_at_least_one_level(x, y):
    registry = load_default_registry()
    name = registry.consistently_less(x, y)
    if name is not None:
        m = registry.get(name)
        assert eval_expr(x, m) + 1 <= eval_expr(y, m)
        # antisymmetry inside the witnessing model
        assert not eval_expr(y, m) < eval_expr(x, m)


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
