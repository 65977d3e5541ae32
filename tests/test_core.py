import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from taukb.core import (
    Atom,
    CardinalAtom,
    Claim,
    CoverKind,
    CoverVariant,
    FIGURE_PROPERTIES,
    MalformedExpr,
    Max,
    Min,
    Property,
    SelectorKind,
    TaukbError,
    UnknownSerial,
    atom,
    normalize_expr,
    parse_expr,
    property_by_serial,
    render_expr,
)

atoms = st.sampled_from(list(CardinalAtom)).map(Atom)
exprs = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda xs: Min(tuple(xs))),
        st.lists(children, min_size=2, max_size=4).map(lambda xs: Max(tuple(xs))),
    ),
    max_leaves=10,
)


def test_normalize_atom_is_identity():
    assert normalize_expr(atom("b")) == atom("b")


def test_normalize_flattens_dedupes_sorts():
    e = Min((Min((atom("s"), atom("b"))), atom("b")))
    assert normalize_expr(e) == Min((atom("b"), atom("s")))


def test_normalize_max_label_already_canonical():
    assert normalize_expr(Max((atom("b"), atom("s")))) == Max((atom("b"), atom("s")))


def test_normalize_rejects_short_lists():
    with pytest.raises(MalformedExpr):
        normalize_expr(Min((atom("b"),)))


def test_normalize_collapses_singleton_after_dedupe():
    assert normalize_expr(Min((atom("b"), atom("b")))) == atom("b")


@given(exprs)
def test_normalize_idempotent(e):
    once = normalize_expr(e)
    assert normalize_expr(once) == once


@given(st.lists(exprs, min_size=2, max_size=4), st.randoms())
def test_normalize_order_insensitive(children, rng):
    shuffled = list(children)
    rng.shuffle(shuffled)
    assert normalize_expr(Min(tuple(children))) == normalize_expr(Min(tuple(shuffled)))
    assert normalize_expr(Max(tuple(children))) == normalize_expr(Max(tuple(shuffled)))


@given(exprs)
def test_expr_render_parse_round_trip(e):
    n = normalize_expr(e)
    assert parse_expr(render_expr(n)) == n


def test_parse_expr_accepts_both_cov_spellings():
    assert parse_expr("covM") == parse_expr("cov(M)") == Atom(CardinalAtom.COV_M)


def test_parse_expr_rejects_garbage():
    with pytest.raises(MalformedExpr):
        parse_expr("min{b,s} trailing")
    with pytest.raises(MalformedExpr):
        parse_expr("min{b}")
    with pytest.raises(MalformedExpr):
        parse_expr("frobnicate")


@pytest.mark.parametrize("text, rest", [("", ""), ("min{,b}", ",b}"), ("min{b,}", "}"), ("max{}", "}")])
def test_parse_expr_refuses_a_missing_operand(text, rest):
    with pytest.raises(MalformedExpr, match=re.escape(f"expected expression at {rest!r}")):
        parse_expr(text)


def test_figure_properties_refuse_embedded_facts_that_lack_a_serial(monkeypatch):
    from taukb import core, formats

    base = formats.data_text("base_facts.txt")
    core._figure_properties.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(formats, "data_text", lambda name: base.replace('property 5 "S1(T,T)" non=t\n', "", 1))
            with pytest.raises(TaukbError, match="embedded facts must declare each serial 0..21 once"):
                core._figure_properties()
    finally:
        core._figure_properties.cache_clear()  # no other test sees the bad cache


def test_property_by_serial_8():
    p = property_by_serial(8)
    assert (p.kind, p.source, p.target) == (SelectorKind.S1, CoverKind.OMEGA, CoverKind.GAMMA)
    assert p.non == atom("p")
    assert p.name == "S1(Omega,Gamma)"


def test_property_by_serial_14():
    p = property_by_serial(14)
    assert (p.kind, p.source, p.target) == (SelectorKind.SFIN, CoverKind.TAU, CoverKind.TAU)
    assert p.non == parse_expr("min{s,b}")


def test_property_by_serial_18():
    p = property_by_serial(18)
    assert p.name == "Ufin(Gamma,Gamma)"
    assert p.non == atom("b")


def test_property_by_serial_out_of_range():
    with pytest.raises(UnknownSerial):
        property_by_serial(22)
    with pytest.raises(UnknownSerial):
        property_by_serial(-1)


def test_serials_total_and_unique():
    serials = [p.serial for p in FIGURE_PROPERTIES]
    assert serials == list(range(22))
    assert len({p.key for p in FIGURE_PROPERTIES}) == 22


def test_unknown_value_serials_are_6_and_7():
    unlabeled = [p.serial for p in FIGURE_PROPERTIES if p.non is None]
    assert unlabeled == [6, 7]


def test_structural_identity_ignores_metadata():
    bare = Property(SelectorKind.S1, CoverKind.OMEGA, CoverKind.GAMMA)
    assert bare == property_by_serial(8)
    assert hash(bare) == hash(property_by_serial(8))


def test_cached_name_and_hash_follow_the_structural_fields():
    figure = property_by_serial(8)
    bare = Property(SelectorKind.S1, CoverKind.OMEGA, CoverKind.GAMMA)
    other = Property(figure.kind, figure.source, figure.target, figure.variant, serial=3, non=Atom("c"))
    assert figure.name == bare.name == other.name == "S1(Omega,Gamma)"
    assert figure == bare == other
    # the hash of the coordinate tuple, so sets of properties keep their order
    assert hash(figure) == hash(bare) == hash(other) == hash(
        (SelectorKind.S1, CoverKind.OMEGA, CoverKind.GAMMA, CoverVariant.OPEN))
    assert len({figure, bare, other}) == 1


def test_replaced_claim_renders_its_own_fields():
    claim = Claim("lower", property_by_serial(0), expr=Atom("b"))
    assert claim.render() == "non(S1(Gamma,Gamma)) >= b"
    moved = claim._replace(kind="upper", subject=property_by_serial(8), expr=parse_expr("min{s,b}"))
    assert moved.render() == "non(S1(Omega,Gamma)) <= min{b,s}"
    assert claim.render() == "non(S1(Gamma,Gamma)) >= b"
    assert hash(moved) == hash(("upper", property_by_serial(8), None, parse_expr("min{s,b}")))


def test_variant_changes_identity():
    open_p = Property(SelectorKind.S1, CoverKind.TAU, CoverKind.TAU)
    borel_p = Property(SelectorKind.S1, CoverKind.TAU, CoverKind.TAU, CoverVariant.BOREL)
    assert open_p != borel_p
    assert borel_p.name == "S1(T,T)[borel]"


def test_figure_properties_read_from_fact_file_on_first_use():
    import subprocess
    import sys

    code = "\n".join([
        "import sys",
        "opened = []",
        "sys.addaudithook(lambda e, a: opened.append(str(a[0])) if e == 'open' else None)",
        "import taukb.cli",
        "assert not any(p.endswith('base_facts.txt') for p in opened), opened",
        "from taukb.core import FIGURE_PROPERTIES",
        "assert any(p.endswith('base_facts.txt') for p in opened), opened",
    ])
    subprocess.run([sys.executable, "-c", code], check=True)
