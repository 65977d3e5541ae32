import dataclasses
import random

import pytest

from taukb import engine, formats
from taukb.core import (
    Arrow,
    Atom,
    CardinalAtom,
    NonImp,
    ProofTrace,
    RuleInstance,
    Verdict,
    atom,
    parse_expr,
    property_by_serial,
)
from taukb.engine import (
    Contradiction,
    NothingToExplain,
    ShapeMismatch,
    build_knowledge_base,
    close,
    derive_cardinality,
    diff,
    explain,
    query,
    replay_all,
)
from taukb.formats import CardDecl, NonImpDecl, SerialRef, parse_facts


def serial(n):
    return property_by_serial(n)


def grids_equal(a, b):
    return all(va is vb for ra, rb in zip(a, b) for va, vb in zip(ra, rb))


def test_reflexive_diagonal(closure):
    for p in closure.serial_properties():
        assert query(closure, p, p).verdict is Verdict.IMPLIES


def test_unknown_cells_have_empty_traces(closure):
    for judgment in closure.matrix.values():
        if judgment.verdict is Verdict.UNKNOWN:
            assert len(judgment.trace) == 0
        else:
            assert len(judgment.trace) > 0


def test_query_examples(closure):
    assert query(closure, serial(0), serial(18)).verdict is Verdict.IMPLIES
    assert query(closure, serial(18), serial(8)).verdict is Verdict.NOT_IMPLIES
    assert query(closure, serial(0), serial(15)).verdict is Verdict.UNKNOWN


def test_query_unregistered_property(closure):
    from taukb.core import CoverVariant, Property, UnknownProperty

    ghost = Property(serial(0).kind, serial(0).source, serial(0).target, CoverVariant.CLOPEN)
    with pytest.raises(UnknownProperty):
        query(closure, ghost, serial(0))


def test_row8_all_implies_row21_all_but_self_notimplies(closure):
    grid = closure.serial_grid()
    assert all(v is Verdict.IMPLIES for v in grid[8])
    assert grid[21][21] is Verdict.IMPLIES
    assert all(v is Verdict.NOT_IMPLIES for j, v in enumerate(grid[21]) if j != 21)


def test_explain_reflexive_is_single_r1_step(closure):
    text = explain(closure, serial(0), serial(0))
    assert text.splitlines() == ["S0 R1: S1(Gamma,Gamma) -> S1(Gamma,Gamma)"]


def test_explain_unknown_raises(closure):
    with pytest.raises(NothingToExplain):
        explain(closure, serial(0), serial(15))


def test_explain_18_8_ends_with_r4_witness(closure):
    judgment = query(closure, serial(18), serial(8))
    last = judgment.trace.steps[-1]
    assert last.rule == "R4"
    assert last.note == "laver"
    rendered = [judgment.trace.steps[i].conclusion.render() for i in last.premises]
    assert "non(S1(Omega,Gamma)) <= p" in rendered
    assert "non(Ufin(Gamma,Gamma)) >= b" in rendered


def test_derive_cardinality_examples(closure):
    assert derive_cardinality(closure, serial(12)).exact == atom("b")
    assert derive_cardinality(closure, serial(8)).exact == atom("p")
    report = derive_cardinality(closure, serial(6))
    assert Atom(CardinalAtom.COV_M) in report.lower
    assert atom("d") in report.upper


def test_diff_self_is_empty(closure):
    grid = closure.serial_grid()
    assert diff(grid, grid) == []


def test_diff_shape_mismatch(closure):
    grid = closure.serial_grid()
    with pytest.raises(ShapeMismatch):
        diff(grid, grid[:-1])


def test_traces_replay(default_kb, closure):
    assert replay_all(closure, default_kb) > 0


def test_closure_idempotent(default_kb, closure):
    again = engine.close(default_kb)
    assert grids_equal(closure.serial_grid(), again.serial_grid())


def test_closure_stable_under_self_augmentation(default_kb, closure):
    extra = []
    for (a, b), judgment in closure.matrix.items():
        if a == b:
            continue
        if judgment.verdict is Verdict.IMPLIES:
            extra.append(Arrow(a, b, "derived"))
        elif judgment.verdict is Verdict.NOT_IMPLIES:
            extra.append(NonImp(a, b, "derived", "derived"))
    augmented = engine.KnowledgeBase(default_kb.properties,
                                     default_kb.facts + tuple(extra),
                                     default_kb.registry)
    assert grids_equal(engine.close(augmented).serial_grid(), closure.serial_grid())


def test_fact_order_does_not_matter(default_kb, closure):
    rng = random.Random(7)
    for _ in range(5):
        facts = list(default_kb.facts)
        rng.shuffle(facts)
        shuffled = engine.KnowledgeBase(default_kb.properties, tuple(facts), default_kb.registry)
        assert grids_equal(engine.close(shuffled).serial_grid(), closure.serial_grid())


def test_iteration_bound(closure, default_kb):
    assert closure.iterations <= len(default_kb.properties) ** 2 + 2


def test_r4_never_contradicts_an_implication(closure):
    for (a, b), judgment in closure.matrix.items():
        if judgment.verdict is Verdict.NOT_IMPLIES and judgment.trace.steps[-1].rule == "R4":
            assert closure.matrix[(a, b)].verdict is not Verdict.IMPLIES


def test_contradiction_on_injected_back_arrow(default_kb):
    ff = formats.load_default_facts().with_decls(
        [formats.ArrowDecl(SerialRef(18), SerialRef(8), None, 0)])
    kb = build_knowledge_base(ff, default_kb.registry)
    with pytest.raises(Contradiction) as exc:
        close(kb)
    e = exc.value
    assert len(e.implies_trace) > 0 and len(e.notimplies_trace) > 0
    r4 = [s for s in e.notimplies_trace.steps if s.rule == "R4"]
    assert r4 and r4[0].note in {m.name for m in default_kb.registry}


def test_interval_inconsistency_is_caught(default_kb):
    # an isolated node whose bounds cross in some model, with no arrows that
    # could surface the problem as an implication contradiction first
    text = 'variant S1 O O borel\ncard S1:O:O:borel ge d\ncard S1:O:O:borel le p\n'
    extra = parse_facts(text).decls
    ff = formats.load_default_facts().with_decls(list(extra))
    kb = build_knowledge_base(ff, default_kb.registry)
    with pytest.raises(engine.TaukbError, match="interval"):
        close(kb)


def test_sandwich_rederivation(default_kb):
    ff = formats.load_default_facts().without(
        lambda d: isinstance(d, CardDecl) and d.ref == SerialRef(12) and d.rel == "eq")
    kb = build_knowledge_base(ff, default_kb.registry)
    result = close(kb)
    report = derive_cardinality(result, serial(12))
    assert report.exact == atom("b")
    trace = result.exact_traces[(serial(12), atom("b"))]
    assert {"R5", "R6"} <= trace.rules_used()
    engine.replay_trace(trace, kb)


def test_od_ablation_reverts_expected_cells_to_unknown(default_kb, closure, reference):
    ff = formats.load_default_facts().without(
        lambda d: isinstance(d, CardDecl) and d.expr == atom("od"))
    kb = build_knowledge_base(ff, default_kb.registry)
    ablated = close(kb)
    delta = diff(ablated.serial_grid(), [list(r) for r in reference.grid])
    assert delta, "ablation should open some cells"
    for (i, j, computed, ref_verdict) in delta:
        assert computed is Verdict.UNKNOWN
        assert ref_verdict is Verdict.NOT_IMPLIES
    assert {(i, j) for (i, j, _, _) in delta} == {
        (0, 6), (0, 7), (1, 6), (1, 7), (2, 6), (2, 7), (3, 7),
        (12, 6), (12, 7), (14, 4), (14, 5), (14, 6), (14, 7),
    }


def test_legacy_facts_are_exactly_the_documented_eight():
    ff = formats.load_default_facts()
    imported = [(d.src.serial, d.dst.serial) for d in ff.decls
                if isinstance(d, NonImpDecl)]
    assert sorted(imported) == [(0, 17), (4, 16), (11, 20), (17, 3),
                                (18, 2), (18, 3), (18, 12), (19, 18)]
    for d in ff.decls:
        if isinstance(d, NonImpDecl):
            assert d.cite == "legacy:Table1"


def test_unresolved_include_is_refused(default_kb):
    ff = formats.load_default_facts().with_decls([formats.IncludeDecl("extra.txt", 99)])
    with pytest.raises(engine.TaukbError, match="load_facts"):
        build_knowledge_base(ff, default_kb.registry)


def _tampered_trace(closure, case):
    def steps(i, j):
        return list(query(closure, serial(i), serial(j)).trace.steps)

    def with_last(trace_steps, **changes):
        return ProofTrace(tuple(trace_steps[:-1]) + (dataclasses.replace(trace_steps[-1], **changes),))

    fact = steps(0, 18)[0]  # S0 fact: S1(Gamma,Gamma) -> Ufin(Gamma,Gamma)
    chain = steps(0, 19)  # two arrow facts, then R2 from S0, S1
    r4 = steps(18, 8)  # ends with R4 [model laver] on p < b
    if case.endswith("-one-premise"):
        rule = case.split("-")[0]
        return ProofTrace((fact, RuleInstance(rule, (0,), fact.conclusion)))
    return {
        "R4-unknown-model": with_last(r4, note="ghost"),
        # odsmall assigns no level to p
        "R4-model-lacks-atom": with_last(r4, note="odsmall"),
        "fact-with-premise": ProofTrace((fact, dataclasses.replace(fact, premises=(0,)))),
        "negative-premise-first-step": ProofTrace((dataclasses.replace(chain[2], premises=(-1, -1)),)),
        # counted from the end, -2 and -1 name the right steps
        "negative-premise-later-step": with_last(chain, premises=(-2, -1)),
        "premise-from-later-step": with_last(chain, premises=(2, 3)),
    }[case]


@pytest.mark.parametrize("case", [
    "R4-unknown-model", "R4-model-lacks-atom", "fact-with-premise",
    "negative-premise-first-step", "negative-premise-later-step", "premise-from-later-step",
    *(f"{rule}-one-premise" for rule in ("R2", "R3a", "R3b", "R4", "R5", "R6")),
])
def test_replay_refuses_tampered_step(default_kb, closure, case):
    with pytest.raises(engine.ReplayError):
        engine.replay_trace(_tampered_trace(closure, case), default_kb)
