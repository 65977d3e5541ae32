import copy
import dataclasses
import gc
import random
import re
from itertools import product
from pathlib import Path

import pytest

from taukb import engine, formats
from taukb.core import (
    Atom,
    CardinalAtom,
    Claim,
    CoverKind,
    CoverVariant,
    Judgment,
    ProofTrace,
    Property,
    RuleInstance,
    SelectorKind,
    Verdict,
    atom,
    parse_expr,
    property_by_serial,
    render_trace,
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
from taukb.models import eval_expr


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


def test_unknown_cells_share_one_judgment(closure):
    unknown = [j for j in closure.matrix.values() if j.verdict is Verdict.UNKNOWN]
    assert len(unknown) == 159
    assert all(j is unknown[0] for j in unknown)
    assert unknown[0].trace.steps == ()


def test_query_examples(closure):
    assert query(closure, serial(0), serial(18)).verdict is Verdict.IMPLIES
    assert query(closure, serial(18), serial(8)).verdict is Verdict.NOT_IMPLIES
    assert query(closure, serial(0), serial(15)).verdict is Verdict.UNKNOWN


@pytest.mark.parametrize("ask", [lambda c, p: query(c, p, serial(0)), derive_cardinality],
                         ids=["query", "derive_cardinality"])
def test_query_unregistered_property(closure, ask):
    from taukb.core import CoverVariant, Property, UnknownProperty

    ghost = Property(serial(0).kind, serial(0).source, serial(0).target, CoverVariant.CLOPEN)
    with pytest.raises(UnknownProperty):
        ask(closure, ghost)


def test_row8_all_implies_row21_all_but_self_notimplies(closure):
    grid = closure.serial_grid()
    assert all(v is Verdict.IMPLIES for v in grid[8])
    assert grid[21][21] is Verdict.IMPLIES
    assert all(v is Verdict.NOT_IMPLIES for j, v in enumerate(grid[21]) if j != 21)


def test_explain_reflexive_is_single_r1_step(closure):
    text = explain(closure, serial(0), serial(0))
    assert text.splitlines() == ["S0 R1: S1(Gamma,Gamma) -> S1(Gamma,Gamma)"]


def test_stated_reflexive_fact_keeps_its_fact_step(default_kb):
    p = serial(0)
    kb = engine.KnowledgeBase(default_kb.properties,
                              default_kb.facts + ((Claim("implies", p, p), "stated"),), default_kb.registry)
    assert explain(close(kb), p, p) == f"S0 fact [stated]: {p.name} -> {p.name}"


@pytest.mark.parametrize("rule", ["R2", "R3a", "R3b", "R5-lower", "R5-upper"])
def test_same_round_derivations_keep_the_least_premises(default_kb, rule):
    # two derivations of one statement in round 1, through middle properties
    # lo < hi in canonical order; hi's facts come first, and lo's premises win
    a, z = serial(0), serial(3)
    lo, hi = sorted((serial(1), serial(2)), key=lambda p: p.key)
    b = atom("b")

    def imp(x, y):
        return Claim("implies", x, y)

    def non(x, y):
        return Claim("notimplies", x, y)

    def bound(kind, x):
        return Claim(kind, x, expr=b)

    # rule -> (facts, where the trace is, the statement, its least premises)
    claims, cell, want, premises = {
        "R2": ([imp(a, hi), imp(hi, z), imp(a, lo), imp(lo, z)], (a, z),
               imp(a, z), [imp(a, lo), imp(lo, z)]),
        "R3a": ([imp(a, hi), non(z, hi), imp(a, lo), non(z, lo)], (z, a),
                non(z, a), [imp(a, lo), non(z, lo)]),
        "R3b": ([imp(hi, z), non(hi, a), imp(lo, z), non(lo, a)], (z, a),
                non(z, a), [imp(lo, z), non(lo, a)]),
        # the bound surfaces in the exact value's trace
        "R5-lower": ([imp(hi, z), bound("lower", hi), imp(lo, z), bound("lower", lo), bound("upper", z)],
                     (z, b), bound("lower", z), [imp(lo, z), bound("lower", lo)]),
        "R5-upper": ([imp(a, hi), bound("upper", hi), imp(a, lo), bound("upper", lo), bound("lower", a)],
                     (a, b), bound("upper", a), [imp(a, lo), bound("upper", lo)]),
    }[rule]
    kb = engine.KnowledgeBase(default_kb.properties, tuple((c, "tie") for c in claims), default_kb.registry)
    result = close(kb)
    steps = (result.exact_traces[cell] if rule.startswith("R5") else result.matrix[cell].trace).steps
    step = next(s for s in steps if s.conclusion == want)
    assert step.rule == rule.split("-")[0]
    assert [steps[k].conclusion for k in step.premises] == premises


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
            extra.append((Claim("implies", a, b), "derived"))
        elif judgment.verdict is Verdict.NOT_IMPLIES:
            extra.append((Claim("notimplies", a, b), "derived [derived]"))
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


def test_traces_are_built_on_first_read(default_kb, monkeypatch):
    built = []
    monkeypatch.setattr(engine, "RuleInstance", lambda *step: built.append(step) or RuleInstance(*step))
    result = close(default_kb)
    result.serial_grid()
    assert built == []
    trace = result.matrix[(serial(18), serial(8))].trace
    assert len(trace) == len(built) > 0 and trace.steps is trace.steps
    exact = result.exact_traces[(serial(12), atom("b"))]
    assert exact == ProofTrace(exact.steps) and len(built) == len(trace) + len(exact)


def test_traces_leave_no_cyclic_garbage(default_kb):
    # a closure and the traces it built are freed by reference counting
    # alone, so dropping them leaves the cyclic collector nothing to find
    gc.collect()
    gc.disable()
    try:
        result = close(default_kb)
        for judgment in result.matrix.values():
            judgment.trace.steps
        for trace in result.exact_traces.values():
            trace.steps
        replay_all(result, default_kb)
        del result, judgment, trace
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_traces_do_not_depend_on_read_order(default_kb):
    def read(result, reverse):
        traces = [(cell, j.trace) for cell, j in result.matrix.items() if j.verdict is not Verdict.UNKNOWN]
        traces += result.exact_traces.items()
        return {key: trace.steps for key, trace in (traces[::-1] if reverse else traces)}

    backward, forward = read(close(default_kb), True), read(close(default_kb), False)
    assert backward == forward
    # a settled statement's steps start with its first premise's steps: the
    # premise's own trace, if settled, and one prefix however it is reached
    prefix_of = {steps[-1].conclusion: steps for steps in forward.values()}
    derived = [steps for steps in forward.values() if steps[-1].premises]
    for steps in derived:
        first = steps[-1].premises[0]
        prefix = steps[:first + 1]
        assert prefix_of.setdefault(prefix[-1].conclusion, prefix) == prefix
    assert len(derived) == 574


def test_fact_of_an_unknown_claim_kind_is_refused(default_kb):
    kb = engine.KnowledgeBase(default_kb.properties, ((Claim("exactly", serial(0), expr=atom("b")), "test"),),
                              default_kb.registry)
    with pytest.raises(engine.TaukbError, match="unknown claim kind 'exactly'"):
        close(kb)


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


def _sandwich_kb(registry):
    # serial 12 without its card eq line: non(S12) = b comes back through R5 and R6
    ff = formats.load_default_facts().without(
        lambda d: isinstance(d, CardDecl) and d.ref == SerialRef(12) and d.rel == "eq")
    return build_knowledge_base(ff, registry)


def test_sandwich_rederivation(default_kb):
    kb = _sandwich_kb(default_kb.registry)
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


def _tampered_trace(closure, case, registry):
    def steps(i, j):
        return list(query(closure, serial(i), serial(j)).trace.steps)

    def with_last(trace_steps, **changes):
        return ProofTrace(tuple(trace_steps[:-1]) + (dataclasses.replace(trace_steps[-1], **changes),))

    def stray(trace_steps, **fields):  # the last conclusion gains a field its kind leaves out
        return with_last(trace_steps, conclusion=dataclasses.replace(trace_steps[-1].conclusion, **fields))

    fact = steps(0, 18)[0]  # S0 fact: S1(Gamma,Gamma) -> Ufin(Gamma,Gamma)
    chain = steps(0, 19)  # two arrow facts, then R2 from S0, S1
    r4 = steps(18, 8)  # ends with R4 [model laver] on p < b
    if case.endswith("-one-premise"):
        rule = case.split("-")[0]
        return ProofTrace((fact, RuleInstance(rule, (0,), fact.conclusion)))
    if case.endswith("-stray-expr") and case != "final-cell-stray-expr":
        rule = case.split("-")[0]
        return stray(next(list(j.trace.steps) for j in closure.matrix.values()
                          if j.trace.steps[-1:] and j.trace.steps[-1].rule == rule), expr=atom("b"))
    if case == "R5-stray-object":
        # the sandwich trace's fact steps are default facts, so it replays against the default KB
        sandwich = list(close(_sandwich_kb(registry)).exact_traces[(serial(12), atom("b"))].steps)
        r5 = next(i for i, s in enumerate(sandwich) if s.rule == "R5")
        return stray(sandwich[:r5 + 1], object=serial(12))
    return {
        "R4-unknown-model": with_last(r4, note="ghost"),
        # odsmall assigns no level to p
        "R4-model-lacks-atom": with_last(r4, note="odsmall"),
        "fact-with-premise": ProofTrace((fact, dataclasses.replace(fact, premises=(0,)))),
        "negative-premise-first-step": ProofTrace((dataclasses.replace(chain[2], premises=(-1, -1)),)),
        # counted from the end, -2 and -1 name the right steps
        "negative-premise-later-step": with_last(chain, premises=(-2, -1)),
        "premise-from-later-step": with_last(chain, premises=(2, 3)),
        "R6-stray-object": stray(list(closure.exact_traces[(serial(12), atom("b"))].steps),
                                 object=serial(12)),
        "final-cell-stray-expr": stray(chain, expr=atom("b")),
    }[case]


@pytest.mark.parametrize("case", [
    "R4-unknown-model", "R4-model-lacks-atom", "fact-with-premise",
    "negative-premise-first-step", "negative-premise-later-step", "premise-from-later-step",
    *(f"{rule}-one-premise" for rule in ("R2", "R3a", "R3b", "R4", "R5", "R6")),
    *(f"{rule}-stray-expr" for rule in ("R1", "R2", "R3a", "R3b", "R4")),
    "R5-stray-object", "R6-stray-object", "final-cell-stray-expr",
])
def test_replay_refuses_tampered_step(default_kb, closure, case):
    trace = _tampered_trace(closure, case, default_kb.registry)
    if case == "final-cell-stray-expr":  # replay_all checks the cell's whole claim first
        tampered = copy.copy(closure)
        tampered.matrix = {**closure.matrix, (serial(0), serial(19)): Judgment(Verdict.IMPLIES, trace)}
        with pytest.raises(engine.ReplayError, match="does not conclude the cell"):
            replay_all(tampered, default_kb)
    else:
        with pytest.raises(engine.ReplayError):
            engine.replay_trace(trace, default_kb)


def test_trace_with_a_replaced_conclusion_renders_and_replays_it(default_kb, closure):
    steps = query(closure, serial(0), serial(19)).trace.steps  # two arrow facts, then R2
    assert render_trace(ProofTrace(steps)).endswith("S2 R2: S1(Gamma,Gamma) -> Ufin(Gamma,T) from S0, S1")
    wrong = dataclasses.replace(steps[-1].conclusion, object=serial(18))
    tampered = ProofTrace(steps[:-1] + (dataclasses.replace(steps[-1], conclusion=wrong),))
    assert render_trace(tampered).splitlines()[-1] == f"S2 R2: {wrong.render()} from S0, S1"
    with pytest.raises(engine.ReplayError, match=re.escape(f"concluding {wrong.render()}: does not match R2")):
        engine.replay_trace(tampered, default_kb)


def test_r4_takes_the_least_bound_pair_in_rendered_order(default_kb):
    # non(X) <= p, t and non(Y) >= c, d: every (upper, lower) pair is apart in
    # some model, and R4 cites the least one, (p, c), with the first model
    # that puts p below c
    extra = parse_facts("variant S1 O O borel\nvariant Ufin O O borel\n"
                        "card S1:O:O:borel le t\ncard S1:O:O:borel le p\n"
                        "card Ufin:O:O:borel ge d\ncard Ufin:O:O:borel ge c\n").decls
    kb = build_knowledge_base(formats.load_default_facts().with_decls(list(extra)), default_kb.registry)
    x, y = (Property(kind, CoverKind.O, CoverKind.O, CoverVariant.BOREL)
            for kind in (SelectorKind.S1, SelectorKind.UFIN))
    steps = query(close(kb), y, x).trace.steps
    assert [s.conclusion.render() for s in steps] == [
        "non(S1(O,O)[borel]) <= p", "non(Ufin(O,O)[borel]) >= c", "Ufin(O,O)[borel] -/-> S1(O,O)[borel]"]
    p_, c_ = atom("p"), atom("c")
    first = next(m.name for m in default_kb.registry if eval_expr(p_, m) < eval_expr(c_, m))
    assert steps[-1].rule == "R4" and steps[-1].note == first


def test_interval_guard_message_is_independent_of_hash_seed():
    # two lower and two upper bounds that cross: the guard names the first
    # (upper, lower) pair in rendered order and the first model separating it
    import os
    import subprocess
    import sys

    script = (
        "from taukb import engine, formats\n"
        "extra = formats.parse_facts('variant S1 O O borel\\ncard S1:O:O:borel ge d\\n"
        "card S1:O:O:borel ge c\\ncard S1:O:O:borel le p\\ncard S1:O:O:borel le t\\n').decls\n"
        "ff = formats.load_default_facts().with_decls(list(extra))\n"
        "kb = engine.build_knowledge_base(ff, engine.load_default_registry())\n"
        "try:\n"
        "    engine.close(kb)\n"
        "except engine.TaukbError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(engine.__file__).parents[1])
    messages = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        messages.append(out.stdout)
    assert messages[0] == messages[1] == (
        "interval for S1(O,O)[borel] is inconsistent in model cohen: c > p\n")


# each case is the claims one fact line asserts: arrow, nonimp, card eq, ge, le
@pytest.mark.parametrize("make_facts", [
    lambda p, q: [(Claim("implies", p, q), "test")],
    lambda p, q: [(Claim("notimplies", q, p), "test [ch]")],
    lambda p, q: [(Claim(k, p, expr=atom("b")), "test") for k in ("lower", "upper")],
    lambda p, q: [(Claim("lower", p, expr=atom("b")), "test")],
    lambda p, q: [(Claim("upper", p, expr=atom("b")), "test")],
], ids=["Arrow", "NonImp", "NonValue", "NonLower", "NonUpper"])
def test_fact_on_unregistered_property_is_refused(default_kb, make_facts):
    from taukb.core import CoverVariant, Property, UnknownProperty

    ghost = Property(serial(0).kind, serial(0).source, serial(0).target, CoverVariant.CLOPEN)
    kb = engine.KnowledgeBase(default_kb.properties, tuple(make_facts(ghost, serial(0))),
                              default_kb.registry)
    with pytest.raises(UnknownProperty):
        close(kb)


def test_explain_is_independent_of_duplicate_fact_order(default_kb):
    # two nonimp lines for one pair share a citation but name different
    # models; the cell's trace must not depend on which line comes first
    lines = ['nonimp 18 8 model=cohen cite="a"', 'nonimp 18 8 model=laver cite="a"']
    texts = []
    for order in (lines, lines[::-1]):
        ff = formats.load_default_facts().with_decls(list(parse_facts("\n".join(order) + "\n").decls))
        result = close(build_knowledge_base(ff, default_kb.registry))
        texts.append(explain(result, serial(18), serial(8)))
    assert texts[0] == texts[1] == "S0 fact [a [cohen]]: Ufin(Gamma,Gamma) -/-> S1(Omega,Gamma)"


# one value of each shape a hand-edited or corrupted trace might hold
_JUNK = (None, -1, 10**6, "0", 1.0, (), ["R2"], "R9", "fact", "R1", atom("b"), serial(3), "", 0)


def _junk_steps(step, notes):
    """step with one field, or one premise index, or one field of its
    conclusion replaced by a junk value; the note also by each of notes."""
    for value in _JUNK:
        yield dataclasses.replace(step, rule=value)
        yield dataclasses.replace(step, premises=value)
        for k in range(len(step.premises)):
            yield dataclasses.replace(step, premises=step.premises[:k] + (value,) + step.premises[k + 1:])
        yield dataclasses.replace(step, conclusion=value)
        for field in ("kind", "subject", "object", "expr"):
            yield dataclasses.replace(step, conclusion=dataclasses.replace(step.conclusion, **{field: value}))
    for note in _JUNK + notes:
        yield dataclasses.replace(step, note=note)


def test_replay_refuses_every_step_with_a_junk_field(default_kb):
    # the sandwich KB's traces use every rule; the default KB's have no R5 step
    kb = _sandwich_kb(default_kb.registry)
    result = close(kb)
    traces = [j.trace for j in result.matrix.values() if j.verdict is not Verdict.UNKNOWN]
    traces += result.exact_traces.values()
    prefixes = {}  # rule -> the trace prefixes that end in a step of that rule
    for trace in traces:
        for k, step in enumerate(trace.steps):
            prefixes.setdefault(step.rule, []).append(trace.steps[:k + 1])
    assert sorted(prefixes) == ["R1", "R2", "R3a", "R3b", "R4", "R5", "R6", "fact"]
    models = tuple(m.name for m in kb.registry)
    rng = random.Random(15)
    escaped, tried = [], 0
    for rule in sorted(prefixes):
        for *head, step in rng.sample(prefixes[rule], min(6, len(prefixes[rule]))):
            for bad in _junk_steps(step, models):
                if bad == step:
                    continue
                tried += 1
                if bad.rule == "R4" and bad.note != step.note and bad.note in models:
                    # the one tamper that may replay: another model that
                    # witnesses the same strict inequality
                    u, l = (head[k].conclusion.expr for k in bad.premises)
                    model = kb.registry.get(bad.note)
                    try:
                        ok = eval_expr(u, model) < eval_expr(l, model)
                    except engine.TaukbError:
                        ok = False
                    if ok:
                        engine.replay_trace(ProofTrace((*head, bad)), kb)
                        continue
                try:
                    engine.replay_trace(ProofTrace((*head, bad)), kb)
                    escaped.append((bad, "replays"))
                except engine.ReplayError:
                    pass
                except Exception as e:
                    escaped.append((bad, type(e).__name__))
    assert tried > 3000
    assert escaped == []


# values that name nothing in the default KB, the last a property it does not declare
_OUTSIDE = ("junk", None, 0, atom("b"),
            Property(SelectorKind.UFIN, CoverKind.GAMMA, CoverKind.GAMMA, CoverVariant.BOREL))


def test_replay_refuses_a_step_with_subject_and_object_both_changed(default_kb, closure):
    # R1 draws P -> P for whatever P its step names, so a one-field tamper
    # cannot reach an R1 step about something outside the KB
    assert _OUTSIDE[-1] not in default_kb.properties
    steps = {}  # rule -> {step: the trace steps before it}
    for j in closure.matrix.values():
        for k, step in enumerate(j.trace.steps):
            steps.setdefault(step.rule, {}).setdefault(step, j.trace.steps[:k])
    rng = random.Random(16)
    escaped, tried = [], 0
    for rule in ("R1", "R2", "fact"):
        for step, head in rng.sample(list(steps[rule].items()), 10):
            for subject, obj in product(_OUTSIDE, repeat=2):
                c = dataclasses.replace(step.conclusion, subject=subject, object=obj)
                tried += 1
                try:
                    engine.replay_trace(ProofTrace((*head, dataclasses.replace(step, conclusion=c))), default_kb)
                    escaped.append((rule, c))
                except engine.ReplayError:
                    pass
    assert tried == 750
    assert escaped == []


def test_replay_all_refuses_a_settled_cell_with_an_empty_trace(default_kb, closure):
    tampered = copy.copy(closure)
    tampered.matrix = {**closure.matrix, (serial(0), serial(19)): Judgment(Verdict.IMPLIES, ProofTrace(()))}
    with pytest.raises(engine.ReplayError, match="does not conclude the cell"):
        replay_all(tampered, default_kb)


@pytest.mark.parametrize("case", ["fact-with-forged-citation", "R2-with-note", "R1-with-note"])
def test_replay_checks_citations_and_notes(default_kb, closure, case):
    rule = case.split("-")[0]
    trace = next(j.trace for j in closure.matrix.values()
                 if j.verdict is not Verdict.UNKNOWN and j.trace.steps[-1].rule == rule)
    *head, step = trace.steps
    engine.replay_trace(trace, default_kb)
    forged = ProofTrace((*head, dataclasses.replace(step, note=step.note + " (forged)")))
    with pytest.raises(engine.ReplayError):
        engine.replay_trace(forged, default_kb)
