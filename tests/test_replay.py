"""replay_all checks each premise-free step object, and each R4 witness
(u, l, model), once per call; replay_trace checks every step of the one
trace it is given.  These tests pin those counts, and show that no skipped
check lets a forged step through."""

import copy
import random

import pytest

from taukb import engine, replay
from taukb.core import Judgment, ProofTrace, RuleInstance, Verdict
from taukb.replay import ReplayError, replay_all, replay_trace


def _settled(closure):
    return [(cell, j) for cell, j in closure.matrix.items() if j.verdict is not Verdict.UNKNOWN]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(replay, name)
    monkeypatch.setattr(replay, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _with_cells(closure, cells):
    """A copy of closure whose matrix has the given cells' judgments replaced, each in its place."""
    tampered = copy.copy(closure)
    tampered.matrix = {**closure.matrix, **cells}
    return tampered


def test_a_claim_stated_twice_is_cited_by_its_least_citation_and_replays_with_either(default_kb):
    claim, cite = next((c, cite) for c, cite in default_kb.facts if c.kind == "implies")
    twice = [(claim, "aaa-stated")] + list(default_kb.facts)
    orders = [twice, twice[::-1]] + [random.Random(seed).sample(twice, len(twice)) for seed in range(3)]
    for facts in orders:
        kb = engine.KnowledgeBase(default_kb.properties, tuple(facts), default_kb.registry)
        result = engine.close(kb)
        notes = {step.note for _, j in _settled(result) for step in j.trace.steps
                 if step.rule == "fact" and step.conclusion == claim}
        assert notes == {"aaa-stated"}
        cell = result.matrix[(claim.subject, claim.object)]
        assert cell.trace.steps == (RuleInstance("fact", (), claim, "aaa-stated"),)
        assert replay_all(result, kb) == 625
    replay_trace(ProofTrace((RuleInstance("fact", (), claim, cite),)), kb)  # the other stated citation
    with pytest.raises(ReplayError, match="no matching base fact"):
        replay_trace(ProofTrace((RuleInstance("fact", (), claim, "zzz-unstated"),)), kb)


def test_replay_all_checks_each_shared_step_and_witness_once_per_call(default_kb, closure, monkeypatch):
    faults, evals = _counting(monkeypatch, "_step_fault"), _counting(monkeypatch, "eval_expr")
    steps = [step for _, j in _settled(closure) for step in j.trace.steps]
    assert len(steps) == 2231
    shared = {id(step) for step in steps if not step.premises}
    assert len(shared) == 121 and sum(not step.premises for step in steps) == 1428
    for _ in range(2):  # the memo lives in one call: the second call checks as much again
        faults.clear()
        evals.clear()
        assert replay_all(closure, default_kb) == 625
        # 121 distinct fact and R1 steps plus every one of the 803 derived steps;
        # two expressions for each of the 29 distinct R4 witnesses
        assert (len(faults), len(evals)) == (121 + 803, 58)


def test_replay_trace_checks_every_step_of_each_trace(default_kb, closure, monkeypatch):
    faults = _counting(monkeypatch, "_step_fault")
    for _, judgment in _settled(closure):
        replay_trace(judgment.trace, default_kb)
    assert len(faults) == 2231


def test_replay_all_refuses_a_later_cell_repeating_a_fact_step_with_a_forged_citation(default_kb, closure):
    seen = set()
    for cell, judgment in _settled(closure):
        steps = judgment.trace.steps
        k = next((k for k, step in enumerate(steps) if step.rule == "fact" and step in seen), None)
        if k is not None:
            break
        seen.update(steps)
    forged = steps[k]._replace(note=steps[k].note + " (forged)")
    trace = ProofTrace(steps[:k] + (forged,) + steps[k + 1:])
    with pytest.raises(ReplayError, match="no matching base fact"):
        replay_all(_with_cells(closure, {cell: judgment._replace(trace=trace)}), default_kb)


class _Fresh(ProofTrace):
    """A trace that builds new step objects on every read of its steps, so a
    step read once is freed, and its id may come back as another step's."""

    def __init__(self, steps):
        object.__setattr__(self, "_given", tuple(map(tuple, steps)))

    @property
    def steps(self):
        return tuple(RuleInstance(*fields) for fields in self._given)


def test_replay_all_refuses_a_forged_step_among_steps_built_afresh_on_every_read(default_kb, closure):
    settled = _settled(closure)
    cells = {cell: j._replace(trace=_Fresh(j.trace.steps)) for cell, j in settled}
    assert replay_all(_with_cells(closure, cells), default_kb) == 625
    # forge the first fact step in each of the last 30 cells with one
    with_facts = [(cell, j) for cell, j in settled if any(step.rule == "fact" for step in j.trace.steps)]
    for cell, judgment in with_facts[-30:]:
        steps = list(judgment.trace.steps)
        k = next(k for k, step in enumerate(steps) if step.rule == "fact")
        steps[k] = steps[k]._replace(note=steps[k].note + " (forged)")
        with pytest.raises(ReplayError, match="no matching base fact"):
            replay_all(_with_cells(closure, {**cells, cell: judgment._replace(trace=_Fresh(steps))}), default_kb)


def test_replay_all_refuses_a_repeated_r4_witness_cited_under_a_model_that_does_not_witness_it(
        default_kb, closure):
    witnessed = set()
    for cell, judgment in _settled(closure):
        *head, last = judgment.trace.steps
        if last.rule == "R4":
            u, l = (head[k].conclusion.expr for k in last.premises)
            if (u, l) in witnessed:
                break
            witnessed.add((u, l))
    # ch puts every atom at level 1, so it witnesses no strict inequality
    trace = ProofTrace((*head, last._replace(note="ch")))
    with pytest.raises(ReplayError, match="model ch does not witness"):
        replay_trace(trace, default_kb)
    with pytest.raises(ReplayError, match="model ch does not witness"):
        replay_all(_with_cells(closure, {cell: Judgment(Verdict.NOT_IMPLIES, trace)}), default_kb)
