"""Trace replay: re-check proof traces against the rule definitions.

The checker reads the rules R1..R6 from _rule_conclusion alone, not from the
engine's closure.  No KB command runs it: taukb.engine re-exports its names,
and loads this module the first time one of them is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import TaukbError
from .core import Claim, ProofTrace, RuleInstance, Verdict, render_expr
from .models import eval_expr

if TYPE_CHECKING:
    from .engine import ClosureResult, KnowledgeBase


class ReplayError(TaukbError):
    """A proof trace step does not check out against the rule definitions."""


def replay_trace(trace: ProofTrace, kb: KnowledgeBase) -> None:
    """Re-check every step of a trace against the rule definitions.

    Raises ReplayError on the first step that is malformed, is not a base fact
    of kb with a citation kb states for it, or does not conclude exactly what
    its rule draws from its premises, with a note only on an R4 step.
    """
    steps = trace.steps
    if type(steps) is not tuple:
        raise ReplayError(f"steps {steps!r} are not a tuple of rule instances")
    _replay(steps, kb, {}, set())


def _replay(steps: tuple, kb: KnowledgeBase, checked: dict, witnessed: set) -> None:
    """replay_trace on a tuple of steps, skipping a premise-free step that
    checked, {id(step): step}, already holds.  A premise-free step that
    checks out is recorded there if it is an exact RuleInstance, whose fields
    cannot change; the dict keeps it alive, so its id names no other step."""
    concluded: list[Claim] = []
    for i, step in enumerate(steps):
        if not isinstance(step, RuleInstance):
            raise ReplayError(f"step {i} is not a rule instance: {step!r}")
        c = step.conclusion
        if checked.get(id(step)) is step:
            concluded.append(c)
            continue
        try:
            why = _step_fault(step, concluded, kb, witnessed)
        except TypeError as e:  # an unhashable field of a fact or R1 step, or of an R4 witness
            why = str(e)
        if why is not None:
            try:
                shown = c.render()
            except (AttributeError, KeyError, TypeError):  # fields that do not fit its kind, or no claim
                shown = repr(c)
            raise ReplayError(f"{step.rule} step concluding {shown}: {why}")
        if not step.premises and type(step) is RuleInstance:
            checked[id(step)] = step
        concluded.append(c)


def _rule_conclusion(rule: str, c: Claim, premises: list[Claim]) -> tuple | None:
    """What rule draws from premises, as the (kind, subject, object, expr) tuple
    its claim equals: R1 from none P -> P for the subject P of c, R2..R6 from
    two; None for any other rule, premise count or premises.  Replay reads the rules here alone."""
    if len(premises) != 2:
        return ("implies", c.subject, c.subject, None) if rule == "R1" and not premises else None
    (ak, ap, ao, ae), (bk, bp, bo, be) = premises
    if rule == "R2" and (ak, bk) == ("implies", "implies") and ao == bp:
        return ("implies", ap, bo, None)
    if rule == "R3a" and (ak, bk) == ("implies", "notimplies") and ao == bo:
        return ("notimplies", bp, ap, None)
    if rule == "R3b" and (ak, bk) == ("implies", "notimplies") and ap == bp:
        return ("notimplies", ao, bo, None)
    if rule == "R4" and (ak, bk) == ("upper", "lower"):
        return ("notimplies", bp, ap, None)
    if rule == "R5" and (ak, bk) == ("implies", "lower") and bp == ap:
        return ("lower", ao, None, be)
    if rule == "R5" and (ak, bk) == ("implies", "upper") and bp == ao:
        return ("upper", ap, None, be)
    if rule == "R6" and (ak, bk) == ("lower", "upper") and ap == bp and ae == be:
        return ("exact", ap, None, ae)
    return None


def _step_fault(step: RuleInstance, concluded: list[Claim], kb: KnowledgeBase, witnessed: set) -> str | None:
    """Why step fails to replay after steps that concluded concluded; None if
    it replays.  An R4 witness (u, l, model name) in witnessed is not
    evaluated again, and one that checks out is added."""
    c = step.conclusion
    if not isinstance(c, Claim):
        return "the conclusion is not a claim"
    if type(step.premises) is not tuple:
        return f"premises {step.premises!r} are not a tuple of step indices"
    premises = []
    for p in step.premises:
        if type(p) is not int or not 0 <= p < len(concluded):
            return f"premise {p!r} is not an earlier step"
        premises.append(concluded[p])
    rule, note = step.rule, step.note
    if rule == "fact" and not premises:
        return None if note in kb._facts.get(c, frozenset()) else "no matching base fact in the knowledge base"
    if c != _rule_conclusion(rule, c, premises):
        return f"does not match {rule}"
    if rule == "R1" and c.subject not in kb._index:
        return "names no property of the knowledge base"
    if rule != "R4":
        return None if note == "" else f"carries the note {note!r}, which only fact and R4 steps have"
    (_, _, _, u), (_, _, _, l) = premises
    if (u, l, note) in witnessed:
        return None
    try:
        model = kb.registry.get(note)
        if not eval_expr(u, model) < eval_expr(l, model):
            return f"model {model.name} does not witness {render_expr(u)} < {render_expr(l)}"
    except TaukbError as e:  # no such model, or it leaves an atom unassigned
        return str(e)
    witnessed.add((u, l, note))
    return None


def replay_all(result: ClosureResult, kb: KnowledgeBase) -> int:
    """Replay every non-Unknown cell's trace; returns the number replayed.

    The traces share their fact and R1 steps, and many R4 steps cite one
    witness.  So within one call each premise-free step object is checked
    once, and each R4 witness (u, l, model name) is evaluated once; every
    other step is checked in every trace that lists it.
    """
    count = 0
    checked: dict[int, RuleInstance] = {}
    witnessed: set[tuple] = set()
    unknown, implies = Verdict.UNKNOWN, Verdict.IMPLIES
    for (a, b), judgment in result.matrix.items():
        if judgment.verdict is unknown:
            continue
        steps = judgment.trace.steps
        last = steps[-1] if type(steps) is tuple and steps else None
        want = "implies" if judgment.verdict is implies else "notimplies"
        if not isinstance(last, RuleInstance) or last.conclusion != (want, a, b, None):
            raise ReplayError(f"trace for ({a.name}, {b.name}) does not conclude the cell")
        _replay(steps, kb, checked, witnessed)
        count += 1
    return count
