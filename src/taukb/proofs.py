"""Proof traces, built from a closure's provenance, their rendering, and the body
of `taukb explain`.  Only explain, the contradiction report and the readers of
ClosureResult.matrix or exact_traces run them; taukb.engine forwards explain
on first read."""

from __future__ import annotations

from . import TaukbError
from .core import Claim, Property, RuleInstance
from .engine import _EDGE_KINDS, ClosureResult


class NothingToExplain(TaukbError):
    """Asked to explain an Unknown cell."""


class _Traces:
    """The proof traces of one closure, built from its provenance on demand.

    A statement's trace lists, in DFS postorder, the statements its proof
    uses: its first premise's order, then its second premise's order minus
    what is already listed, then the statement itself.  Every listed set is
    closed under premises, so this is the order of one DFS from the
    statement, and the first premise's steps are a prefix of its steps.
    Each statement's order and steps are built together, at most once, from
    its premises' entries: that prefix plus fresh steps.  A fact or R1 step
    names no position, so it is built once per statement and shared.
    """

    def __init__(self, prov: dict, props: tuple, exprs: list):
        self.prov = prov  # stmt -> (rule, premises, note)
        self.props, self.exprs = props, exprs
        self._memo: dict[tuple, tuple] = {}  # stmt -> (the statements its steps conclude, its steps)
        self.texts: dict[int, tuple] = {}  # explain's render_steps memo: {id(step): (step, text)}

    def steps(self, stmt: tuple) -> tuple[RuleInstance, ...]:
        return self._trace(stmt)[1]

    def _trace(self, stmt: tuple) -> tuple[tuple, tuple[RuleInstance, ...]]:
        """stmt's DFS postorder, the statements its steps conclude in step order, and its steps."""
        entry = self._memo.get(stmt)
        if entry is None:
            rule, premises, note = self.prov[stmt]  # none or, for a derived statement, two premises
            if premises:
                (order, steps), (later, _) = self._trace(premises[0]), self._trace(premises[1])
                order = tuple(dict.fromkeys(order + later + (stmt,)))  # a listed statement keeps its place
                for s in order[len(steps):]:  # a fresh step finds its premises' positions in order
                    rule, premises, note = self.prov[s]
                    steps += (RuleInstance(rule, (order.index(premises[0]), order.index(premises[1])),
                                           self._claim(s), note) if premises else self.steps(s)[0],)
            else:
                order, steps = (stmt,), (RuleInstance(rule, (), self._claim(stmt), note),)
            entry = self._memo[stmt] = order, steps
        return entry

    def _claim(self, stmt: tuple) -> Claim:
        kind, i, x = stmt
        return (Claim(kind, self.props[i], self.props[x]) if kind in _EDGE_KINDS
                else Claim(kind, self.props[i], expr=self.exprs[x]))


def explain(result: ClosureResult, p: Property, q: Property) -> str:
    """Human-readable linearization of the cell's proof trace."""
    stmt = result._settled(p, q)
    if stmt is None:
        raise NothingToExplain(f"{p.name} vs {q.name} is unsettled; nothing to explain")
    return render_steps(result._traces.steps(stmt), result._traces.texts)


def render_steps(steps: tuple[RuleInstance, ...], memo: dict | None = None) -> str:
    """One line per step: index, rule, citation or witnessing model, conclusion, premises.

    memo, {id(step): (step, text)}, keeps each premise-free exact
    RuleInstance's text after its index; an entry counts only for the very
    step it holds, which it keeps alive, so its id names no other step.
    """
    lines = []
    for i, step in enumerate(steps):
        hit = memo.get(id(step)) if memo is not None else None
        if hit is not None and hit[0] is step:
            lines.append(f"S{i} {hit[1]}")
            continue
        rule, premises, conclusion, note = step
        src = " from S" + ", S".join(map(str, premises)) if premises else ""
        note = f" [model {note}]" if rule == "R4" else (f" [{note}]" if note else "")
        text = f"{rule}{note}: {conclusion.render()}{src}"
        if memo is not None and not premises and type(step) is RuleInstance:
            memo[id(step)] = (step, text)
        lines.append(f"S{i} {text}")
    return "\n".join(lines)


def explain_command(ctx, i, j):  # the body of `taukb explain`, which taukb.cli declares
    from .kbcli import _close, _serial  # which a library reader of this module does not load

    result = _close(ctx)
    text = explain(result, _serial(result, i), _serial(result, j))
    steps = [{"step": k, "line": line} for k, line in enumerate(text.splitlines())]
    return text + "\n", steps
