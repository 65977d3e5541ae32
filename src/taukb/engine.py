"""Forward-chaining fixpoint engine for the implication knowledge base.

Six rules, applied breadth-first in a fixed order until nothing new appears:

    R1  reflexivity          P -> P
    R2  transitivity         P -> Q, Q -> R        gives P -> R
    R3a right propagation    P -> Q, K -/-> Q      gives K -/-> P
    R3b left propagation     P -> Q, P -/-> R      gives Q -/-> R
    R4  cardinality rule     upper bound y of non(P), lower bound x of non(Q),
                             some model with y < x  gives Q -/-> P
    R5  bound propagation    P -> Q moves lower bounds of non(P) up to non(Q)
                             and upper bounds of non(Q) down to non(P)
    R6  interval collapse    e both a lower and an upper bound of non(P)
                             records non(P) = e

Every derived statement keeps the rule instance that first produced it, so
each non-Unknown cell of the resulting matrix carries a replayable proof
trace.  The engine is deterministic: the fixpoint, and the traces, do not
depend on the order of the input fact list.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formats
from .core import (
    Arrow,
    CardinalExpr,
    Claim,
    Fact,
    Judgment,
    NonImp,
    NonLower,
    NonUpper,
    NonValue,
    ProofTrace,
    Property,
    RuleInstance,
    TaukbError,
    UnknownProperty,
    Verdict,
    expr_sort_key,
    normalize_expr,
    render_expr,
)
from .models import ModelRegistry, UnknownAtom, eval_expr, load_default_registry


class Contradiction(TaukbError):
    """A pair judged both Implies and NotImplies; the fact base is inconsistent."""

    def __init__(self, src: Property, dst: Property, implies_trace: ProofTrace,
                 notimplies_trace: ProofTrace):
        self.src = src
        self.dst = dst
        self.implies_trace = implies_trace
        self.notimplies_trace = notimplies_trace
        super().__init__(f"contradiction: {src.name} both implies and does not imply {dst.name}")


class NothingToExplain(TaukbError):
    """Asked to explain an Unknown cell."""


class ShapeMismatch(TaukbError):
    """Judgment matrices with different index sets cannot be diffed."""


class ReplayError(TaukbError):
    """A proof trace step does not check out against the rule definitions."""


@dataclass(frozen=True)
class KnowledgeBase:
    properties: tuple[Property, ...]
    facts: tuple[Fact, ...]
    registry: ModelRegistry


def build_knowledge_base(fact_file: formats.FactFile, registry: ModelRegistry) -> KnowledgeBase:
    """Resolve a parsed fact file against a registry into a validated KB.

    Include declarations must already be resolved, as load_facts does.
    """
    props: dict[Property, Property] = {}
    by_serial: dict[int, Property] = {}
    models = {m.name for m in registry}
    errors: list[str] = []

    for d in fact_file.decls:
        if isinstance(d, formats.PropertyDecl):
            p = d.to_property()
            if p in props or d.serial in by_serial:
                errors.append(f"line {d.line}: duplicate property {p.name} / serial {d.serial}")
                continue
            props[p] = p
            by_serial[d.serial] = p
        elif isinstance(d, formats.VariantDecl):
            p = Property(d.kind, d.source, d.target, d.variant, non=d.non)
            if p in props:
                errors.append(f"line {d.line}: duplicate variant {p.name}")
                continue
            props[p] = p
        elif isinstance(d, formats.IncludeDecl):
            errors.append(f"line {d.line}: include {d.path} is not resolved; read the file with load_facts")

    def resolve(ref: formats.Ref, line: int) -> Property | None:
        if isinstance(ref, formats.SerialRef):
            p = by_serial.get(ref.serial)
            if p is None:
                errors.append(f"line {line}: serial {ref.serial} is not declared")
            return p
        p = props.get(Property(ref.kind, ref.source, ref.target, ref.variant))
        if p is None:
            errors.append(f"line {line}: property {ref.render()} is not declared")
        return p

    facts: list[Fact] = []
    for d in fact_file.decls:
        if isinstance(d, formats.ArrowDecl):
            src, dst = resolve(d.src, d.line), resolve(d.dst, d.line)
            if src is None or dst is None:
                continue
            if src == dst:
                errors.append(f"line {d.line}: arrow endpoints must be distinct")
                continue
            facts.append(Arrow(src, dst, d.cite or f"facts:{d.line}"))
        elif isinstance(d, formats.NonImpDecl):
            src, dst = resolve(d.src, d.line), resolve(d.dst, d.line)
            if src is None or dst is None:
                continue
            if d.model is not None and d.model not in models:
                errors.append(f"line {d.line}: model {d.model} is not registered")
                continue
            witness = d.model if d.model is not None else d.cite
            facts.append(NonImp(src, dst, witness, d.cite or f"model {d.model}"))
        elif isinstance(d, formats.CardDecl):
            p = resolve(d.ref, d.line)
            if p is None:
                continue
            source = d.cite or f"facts:{d.line}"
            expr = normalize_expr(d.expr)
            if d.rel == "eq":
                facts.append(NonValue(p, expr, source))
            elif d.rel == "ge":
                facts.append(NonLower(p, expr, source))
            else:
                facts.append(NonUpper(p, expr, source))
    if errors:
        raise TaukbError("fact file does not resolve: " + "; ".join(errors))
    ordered = tuple(sorted(props.values(), key=lambda p: p.key))
    return KnowledgeBase(ordered, tuple(facts), registry)


def load_default_kb() -> KnowledgeBase:
    return build_knowledge_base(formats.load_default_facts(), load_default_registry())


# ---------------------------------------------------------------------------
# Closure

# Internal statement encoding: ("imp", i, j), ("non", i, j),
# ("low", i, expr), ("up", i, expr), ("ex", i, expr) with i, j property
# indices in canonical order.  Rule ranks break ties between derivations of
# the same statement inside one round.

_RULE_RANK = {"fact": 0, "R1": 1, "R2": 2, "R3a": 3, "R3b": 4, "R4": 5, "R5": 6, "R6": 7}


def _stmt_key(s: tuple) -> tuple:
    if s[0] in ("imp", "non"):
        return (s[0], s[1], s[2], "")
    return (s[0], s[1], -1, expr_sort_key(s[2]))


@dataclass(frozen=True)
class CardinalityReport:
    """What the closure knows about non(P): exact values plus bound sets."""

    exacts: tuple[CardinalExpr, ...]
    lower: tuple[CardinalExpr, ...]
    upper: tuple[CardinalExpr, ...]

    @property
    def exact(self) -> CardinalExpr | None:
        return self.exacts[0] if self.exacts else None


class ClosureResult:
    """Immutable outcome of close(): judgment matrix, intervals, traces."""

    def __init__(self, properties, matrix, lower, upper, exacts, exact_traces, iterations):
        self.properties: tuple[Property, ...] = properties
        self.matrix: dict[tuple[Property, Property], Judgment] = matrix
        self.lower: dict[Property, tuple[CardinalExpr, ...]] = lower
        self.upper: dict[Property, tuple[CardinalExpr, ...]] = upper
        self.exacts: dict[Property, tuple[CardinalExpr, ...]] = exacts
        self.exact_traces: dict[tuple[Property, CardinalExpr], ProofTrace] = exact_traces
        self.iterations = iterations

    def serial_properties(self) -> list[Property]:
        num = [p for p in self.properties if p.serial is not None]
        return sorted(num, key=lambda p: p.serial)

    def serial_grid(self) -> list[list[Verdict]]:
        """22x22 verdict grid over the serial-numbered properties."""
        ps = self.serial_properties()
        return [[self.matrix[(a, b)].verdict for b in ps] for a in ps]


def close(kb: KnowledgeBase) -> ClosureResult:
    """Least fixpoint of rules R1..R6 over the knowledge base.

    Raises Contradiction if any ordered pair derives both verdicts; no
    partial result is produced in that case.
    """
    registry = kb.registry
    bad = {k: v for k, v in registry.validate().items() if v}
    if bad:
        raise TaukbError(f"registry failed validation: {sorted(bad)}")

    props = kb.properties
    n = len(props)
    index = {p: i for i, p in enumerate(props)}

    prov: dict[tuple, tuple] = {}  # stmt -> (rule, premises, note)
    imp: set[tuple[int, int]] = set()
    non: set[tuple[int, int]] = set()
    low: list[set] = [set() for _ in range(n)]
    up: list[set] = [set() for _ in range(n)]
    exact: set[tuple] = set()

    def fact_key(f: Fact) -> tuple:
        order = {Arrow: 0, NonImp: 1, NonValue: 2, NonLower: 3, NonUpper: 4}
        if isinstance(f, (Arrow, NonImp)):
            return (order[type(f)], f.src.key, f.dst.key, "", f.source)
        return (order[type(f)], f.prop.key, (), render_expr(f.expr), f.source)

    base: list[tuple[tuple, str]] = []  # (stmt, citation)
    for f in sorted(kb.facts, key=fact_key):
        if isinstance(f, Arrow):
            if f.src not in index or f.dst not in index:
                raise UnknownProperty(f"arrow endpoint {f.src.name} or {f.dst.name} unregistered")
            base.append((("imp", index[f.src], index[f.dst]), f.source))
        elif isinstance(f, NonImp):
            base.append((("non", index[f.src], index[f.dst]), f"{f.source} [{f.witness}]"))
        elif isinstance(f, NonValue):
            e = normalize_expr(f.expr)
            base.append((("low", index[f.prop], e), f.source))
            base.append((("up", index[f.prop], e), f.source))
        elif isinstance(f, NonLower):
            base.append((("low", index[f.prop], normalize_expr(f.expr)), f.source))
        elif isinstance(f, NonUpper):
            base.append((("up", index[f.prop], normalize_expr(f.expr)), f.source))

    def install(stmt: tuple, rule: str, premises: tuple, note: str) -> None:
        kind = stmt[0]
        if kind == "imp":
            imp.add((stmt[1], stmt[2]))
        elif kind == "non":
            non.add((stmt[1], stmt[2]))
        elif kind == "low":
            low[stmt[1]].add(stmt[2])
        elif kind == "up":
            up[stmt[1]].add(stmt[2])
        else:
            exact.add((stmt[1], stmt[2]))
        prov[stmt] = (rule, premises, note)

    for stmt, cite in base:
        if stmt not in prov:
            install(stmt, "fact", (), cite)

    def claim_of(stmt: tuple) -> Claim:
        kind = stmt[0]
        if kind == "imp":
            return Claim("implies", props[stmt[1]], props[stmt[2]])
        if kind == "non":
            return Claim("notimplies", props[stmt[1]], props[stmt[2]])
        name = {"low": "lower", "up": "upper", "ex": "exact"}[kind]
        return Claim(name, props[stmt[1]], expr=stmt[2])

    def trace_of(stmt: tuple) -> ProofTrace:
        order: list[tuple] = []
        seen: set[tuple] = set()

        def visit(s: tuple) -> None:
            if s in seen:
                return
            seen.add(s)
            for pre in prov[s][1]:
                visit(pre)
            order.append(s)

        visit(stmt)
        pos = {s: i for i, s in enumerate(order)}
        steps = []
        for s in order:
            rule, premises, note = prov[s]
            steps.append(RuleInstance(rule, tuple(pos[p] for p in premises), claim_of(s), note))
        return ProofTrace(tuple(steps))

    def contradiction(i: int, j: int) -> Contradiction:
        return Contradiction(props[i], props[j], trace_of(("imp", i, j)), trace_of(("non", i, j)))

    for (i, j) in sorted(imp & non):
        raise contradiction(i, j)

    sorted_low: list[list] = [sorted(s, key=expr_sort_key) for s in low]
    sorted_up: list[list] = [sorted(s, key=expr_sort_key) for s in up]

    iterations = 0
    max_rounds = n * n + 2
    while True:
        iterations += 1
        if iterations > max_rounds:
            raise TaukbError(f"fixpoint did not settle within {max_rounds} rounds")
        new: dict[tuple, tuple] = {}

        def propose(stmt: tuple, rule: str, premises: tuple, note: str = "") -> None:
            if stmt in prov:
                return
            cand = (_RULE_RANK[rule], tuple(_stmt_key(p) for p in premises), rule, premises, note)
            cur = new.get(stmt)
            if cur is None or cand[:2] < cur[:2]:
                new[stmt] = cand

        if iterations == 1:
            for i in range(n):
                propose(("imp", i, i), "R1", ())

        imp_sorted = sorted(imp)
        out: dict[int, list[int]] = {}
        for (i, j) in imp_sorted:
            out.setdefault(i, []).append(j)

        # R2: compose implications
        for (i, j) in imp_sorted:
            for k in out.get(j, ()):
                if (i, k) not in imp:
                    propose(("imp", i, k), "R2", (("imp", i, j), ("imp", j, k)))

        # R3a / R3b: push non-implications against implications
        for (knode, q) in sorted(non):
            for (p, q2) in imp_sorted:
                if q2 == q and (knode, p) not in non:
                    propose(("non", knode, p), "R3a", (("imp", p, q), ("non", knode, q)))
        for (p, r) in sorted(non):
            for q in out.get(p, ()):
                if (q, r) not in non:
                    propose(("non", q, r), "R3b", (("imp", p, q), ("non", p, r)))

        # R4: consistent strict inequality between bound sets
        for q in range(n):
            if not sorted_low[q]:
                continue
            for p in range(n):
                if p == q or (q, p) in non or not sorted_up[p]:
                    continue
                hit = None
                for u in sorted_up[p]:
                    for l in sorted_low[q]:
                        witness = registry.consistently_less(u, l)
                        if witness is not None:
                            hit = (u, l, witness)
                            break
                    if hit:
                        break
                if hit:
                    u, l, witness = hit
                    propose(("non", q, p), "R4", (("up", p, u), ("low", q, l)), note=witness)

        # R5: bounds ride along implications
        for (i, j) in imp_sorted:
            if i == j:
                continue
            for e in sorted_low[i]:
                if e not in low[j]:
                    propose(("low", j, e), "R5", (("imp", i, j), ("low", i, e)))
            for e in sorted_up[j]:
                if e not in up[i]:
                    propose(("up", i, e), "R5", (("imp", i, j), ("up", j, e)))

        # R6: collapse coinciding bounds to an exact value
        for i in range(n):
            for e in sorted_low[i]:
                if e in up[i] and (i, e) not in exact:
                    propose(("ex", i, e), "R6", (("low", i, e), ("up", i, e)))

        if not new:
            break
        for stmt in sorted(new, key=_stmt_key):
            rank, pk, rule, premises, note = new[stmt]
            install(stmt, rule, premises, note)
        for (i, j) in sorted(imp & non):
            raise contradiction(i, j)
        sorted_low = [sorted(s, key=expr_sort_key) for s in low]
        sorted_up = [sorted(s, key=expr_sort_key) for s in up]

    _check_intervals(props, low, up, registry)

    matrix: dict[tuple[Property, Property], Judgment] = {}
    for i, a in enumerate(props):
        for j, b in enumerate(props):
            if (i, j) in imp:
                matrix[(a, b)] = Judgment(Verdict.IMPLIES, trace_of(("imp", i, j)))
            elif (i, j) in non:
                matrix[(a, b)] = Judgment(Verdict.NOT_IMPLIES, trace_of(("non", i, j)))
            else:
                matrix[(a, b)] = Judgment(Verdict.UNKNOWN)

    lower = {p: tuple(sorted(low[i], key=expr_sort_key)) for i, p in enumerate(props)}
    upper = {p: tuple(sorted(up[i], key=expr_sort_key)) for i, p in enumerate(props)}
    exacts: dict[Property, tuple] = {p: () for p in props}
    exact_traces: dict[tuple[Property, CardinalExpr], ProofTrace] = {}
    for (i, e) in sorted(exact, key=lambda t: (t[0], expr_sort_key(t[1]))):
        exacts[props[i]] = exacts[props[i]] + (e,)
        exact_traces[(props[i], e)] = trace_of(("ex", i, e))
    return ClosureResult(props, matrix, lower, upper, exacts, exact_traces, iterations)


def _check_intervals(props, low, up, registry: ModelRegistry) -> None:
    # soundness guard: every lower bound must sit at or below every upper
    # bound in every model that can evaluate both
    for i, p in enumerate(props):
        for l in low[i]:
            for u in up[i]:
                for m in registry:
                    try:
                        lv, uv = eval_expr(l, m), eval_expr(u, m)
                    except UnknownAtom:
                        continue
                    if lv > uv:
                        raise TaukbError(
                            f"interval for {p.name} is inconsistent in model {m.name}: "
                            f"{render_expr(l)} > {render_expr(u)}")


# ---------------------------------------------------------------------------
# Queries over a closure


def query(result: ClosureResult, p: Property, q: Property) -> Judgment:
    try:
        return result.matrix[(p, q)]
    except KeyError:
        raise UnknownProperty(f"pair ({p.name}, {q.name}) not in the matrix") from None


def explain(result: ClosureResult, p: Property, q: Property) -> str:
    """Human-readable linearization of the cell's proof trace."""
    j = query(result, p, q)
    if j.verdict is Verdict.UNKNOWN:
        raise NothingToExplain(f"{p.name} vs {q.name} is unsettled; nothing to explain")
    return render_trace(j.trace)


def render_trace(trace: ProofTrace) -> str:
    """One line per step: index, rule, citation or witnessing model, conclusion, premises."""
    lines = []
    for i, step in enumerate(trace.steps):
        src = " from " + ", ".join(f"S{k}" for k in step.premises) if step.premises else ""
        note = f" [model {step.note}]" if step.rule == "R4" else (f" [{step.note}]" if step.note else "")
        lines.append(f"S{i} {step.rule}{note}: {step.conclusion.render()}{src}")
    return "\n".join(lines)


def derive_cardinality(result: ClosureResult, p: Property) -> CardinalityReport:
    """Exact critical cardinality if the closure pinned one, plus bound sets."""
    if p not in result.exacts:
        raise UnknownProperty(f"{p.name} is not registered")
    return CardinalityReport(result.exacts[p], result.lower[p], result.upper[p])


def diff(a: list[list[Verdict]], b: list[list[Verdict]]) -> list[tuple[int, int, Verdict, Verdict]]:
    """All differing cells of two same-shape verdict grids, sorted by (row, col)."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ShapeMismatch("matrices have different index sets")
    out = []
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (va, vb) in enumerate(zip(ra, rb)):
            if va is not vb:
                out.append((i, j, va, vb))
    return out


# ---------------------------------------------------------------------------
# Trace replay


def replay_trace(trace: ProofTrace, kb: KnowledgeBase) -> None:
    """Re-check every step of a trace against the rule definitions.

    Raises ReplayError on the first step that does not follow.  Base fact
    steps must match a fact in the knowledge base.
    """
    concluded: list[Claim] = []
    for idx, step in enumerate(trace.steps):
        for p in step.premises:
            if not 0 <= p < idx:
                raise ReplayError(f"step {idx} uses premise {p}, which is not an earlier step")
        premises = [concluded[p] for p in step.premises]
        _check_step(step, premises, kb)
        concluded.append(step.conclusion)


def _claim_matches_fact(c: Claim, f: Fact) -> bool:
    if isinstance(f, Arrow):
        return c.kind == "implies" and c.subject == f.src and c.object == f.dst
    if isinstance(f, NonImp):
        return c.kind == "notimplies" and c.subject == f.src and c.object == f.dst
    if isinstance(f, NonValue):
        return c.kind in ("lower", "upper") and c.subject == f.prop and c.expr == normalize_expr(f.expr)
    if isinstance(f, NonLower):
        return c.kind == "lower" and c.subject == f.prop and c.expr == normalize_expr(f.expr)
    if isinstance(f, NonUpper):
        return c.kind == "upper" and c.subject == f.prop and c.expr == normalize_expr(f.expr)
    return False


def _check_step(step: RuleInstance, premises: list[Claim], kb: KnowledgeBase) -> None:
    c = step.conclusion
    rule = step.rule

    def fail(msg: str):
        raise ReplayError(f"{rule} step concluding {c.render()}: {msg}")

    if rule not in _RULE_RANK:
        fail(f"unknown rule id {rule!r}")
    arity = 0 if rule in ("fact", "R1") else 2
    if len(premises) != arity:
        fail(f"needs {arity} premises, got {len(premises)}")
    if rule == "fact":
        if not any(_claim_matches_fact(c, f) for f in kb.facts):
            fail("no matching base fact in the knowledge base")
    elif rule == "R1":
        if not (c.kind == "implies" and c.subject == c.object):
            fail("conclusion is not reflexive")
    elif rule == "R2":
        a, b = premises
        ok = (a.kind == b.kind == "implies" and a.object == b.subject
              and c.kind == "implies" and c.subject == a.subject and c.object == b.object)
        if not ok:
            fail("premises do not chain")
    elif rule == "R3a":
        a, b = premises
        ok = (a.kind == "implies" and b.kind == "notimplies" and a.object == b.object
              and c.kind == "notimplies" and c.subject == b.subject and c.object == a.subject)
        if not ok:
            fail("does not match R3a")
    elif rule == "R3b":
        a, b = premises
        ok = (a.kind == "implies" and b.kind == "notimplies" and a.subject == b.subject
              and c.kind == "notimplies" and c.subject == a.object and c.object == b.object)
        if not ok:
            fail("does not match R3b")
    elif rule == "R4":
        a, b = premises
        ok = (a.kind == "upper" and b.kind == "lower" and c.kind == "notimplies"
              and c.subject == b.subject and c.object == a.subject)
        if not ok:
            fail("does not match R4 shape")
        try:
            model = kb.registry.get(step.note)
            witnessed = eval_expr(a.expr, model) < eval_expr(b.expr, model)
        except TaukbError as e:  # no such model, or it leaves an atom unassigned
            fail(str(e))
        if not witnessed:
            fail(f"model {model.name} does not witness {render_expr(a.expr)} < {render_expr(b.expr)}")
    elif rule == "R5":
        a, b = premises
        if a.kind != "implies":
            fail("first premise must be an implication")
        if b.kind == "lower":
            ok = c.kind == "lower" and b.subject == a.subject and c.subject == a.object and c.expr == b.expr
        elif b.kind == "upper":
            ok = c.kind == "upper" and b.subject == a.object and c.subject == a.subject and c.expr == b.expr
        else:
            ok = False
        if not ok:
            fail("does not match R5")
    elif rule == "R6":
        a, b = premises
        ok = (a.kind == "lower" and b.kind == "upper" and a.subject == b.subject == c.subject
              and a.expr == b.expr == c.expr and c.kind == "exact")
        if not ok:
            fail("does not match R6")


def replay_all(result: ClosureResult, kb: KnowledgeBase) -> int:
    """Replay every non-Unknown cell's trace; returns the number replayed."""
    count = 0
    for (a, b), judgment in result.matrix.items():
        if judgment.verdict is Verdict.UNKNOWN:
            continue
        final = judgment.trace.steps[-1].conclusion
        want = "implies" if judgment.verdict is Verdict.IMPLIES else "notimplies"
        if final.kind != want or final.subject != a or final.object != b:
            raise ReplayError(f"trace for ({a.name}, {b.name}) does not conclude the cell")
        replay_trace(judgment.trace, kb)
        count += 1
    return count
