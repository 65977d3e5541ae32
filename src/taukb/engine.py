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

from itertools import islice
from typing import NamedTuple

from . import formats
from .core import (
    CardinalExpr,
    Claim,
    Contradiction,
    Judgment,
    ProofTrace,
    Property,
    RuleInstance,
    TaukbError,
    UnknownProperty,
    Verdict,
    normalize_expr,
    render_expr,
    render_trace,
)
from .models import ModelRegistry, eval_expr, load_default_registry


class NothingToExplain(TaukbError):
    """Asked to explain an Unknown cell."""


class ShapeMismatch(TaukbError):
    """Judgment matrices with different index sets cannot be diffed."""


class ReplayError(TaukbError):
    """A proof trace step does not check out against the rule definitions."""


class KnowledgeBase:
    """A resolved fact base: its properties in canonical order, its base
    facts, and the registry that R4 and replay consult."""

    def __init__(self, properties, facts, registry):
        self.properties: tuple[Property, ...] = properties
        self.facts: tuple[tuple[Claim, str], ...] = facts  # (claim, citation) per base fact
        self.registry: ModelRegistry = registry
        self._facts = frozenset(facts)  # replay checks fact steps against it
        self._properties = frozenset(properties)  # and R1 steps against it


def build_knowledge_base(fact_file: formats.FactFile, registry: ModelRegistry) -> KnowledgeBase:
    """Resolve a parsed fact file against a registry into a validated KB.

    Each fact line becomes the claims it asserts, each with the citation its
    trace step carries: an arrow gives implies, a nonimp gives notimplies,
    and a card line gives lower (ge), upper (le) or both (eq).  Include
    declarations must already be resolved, as load_facts does.
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
        p = props.get(ref)
        if p is None:
            errors.append(f"line {line}: property {formats.render_ref(ref)} is not declared")
        return p

    facts: list[tuple[Claim, str]] = []
    for d in fact_file.decls:
        if isinstance(d, formats.ArrowDecl):
            src, dst = resolve(d.src, d.line), resolve(d.dst, d.line)
            if src is None or dst is None:
                continue
            if src == dst:
                errors.append(f"line {d.line}: arrow endpoints must be distinct")
                continue
            facts.append((Claim("implies", src, dst), d.cite or f"facts:{d.line}"))
        elif isinstance(d, formats.NonImpDecl):
            src, dst = resolve(d.src, d.line), resolve(d.dst, d.line)
            if src is None or dst is None:
                continue
            if d.model is not None and d.model not in models:
                errors.append(f"line {d.line}: model {d.model} is not registered")
                continue
            witness = d.model if d.model is not None else d.cite
            facts.append((Claim("notimplies", src, dst), f"{d.cite or f'model {d.model}'} [{witness}]"))
        elif isinstance(d, formats.CardDecl):
            p = resolve(d.ref, d.line)
            if p is None:
                continue
            expr = normalize_expr(d.expr)
            kinds = {"eq": ("lower", "upper"), "ge": ("lower",), "le": ("upper",)}[d.rel]
            facts += [(Claim(k, p, expr=expr), d.cite or f"facts:{d.line}") for k in kinds]
    if errors:
        raise TaukbError("fact file does not resolve: " + "; ".join(errors))
    ordered = tuple(sorted(props.values(), key=lambda p: p.key))
    return KnowledgeBase(ordered, tuple(facts), registry)


def load_default_kb() -> KnowledgeBase:
    return build_knowledge_base(formats.load_default_facts(), load_default_registry())


# ---------------------------------------------------------------------------
# Closure

# Internal statement encoding: a tuple (kind, i, x) with kind a Claim kind
# (implies, notimplies, lower, upper, exact), i a property index and x a
# property index or, for the bound kinds, an expression index.  Properties
# are indexed in canonical order and expressions in rendered order, so the
# tuples sort the way their claims render.  The closure holds the statements
# as bit rows: bit x of rows[kind][i] is set iff (kind, i, x) holds.

_EDGE_KINDS = ("implies", "notimplies")


def _bits(mask: int):
    """The indices of the set bits of mask, in ascending order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class CardinalityReport(NamedTuple):
    """What the closure knows about non(P): exact values plus bound sets."""

    exacts: tuple[CardinalExpr, ...]
    lower: tuple[CardinalExpr, ...]
    upper: tuple[CardinalExpr, ...]

    @property
    def exact(self) -> CardinalExpr | None:
        return self.exacts[0] if self.exacts else None


class _Traces:
    """The proof traces of one closure, built from its provenance on demand.

    A statement's trace lists, in DFS postorder, the statements its proof
    uses: its first premise's order, then each further premise's order minus
    what is already listed, then the statement itself.  Every listed set is
    closed under premises, so this is the order of one DFS from the
    statement, and the first premise's steps are a prefix of its steps.
    Each trace is built at most once, as that prefix plus fresh steps for
    the rest.  A fact or R1 step names no position, so it is built once per
    statement and shared.
    """

    def __init__(self, prov: dict, props: tuple, exprs: list):
        self.prov = prov  # stmt -> (rule, premises, note)
        self.props, self.exprs = props, exprs
        self._claims: dict[tuple, Claim] = {}
        self._orders: dict[tuple, dict] = {}  # stmt -> {listed stmt: its position}
        self._steps: dict[tuple, tuple[RuleInstance, ...]] = {}

    def steps(self, stmt: tuple) -> tuple[RuleInstance, ...]:
        steps = self._steps.get(stmt)
        if steps is None:
            rule, premises, note = self.prov[stmt]
            if premises:
                head = self.steps(premises[0])
                pos = self._order(stmt)
                steps = head + tuple(self._step(s, pos) for s in islice(pos, len(head), None))
            else:
                steps = (RuleInstance(rule, (), self._claim(stmt), note),)
            self._steps[stmt] = steps
        return steps

    def _step(self, stmt: tuple, pos: dict) -> RuleInstance:
        rule, premises, note = self.prov[stmt]
        if not premises:
            return self.steps(stmt)[0]
        return RuleInstance(rule, tuple(map(pos.__getitem__, premises)), self._claim(stmt), note)

    def _order(self, stmt: tuple) -> dict:
        """stmt's DFS postorder, as a dict from each listed statement to its position."""
        pos = self._orders.get(stmt)
        if pos is None:
            premises = self.prov[stmt][1]
            pos = dict(self._order(premises[0])) if premises else {}
            for p in premises[1:]:
                for s in self._order(p):
                    pos.setdefault(s, len(pos))
            pos[stmt] = len(pos)
            self._orders[stmt] = pos
        return pos

    def _claim(self, stmt: tuple) -> Claim:
        c = self._claims.get(stmt)
        if c is None:
            kind, i, x = stmt
            c = self._claims[stmt] = (Claim(kind, self.props[i], self.props[x]) if kind in _EDGE_KINDS
                                      else Claim(kind, self.props[i], expr=self.exprs[x]))
        return c


class _LazyTrace(ProofTrace):
    """A proof trace whose steps are built on first read, by build(stmt).
    It keeps build and stmt outside the slots, so it equals, hashes and
    prints like a plain ProofTrace of its steps."""

    def __init__(self, build, stmt: tuple):
        object.__setattr__(self, "_build", build)
        object.__setattr__(self, "_stmt", stmt)

    def __getattr__(self, name: str):
        # reached only while the steps slot is unset, so at most once per trace
        if name != "steps":
            raise AttributeError(name)
        steps = self._build(self._stmt)
        object.__setattr__(self, "steps", steps)
        return steps


class ClosureResult:
    """Immutable outcome of close(): judgment matrix, one cardinality report
    per property, traces.

    The closure keeps its provenance, and each trace in matrix and
    exact_traces builds its steps from it the first time they are read.
    """

    def __init__(self, properties, matrix, cards, exact_traces, iterations):
        self.properties: tuple[Property, ...] = properties
        self.matrix: dict[tuple[Property, Property], Judgment] = matrix
        self.cards: dict[Property, CardinalityReport] = cards
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
    # a claim stated by several facts carries the least of their citations,
    # whatever the order of the facts
    base: dict[Claim, str] = {}
    for c, cite in kb.facts:
        base[c] = min(cite, base.get(c, cite))
    props = kb.properties
    n = len(props)
    index = {p: i for i, p in enumerate(props)}
    # the closure moves and marks only the expressions the base facts name
    exprs = sorted({c.expr for c in base if c.expr is not None}, key=render_expr)
    eindex = {e: k for k, e in enumerate(exprs)}
    # (u, l) -> first registered model with u < l: R4's premise and the
    # interval guard's refutation; above[u] has bit l set for each such l
    less = {(u, l): w for u, x in enumerate(exprs) for l, y in enumerate(exprs)
            if (w := kb.registry.consistently_less(x, y)) is not None}
    above = [sum(1 << l for l in range(len(exprs)) if (u, l) in less) for u in range(len(exprs))]

    prov: dict[tuple, tuple] = {}  # stmt -> (rule, premises, note)
    traces = _Traces(prov, props, exprs)
    rows = {kind: [0] * n for kind in ("implies", "notimplies", "lower", "upper", "exact")}
    imp, non, low, up, exact = rows.values()
    # into[j] is column j of imp; reach[i] the union of above[u] over the
    # upper bounds u of non(i)
    into, reach = [0] * n, [0] * n

    def install(stmt: tuple, rule: str, premises: tuple, note: str) -> None:
        kind, i, x = stmt
        rows[kind][i] |= 1 << x
        if kind == "implies":
            into[x] |= 1 << i
        elif kind == "upper":
            reach[i] |= above[x]
        prov[stmt] = (rule, premises, note)

    for c, cite in base.items():
        if c.kind not in rows:
            raise TaukbError(f"fact has unknown claim kind {c.kind!r}")
        try:
            x = index[c.object] if c.kind in _EDGE_KINDS else eindex[c.expr]
            stmt = (c.kind, index[c.subject], x)
        except KeyError:
            raise UnknownProperty(f"fact names an unregistered property: {c.render()}") from None
        install(stmt, "fact", (), cite)

    def check_contradiction() -> None:
        for i in range(n):
            if both := imp[i] & non[i]:
                j = next(_bits(both))
                raise Contradiction(props[i], props[j], ProofTrace(traces.steps(("implies", i, j))),
                                    ProofTrace(traces.steps(("notimplies", i, j))))

    def witness(i: int, j: int) -> tuple[int, int]:
        # the least (u, l) in rendered order, u an upper bound of non(i) and l
        # a lower bound of non(j), that some model puts strictly apart; called
        # when reach[i] & low[j]
        for u in _bits(up[i]):
            if hit := above[u] & low[j]:
                return u, next(_bits(hit))

    check_contradiction()
    iterations = 0
    max_rounds = n * n + 2
    while True:
        iterations += 1
        if iterations > max_rounds:
            raise TaukbError(f"fixpoint did not settle within {max_rounds} rounds")
        # stmt -> (rule, premises, note).  Each rule skips what is installed,
        # the rules run in the order R1..R6, and each scans the premise that
        # varies between derivations of one statement in ascending order; so
        # the first proposal of a statement is its least derivation
        new: dict[tuple, tuple] = {}

        def propose(stmt: tuple, rule: str, premises: tuple, note: str = "") -> None:
            new.setdefault(stmt, (rule, premises, note))

        if iterations == 1:
            for i in range(n):
                if not imp[i] >> i & 1:
                    propose(("implies", i, i), "R1", ())

        # R2: compose implications, through the least j
        for i in range(n):
            for j in _bits(imp[i]):
                for k in _bits(imp[j] & ~imp[i]):
                    propose(("implies", i, k), "R2", (("implies", i, j), ("implies", j, k)))

        # R3a / R3b: push non-implications against implications, R3a through
        # the least q and R3b from the least p
        for k in range(n):
            for q in _bits(non[k]):
                for p in _bits(into[q] & ~non[k]):
                    propose(("notimplies", k, p), "R3a", (("implies", p, q), ("notimplies", k, q)))
        for p in range(n):
            for q in _bits(imp[p]):
                for r in _bits(non[p] & ~non[q]):
                    propose(("notimplies", q, r), "R3b", (("implies", p, q), ("notimplies", p, r)))

        # R4: consistent strict inequality between bound sets
        for q in range(n):
            for p in range(n):
                if reach[p] & low[q] and p != q and not non[q] >> p & 1:
                    u, l = hit = witness(p, q)
                    propose(("notimplies", q, p), "R4", (("upper", p, u), ("lower", q, l)), less[hit])

        # R5: bounds ride along implications i -> j, lower bounds from the
        # least i and upper bounds from the least j
        for i in range(n):
            for j in _bits(imp[i]):
                for e in _bits(low[i] & ~low[j]):
                    propose(("lower", j, e), "R5", (("implies", i, j), ("lower", i, e)))
                for e in _bits(up[j] & ~up[i]):
                    propose(("upper", i, e), "R5", (("implies", i, j), ("upper", j, e)))

        # R6: collapse coinciding bounds to an exact value
        for i in range(n):
            for e in _bits(low[i] & up[i] & ~exact[i]):
                propose(("exact", i, e), "R6", (("lower", i, e), ("upper", i, e)))

        if not new:
            break
        for stmt, derivation in new.items():
            install(stmt, *derivation)
        check_contradiction()

    # soundness guard: no model may put an upper bound of non(P) strictly
    # below a lower bound of it
    for i, p in enumerate(props):
        if reach[i] & low[i]:
            u, l = hit = witness(i, i)
            raise TaukbError(f"interval for {p.name} is inconsistent in model {less[hit]}: "
                             f"{render_expr(exprs[l])} > {render_expr(exprs[u])}")

    matrix: dict[tuple[Property, Property], Judgment] = {}
    build = traces.steps  # one bound method, shared by every trace
    unknown = Judgment(Verdict.UNKNOWN)  # one for every Unknown cell
    for i, a in enumerate(props):
        for j, b in enumerate(props):
            if imp[i] >> j & 1:
                matrix[(a, b)] = Judgment(Verdict.IMPLIES, _LazyTrace(build, ("implies", i, j)))
            elif non[i] >> j & 1:
                matrix[(a, b)] = Judgment(Verdict.NOT_IMPLIES, _LazyTrace(build, ("notimplies", i, j)))
            else:
                matrix[(a, b)] = unknown

    def values(mask: int) -> tuple[CardinalExpr, ...]:
        return tuple(exprs[k] for k in _bits(mask))

    cards = {p: CardinalityReport(values(exact[i]), values(low[i]), values(up[i])) for i, p in enumerate(props)}
    exact_traces = {(props[i], exprs[k]): _LazyTrace(build, ("exact", i, k))
                    for i in range(n) for k in _bits(exact[i])}
    return ClosureResult(props, matrix, cards, exact_traces, iterations)


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


def derive_cardinality(result: ClosureResult, p: Property) -> CardinalityReport:
    """The closure's stored report on non(p): exact values, if it pinned any,
    plus bound sets."""
    try:
        return result.cards[p]
    except KeyError:
        raise UnknownProperty(f"{p.name} is not registered") from None


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

    Raises ReplayError on the first step that is malformed, is not a base fact
    of kb with its citation, or does not conclude exactly what its rule draws
    from its premises, with a note only on an R4 step.
    """
    concluded: list[tuple] = []
    for step in trace.steps:
        c = step.conclusion
        key = (c.kind, c.subject, c.object, c.expr) if isinstance(c, Claim) else None
        try:
            why = _step_fault(step, key, concluded, kb)
        except TypeError as e:  # an unhashable field of a fact or R1 step, or an unhashable R4 note
            why = str(e)
        if why is not None:
            try:
                shown = c.render()
            except (AttributeError, KeyError, TypeError):  # fields that do not fit its kind, or no claim
                shown = repr(c)
            raise ReplayError(f"{step.rule} step concluding {shown}: {why}")
        concluded.append(key)


def _rule_conclusion(rule: str, c: tuple, premises: list[tuple]) -> tuple | None:
    """What rule draws from premises, all (kind, subject, object, expr) tuples:
    R1 from none P -> P for the subject P of c, R2..R6 from two; None for any
    other rule, premise count or premises.  Replay reads the rules here alone."""
    if len(premises) != 2:
        return ("implies", c[1], c[1], None) if rule == "R1" and not premises else None
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


def _step_fault(step: RuleInstance, c: tuple | None, concluded: list[tuple], kb: KnowledgeBase) -> str | None:
    """Why step fails to replay after steps that concluded concluded, c being
    its own conclusion as a tuple (None if not a claim); None if it replays."""
    if c is None:
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
        return None if (step.conclusion, note) in kb._facts else "no matching base fact in the knowledge base"
    if c != _rule_conclusion(rule, c, premises):
        return f"does not match {rule}"
    if rule == "R1" and c[1] not in kb._properties:
        return "names no property of the knowledge base"
    if rule != "R4":
        return None if note == "" else f"carries the note {note!r}, which only fact and R4 steps have"
    (_, _, _, u), (_, _, _, l) = premises
    try:
        model = kb.registry.get(note)
        witnessed = eval_expr(u, model) < eval_expr(l, model)
    except TaukbError as e:  # no such model, or it leaves an atom unassigned
        return str(e)
    return None if witnessed else f"model {model.name} does not witness {render_expr(u)} < {render_expr(l)}"


def replay_all(result: ClosureResult, kb: KnowledgeBase) -> int:
    """Replay every non-Unknown cell's trace; returns the number replayed."""
    count = 0
    for (a, b), judgment in result.matrix.items():
        if judgment.verdict is Verdict.UNKNOWN:
            continue
        final = judgment.trace.steps[-1].conclusion if judgment.trace.steps else None
        want = "implies" if judgment.verdict is Verdict.IMPLIES else "notimplies"
        if not isinstance(final, Claim) or (final.kind, final.subject, final.object, final.expr) != (want, a, b, None):
            raise ReplayError(f"trace for ({a.name}, {b.name}) does not conclude the cell")
        replay_trace(judgment.trace, kb)
        count += 1
    return count
