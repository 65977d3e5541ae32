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

from functools import cached_property, lru_cache
from typing import NamedTuple

from . import Contradiction, TaukbError, UnknownProperty, _forward, formats
from .core import CardinalExpr, Claim, Judgment, ProofTrace, Property, Verdict, normalize_expr, render_expr
from .models import ModelRegistry, load_default_registry


class KnowledgeBase:
    """A resolved fact base: its properties in canonical order, its base
    facts, and the registry that R4 and replay consult."""

    def __init__(self, properties, facts, registry):
        self.properties: tuple[Property, ...] = properties
        self.facts: tuple[tuple[Claim, str], ...] = facts  # (claim, citation) per base fact
        self.registry: ModelRegistry = registry
        self._facts: dict[Claim, set[str]] = {}  # each claim's citations: close() cites the least, replay any
        for c, cite in facts:
            self._facts.setdefault(c, set()).add(cite)
        self._index = {p: i for i, p in enumerate(properties)}  # and R1 steps; close() numbers properties by it


def build_knowledge_base(fact_file: formats.FactFile, registry: ModelRegistry) -> KnowledgeBase:
    """Resolve a parsed fact file against a registry into a validated KB.

    Each fact line becomes the claims it asserts, each with the citation its
    trace step carries: an arrow gives implies, a nonimp gives notimplies,
    and a card line gives lower (ge), upper (le) or both (eq).  Include
    declarations must already be resolved, as load_facts does.
    """
    props: dict[Property, Property] = {}
    by_serial: dict[int, Property] = {}
    places: dict[Property, str] = {}  # each declared property's place
    models = {m.name for m in registry}
    errors: list[str] = []

    def place(d: formats.Decl) -> str:  # where d was read, as an error names it
        return f"line {d.line}" if d.origin is None else f"include {d.origin}: line {d.line}"

    def cite(d: formats.Decl) -> str:  # d's citation, by default the file and line it was read from
        return d.cite or f"{d.origin or 'facts'}:{d.line}"

    for d in fact_file.decls:
        if isinstance(d, (formats.PropertyDecl, formats.VariantDecl)):
            p = d.to_property()
            taken = by_serial.get(p.serial)  # a variant's serial is None, never a key
            for what, first in ((f"property {p.name}", props.get(p)), (f"serial {p.serial}", taken)):
                if first is not None:
                    errors.append(f"{place(d)}: duplicate {what}, first declared on {places[first]}")
            if p in props or taken is not None:
                continue
            props[p], places[p] = p, place(d)
            if p.serial is not None:
                by_serial[p.serial] = p
        elif isinstance(d, formats.IncludeDecl):
            errors.append(f"{place(d)}: include {d.path} is not resolved; read the file with load_facts")

    def resolve(ref: formats.Ref, d: formats.Decl) -> Property | None:
        if isinstance(ref, formats.SerialRef):
            p = by_serial.get(ref.serial)
            if p is None:
                errors.append(f"{place(d)}: serial {ref.serial} is not declared")
            return p
        p = props.get(ref)
        if p is None:
            from .writers import render_ref  # the fact writer, which only this error loads

            errors.append(f"{place(d)}: property {render_ref(ref)} is not declared")
        return p

    facts: list[tuple[Claim, str]] = []
    for d in fact_file.decls:
        if isinstance(d, formats.ArrowDecl):
            src, dst = resolve(d.src, d), resolve(d.dst, d)
            if src is None or dst is None:
                continue
            if src == dst:
                errors.append(f"{place(d)}: arrow endpoints must be distinct")
                continue
            facts.append((Claim("implies", src, dst), cite(d)))
        elif isinstance(d, formats.NonImpDecl):
            src, dst = resolve(d.src, d), resolve(d.dst, d)
            if src is None or dst is None:
                continue
            if d.model is not None and d.model not in models:
                errors.append(f"{place(d)}: model {d.model} is not registered")
                continue
            witness = d.model if d.model is not None else d.cite
            facts.append((Claim("notimplies", src, dst), f"{d.cite or f'model {d.model}'} [{witness}]"))
        elif isinstance(d, formats.CardDecl):
            p = resolve(d.ref, d)
            if p is None:
                continue
            expr = normalize_expr(d.expr)
            kinds = {"eq": ("lower", "upper"), "ge": ("lower",), "le": ("upper",)}[d.rel]
            facts += [(Claim(k, p, expr=expr), cite(d)) for k in kinds]
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


@lru_cache(maxsize=4096)  # a closure decodes few distinct masks, most of them many times
def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask, in ascending order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


class CardinalityReport(NamedTuple):
    """What the closure knows about non(P): exact values plus bound sets."""

    exacts: tuple[CardinalExpr, ...]
    lower: tuple[CardinalExpr, ...]
    upper: tuple[CardinalExpr, ...]

    @property
    def exact(self) -> CardinalExpr | None:
        return self.exacts[0] if self.exacts else None


class _BuiltOnRead:
    """A _LazyTrace's steps, built by build(stmt) on first read into its dict, where later reads look first."""

    def __get__(self, trace, owner=None):
        return trace.__dict__.setdefault("steps", trace._build(trace._stmt))


class _LazyTrace(ProofTrace):
    """A proof trace whose steps are built on first read, by build(stmt).
    It keeps build and stmt outside the slots, so it equals, hashes and
    prints like a plain ProofTrace of its steps."""

    steps = _BuiltOnRead()

    def __init__(self, build, stmt: tuple):
        self.__dict__.update(_build=build, _stmt=stmt)  # Record's __setattr__ refuses them


class ClosureResult:
    """Immutable outcome of close(): judgment matrix, one cardinality report
    per property, traces.

    The closure keeps its implies, notimplies and exact bit rows and its
    provenance, and _cell is the one reader of a cell's bits.  matrix, a
    Judgment per ordered pair, is built through it the first time it is read;
    serial_grid, query and explain read cells through it and build none of
    matrix.  Each trace in matrix and exact_traces builds its steps from the
    provenance the first time they are read, by _traces, whose first read
    loads taukb.proofs.
    """

    def __init__(self, kb, rows, prov, exprs, cards, iterations):
        self.properties: tuple[Property, ...] = kb.properties
        self._index: dict[Property, int] = kb._index  # the KB's own index, not a copy
        # bit j of row i: properties[i] (does not) imply properties[j]; of _exact[i]: non(properties[i]) = exprs[j]
        self._implies, self._notimplies, self._exact = rows
        self._prov, self._exprs = prov, exprs  # stmt -> (rule, premises, note); the expressions, in rendered order
        self.cards: dict[Property, CardinalityReport] = cards
        self.iterations = iterations

    @cached_property
    def _traces(self):
        from .proofs import _Traces

        return _Traces(self._prov, self.properties, self._exprs)

    @cached_property
    def exact_traces(self) -> dict[tuple[Property, CardinalExpr], ProofTrace]:
        build = self._traces.steps
        return {(p, self._exprs[k]): _LazyTrace(build, ("exact", i, k))
                for i, p in enumerate(self.properties) for k in _bits(self._exact[i])}

    @cached_property
    def matrix(self) -> dict[tuple[Property, Property], Judgment]:
        matrix = {}
        build, cell = self._traces.steps, self._cell  # build: one bound method, shared by every trace
        for i, a in enumerate(self.properties):
            for j, b in enumerate(self.properties):
                stmt = cell(i, j)
                matrix[(a, b)] = Judgment(_VERDICT[stmt[0]], _LazyTrace(build, stmt)) if stmt else _UNKNOWN
        return matrix

    def serial_properties(self) -> list[Property]:
        num = [p for p in self.properties if p.serial is not None]
        return sorted(num, key=lambda p: p.serial)

    def serial_grid(self) -> list[list[Verdict]]:
        """Verdict grid over the serial-numbered properties, in serial order:
        22x22 when the fact file declares every serial."""
        cols = [self._index[p] for p in self.serial_properties()]
        return [[_VERDICT[stmt[0]] if (stmt := self._cell(i, j)) else Verdict.UNKNOWN for j in cols] for i in cols]

    def _cell(self, i: int, j: int) -> tuple | None:
        """Cell (i, j)'s statement, ("implies" or "notimplies", i, j); None if it is Unknown."""
        if self._implies[i] >> j & 1:
            return ("implies", i, j)
        if self._notimplies[i] >> j & 1:
            return ("notimplies", i, j)
        return None

    def _settled(self, p: Property, q: Property) -> tuple | None:
        """The (p, q) cell's statement, read by _cell; UnknownProperty if p or q is not in the closure."""
        try:
            i, j = self._index[p], self._index[q]
        except KeyError:
            raise UnknownProperty(f"pair ({p.name}, {q.name}) not in the matrix") from None
        return self._cell(i, j)


_UNKNOWN = Judgment(Verdict.UNKNOWN)  # one for every Unknown cell
_VERDICT = {"implies": Verdict.IMPLIES, "notimplies": Verdict.NOT_IMPLIES}  # a settled cell's kind -> its verdict


def close(kb: KnowledgeBase) -> ClosureResult:
    """Least fixpoint of rules R1..R6 over the knowledge base.

    Raises Contradiction if any ordered pair derives both verdicts; no
    partial result is produced in that case.
    """
    props = kb.properties
    n, index = len(props), kb._index
    # the closure moves and marks only the expressions the base facts name
    exprs = sorted({c.expr for c in kb._facts if c.expr is not None}, key=render_expr)
    eindex = {e: k for k, e in enumerate(exprs)}
    # (u, l) -> first registered model with u < l: R4's premise and the
    # interval guard's refutation; above[u] has bit l set for each such l
    less = kb.registry.less_table(exprs)
    above = [sum(1 << l for l in range(len(exprs)) if (u, l) in less) for u in range(len(exprs))]

    prov: dict[tuple, tuple] = {}  # stmt -> (rule, premises, note)
    rows = {kind: [0] * n for kind in ("implies", "notimplies", "lower", "upper", "exact")}
    imp, non, low, up, exact = rows.values()
    # under[l] has bit i set iff bit l of above[u] is set for some upper bound u of non(i)
    under = [0] * len(exprs)

    def install(stmt: tuple, derivation: tuple) -> None:
        kind, i, x = stmt
        rows[kind][i] |= 1 << x
        if kind == "upper":
            for l in _bits(above[x]):
                under[l] |= 1 << i
        prov[stmt] = derivation

    for c, cites in kb._facts.items():  # a claim stated twice carries its least citation, whatever the order
        if c.kind not in rows:
            raise TaukbError(f"fact has unknown claim kind {c.kind!r}")
        try:
            x = index[c.object] if c.kind in _EDGE_KINDS else eindex[c.expr]
            stmt = (c.kind, index[c.subject], x)
        except KeyError:
            raise UnknownProperty(f"fact names an unregistered property: {c.render()}") from None
        install(stmt, ("fact", (), min(cites)))

    def witness(i: int, j: int) -> tuple[int, int]:
        # the least (u, l) in rendered order, u an upper bound of non(i) and l
        # a lower bound of non(j), that some model puts strictly apart; called
        # when bit i of under[l] is set for some lower bound l of non(j)
        for u in _bits(up[i]):
            if hit := above[u] & low[j]:
                return u, _bits(hit)[0]

    # stmt -> (rule, premises, note).  Each rule skips what is installed and
    # scans the premise that varies between derivations of one statement in
    # ascending order, and propose keeps a statement's first proposal; so only
    # the order of the rules that propose one kind matters: implies from R1,
    # then R2; notimplies from R3a, then R3b, then R4, three passes in that
    # order; the bounds from R5 and exact from R6 alone.  Then the first
    # proposal is the least derivation.  R1 is proposed once, into round 1's dict
    new: dict[tuple, tuple] = {("implies", i, i): ("R1", (), "") for i in range(n) if not imp[i] >> i & 1}
    full, iterations = (1 << n) - 1, 0
    while True:  # each rule proposes only what is not installed, so a round that goes on installs something new
        for i in range(n):  # each round starts from a state with no pair judged both ways
            if both := imp[i] & non[i]:
                from .proofs import _Traces  # only a contradiction builds traces here, and loads their builder

                j, traces = _bits(both)[0], _Traces(prov, props, exprs)
                raise Contradiction(props[i], props[j], ProofTrace(traces.steps(("implies", i, j))),
                                    ProofTrace(traces.steps(("notimplies", i, j))))
        iterations += 1
        propose = new.setdefault

        # R3a: K -/-> P through the least q with P -> q and K -/-> q
        for k in range(n):
            for p in _bits(full & ~non[k]):
                if via := imp[p] & non[k]:
                    q = _bits(via)[0]
                    propose(("notimplies", k, p), ("R3a", (("implies", p, q), ("notimplies", k, q)), ""))

        # one walk of the implications p -> q: R2 through the least q, R3b
        # from the least p, R5 lower bounds from the least p and upper bounds
        # through the least q; then R6 collapses p's coinciding bounds
        for p in range(n):
            for q in _bits(imp[p]):
                if fresh := imp[q] & ~imp[p]:
                    for r in _bits(fresh):
                        propose(("implies", p, r), ("R2", (("implies", p, q), ("implies", q, r)), ""))
                if fresh := non[p] & ~non[q]:
                    for r in _bits(fresh):
                        propose(("notimplies", q, r), ("R3b", (("implies", p, q), ("notimplies", p, r)), ""))
                if fresh := low[p] & ~low[q]:
                    for e in _bits(fresh):
                        propose(("lower", q, e), ("R5", (("implies", p, q), ("lower", p, e)), ""))
                if fresh := up[q] & ~up[p]:
                    for e in _bits(fresh):
                        propose(("upper", p, e), ("R5", (("implies", p, q), ("upper", q, e)), ""))
            for e in _bits(low[p] & up[p] & ~exact[p]):
                propose(("exact", p, e), ("R6", (("lower", p, e), ("upper", p, e)), ""))

        # R4: consistent strict inequality between bound sets, for each p in
        # under[l] for some lower bound l of non(q)
        for q in range(n):
            cand = 0
            for l in _bits(low[q]):
                cand |= under[l]
            for p in _bits(cand & ~non[q] & ~(1 << q)):
                u, l = hit = witness(p, q)
                propose(("notimplies", q, p), ("R4", (("upper", p, u), ("lower", q, l)), less[hit]))

        if not new:
            break
        for stmt, derivation in new.items():
            install(stmt, derivation)
        new = {}

    # soundness guard: no model may put an upper bound of non(P) strictly
    # below a lower bound of it
    for i, p in enumerate(props):
        if any(under[l] >> i & 1 for l in _bits(low[i])):
            u, l = hit = witness(i, i)
            raise TaukbError(f"interval for {p.name} is inconsistent in model {less[hit]}: "
                             f"{render_expr(exprs[l])} > {render_expr(exprs[u])}")

    def values(mask: int) -> tuple[CardinalExpr, ...]:
        return tuple(exprs[k] for k in _bits(mask))

    cards = {p: CardinalityReport(values(exact[i]), values(low[i]), values(up[i])) for i, p in enumerate(props)}
    return ClosureResult(kb, (imp, non, exact), prov, exprs, cards, iterations)


# ---------------------------------------------------------------------------
# Queries over a closure


def query(result: ClosureResult, p: Property, q: Property) -> Judgment:
    """The cell's judgment, equal to result.matrix[(p, q)]."""
    stmt = result._settled(p, q)  # its trace reads result._traces only when its steps are read
    return Judgment(_VERDICT[stmt[0]], _LazyTrace(lambda s: result._traces.steps(s), stmt)) if stmt else _UNKNOWN


def derive_cardinality(result: ClosureResult, p: Property) -> CardinalityReport:
    """The closure's stored report on non(p): exact values, if it pinned any,
    plus bound sets."""
    try:
        return result.cards[p]
    except KeyError:
        raise UnknownProperty(f"{p.name} is not registered") from None


# the names of modules a KB command loads only if it runs them, which readers still take from here
__getattr__ = _forward(globals(), {"proofs": "explain", "reference": "diff", "replay": "replay_trace replay_all"})
