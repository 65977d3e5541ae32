"""Core domain types for the tau-cover Scheepers diagram knowledge base.

A *property* is a node of the diagram: a selection principle S1/Sfin/Ufin
applied to a pair of cover classes (gamma, tau, omega, or arbitrary open),
in one of three cover variants (Borel, open, clopen).  The 22 open-variant
properties of the diagram carry serial numbers 0..21 and, where known, a
critical cardinality label; Borel and clopen variants exist unnumbered so
that variant sandwich arguments can be expressed.

Cardinal expressions are terms over a fixed set of cardinal characteristic
atoms, closed under min and max.  Facts, judgments, and proof traces are the
currency of the inference engine; they are all immutable.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field


class TaukbError(Exception):
    """Base class for all errors raised by this package."""


class MalformedExpr(TaukbError):
    """A min/max node has fewer than two children after flattening."""


class UnknownSerial(TaukbError):
    """Serial number outside 0..21."""


class UnknownProperty(TaukbError):
    """Reference to a property that is not registered."""


class BadShape(TaukbError):
    """Data does not have the expected shape: a table that is not 22x22, a
    selector or diagonalizer that does not fit its family, a family whose
    members disagree."""


# ---------------------------------------------------------------------------
# Diagram coordinates


class SelectorKind(enum.IntEnum):
    S1 = 0
    SFIN = 1
    UFIN = 2

    @property
    def label(self) -> str:
        return _SELECTOR_LABELS[self]


_SELECTOR_LABELS = {SelectorKind.S1: "S1", SelectorKind.SFIN: "Sfin", SelectorKind.UFIN: "Ufin"}


class CoverKind(enum.IntEnum):
    """Cover classes in inclusion order: gamma covers are the scarcest."""

    GAMMA = 0
    TAU = 1
    OMEGA = 2
    O = 3

    @property
    def label(self) -> str:
        return _COVER_LABELS[self]


_COVER_LABELS = {CoverKind.GAMMA: "Gamma", CoverKind.TAU: "T", CoverKind.OMEGA: "Omega", CoverKind.O: "O"}


class CoverVariant(enum.IntEnum):
    """Borel covers include open covers include clopen covers."""

    BOREL = 0
    OPEN = 1
    CLOPEN = 2

    @property
    def label(self) -> str:
        return self.name.lower()


# ---------------------------------------------------------------------------
# Cardinal expressions


class CardinalAtom(enum.Enum):
    ALEPH1 = "aleph1"
    P = "p"
    T = "t"
    H = "h"
    S = "s"
    G = "g"
    B = "b"
    D = "d"
    U = "u"
    COV_M = "cov(M)"
    OD = "od"
    C = "c"

    def __str__(self) -> str:
        return self.value


_ATOM_ALIASES = {a.value: a for a in CardinalAtom}
_ATOM_ALIASES["covM"] = CardinalAtom.COV_M


@dataclass(frozen=True)
class Atom:
    atom: CardinalAtom


@dataclass(frozen=True)
class Min:
    args: tuple["CardinalExpr", ...]


@dataclass(frozen=True)
class Max:
    args: tuple["CardinalExpr", ...]


CardinalExpr = Atom | Min | Max


def atom(name: str | CardinalAtom) -> Atom:
    """Build an Atom from a CardinalAtom or its rendered name ('covM' accepted)."""
    if isinstance(name, CardinalAtom):
        return Atom(name)
    try:
        return Atom(_ATOM_ALIASES[name])
    except KeyError:
        raise MalformedExpr(f"unknown cardinal atom {name!r}") from None


def render_expr(e: CardinalExpr) -> str:
    if isinstance(e, Atom):
        return e.atom.value
    inner = ",".join(render_expr(a) for a in e.args)
    return ("min" if isinstance(e, Min) else "max") + "{" + inner + "}"


def normalize_expr(e: CardinalExpr) -> CardinalExpr:
    """Canonical form: flatten nested min/min and max/max, dedupe, sort children.

    Children sort by rendered text, so min{s,b} and min{b,s} normalize to the
    same value.  A min/max that is left with a single distinct child collapses
    to that child.  Idempotent.
    """
    if isinstance(e, Atom):
        return e
    cls = type(e)
    if len(e.args) < 2:
        raise MalformedExpr(f"{cls.__name__.lower()} needs at least 2 children, got {len(e.args)}")
    flat: list[CardinalExpr] = []
    for child in e.args:
        c = normalize_expr(child)
        if isinstance(c, cls):
            flat.extend(c.args)
        else:
            flat.append(c)
    unique = sorted(set(flat), key=render_expr)
    if len(unique) == 1:
        return unique[0]
    return cls(tuple(unique))


def expr_sort_key(e: CardinalExpr) -> str:
    """Stable ordering key for deterministic iteration over expressions."""
    return render_expr(e)


def parse_expr(text: str) -> CardinalExpr:
    """Parse 'b', 'min{s,b}', 'max{b,s}', nested forms allowed. Normalizes."""
    expr, rest = _parse_expr_prefix(text.strip())
    if rest:
        raise MalformedExpr(f"trailing garbage after expression: {rest!r}")
    return normalize_expr(expr)


def _parse_expr_prefix(text: str) -> tuple[CardinalExpr, str]:
    for head, cls in (("min{", Min), ("max{", Max)):
        if text.startswith(head):
            rest = text[len(head):]
            args: list[CardinalExpr] = []
            while True:
                e, rest = _parse_expr_prefix(rest)
                args.append(e)
                if rest.startswith(","):
                    rest = rest[1:]
                    continue
                if rest.startswith("}"):
                    return cls(tuple(args)), rest[1:]
                raise MalformedExpr(f"expected ',' or '}}' in {text!r}")
    # atom: longest leading run of atom characters
    i = 0
    while i < len(text) and (text[i].isalnum() or text[i] in "()"):
        i += 1
    if i == 0:
        raise MalformedExpr(f"expected expression at {text!r}")
    return atom(text[:i]), text[i:]


# ---------------------------------------------------------------------------
# Properties


@dataclass(frozen=True)
class Property:
    """A diagram node, identified structurally by (kind, source, target, variant).

    serial and non are display metadata and do not take part in equality.
    """

    kind: SelectorKind
    source: CoverKind
    target: CoverKind
    variant: CoverVariant = CoverVariant.OPEN
    serial: int | None = field(default=None, compare=False)
    non: CardinalExpr | None = field(default=None, compare=False)

    @property
    def name(self) -> str:
        base = f"{self.kind.label}({self.source.label},{self.target.label})"
        if self.variant is CoverVariant.OPEN:
            return base
        return f"{base}[{self.variant.label}]"

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (int(self.kind), int(self.source), int(self.target), int(self.variant))

    def __repr__(self) -> str:  # keeps engine traces readable under pytest -v
        return f"Property({self.name})"


SERIAL_COUNT = 22


@functools.cache
def _figure_properties() -> tuple[Property, ...]:
    # The property lines of the embedded fact file are the one statement of
    # the 22 nodes and their labels.  They are read on first use, so that
    # importing the package reads no file.
    from .formats import PropertyDecl, load_default_facts

    decls = sorted((d for d in load_default_facts().decls if isinstance(d, PropertyDecl)),
                   key=lambda d: d.serial)
    if [d.serial for d in decls] != list(range(SERIAL_COUNT)):
        raise TaukbError(f"embedded facts must declare each serial 0..{SERIAL_COUNT - 1} once")
    return tuple(d.to_property() for d in decls)


def __getattr__(name: str):
    # FIGURE_PROPERTIES: the 22 diagram properties in serial order
    if name == "FIGURE_PROPERTIES":
        return _figure_properties()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def property_by_serial(n: int) -> Property:
    """The unique open-variant diagram property with serial n (0..21), as
    declared in the embedded fact file."""
    if not isinstance(n, int) or n < 0 or n >= SERIAL_COUNT:
        raise UnknownSerial(f"serial must be in 0..{SERIAL_COUNT - 1}, got {n!r}")
    return _figure_properties()[n]


# ---------------------------------------------------------------------------
# Facts


@dataclass(frozen=True)
class Arrow:
    """A provable implication src -> dst."""

    src: Property
    dst: Property
    source: str


@dataclass(frozen=True)
class NonImp:
    """A consistent non-implication src -/-> dst, witnessed or cited."""

    src: Property
    dst: Property
    witness: str  # model name or citation text
    source: str


@dataclass(frozen=True)
class NonValue:
    """non(prop) equals expr exactly."""

    prop: Property
    expr: CardinalExpr
    source: str


@dataclass(frozen=True)
class NonLower:
    """expr is a lower bound of non(prop)."""

    prop: Property
    expr: CardinalExpr
    source: str


@dataclass(frozen=True)
class NonUpper:
    """expr is an upper bound of non(prop)."""

    prop: Property
    expr: CardinalExpr
    source: str


Fact = Arrow | NonImp | NonValue | NonLower | NonUpper


# ---------------------------------------------------------------------------
# Judgments and proof traces


class Verdict(enum.Enum):
    IMPLIES = "Implies"
    NOT_IMPLIES = "NotImplies"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Claim:
    """A single engine statement: an implication edge, a non-implication,
    or a cardinality bound non(subject) >=/<=/= expr."""

    kind: str  # implies | notimplies | lower | upper | exact
    subject: Property
    object: Property | None = None
    expr: CardinalExpr | None = None

    def render(self) -> str:
        if self.kind == "implies":
            return f"{self.subject.name} -> {self.object.name}"
        if self.kind == "notimplies":
            return f"{self.subject.name} -/-> {self.object.name}"
        op = {"lower": ">=", "upper": "<=", "exact": "="}[self.kind]
        return f"non({self.subject.name}) {op} {render_expr(self.expr)}"


@dataclass(frozen=True)
class RuleInstance:
    """One trace step: rule id, premise step indices, conclusion.

    Base facts enter as rule 'fact' with no premises; note carries the fact
    citation, or the witnessing model name for R4 steps.
    """

    rule: str
    premises: tuple[int, ...]
    conclusion: Claim
    note: str = ""


@dataclass(frozen=True)
class ProofTrace:
    steps: tuple[RuleInstance, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def rules_used(self) -> set[str]:
        return {s.rule for s in self.steps}


EMPTY_TRACE = ProofTrace()


@dataclass(frozen=True)
class Judgment:
    verdict: Verdict
    trace: ProofTrace = EMPTY_TRACE
