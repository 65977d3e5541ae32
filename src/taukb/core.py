"""Core domain types for the tau-cover Scheepers diagram knowledge base.

A *property* is a node of the diagram: a selection principle S1/Sfin/Ufin
applied to a pair of cover classes (gamma, tau, omega, or arbitrary open),
in one of three cover variants (Borel, open, clopen).  The 22 open-variant
properties of the diagram carry serial numbers 0..21 and, where known, a
critical cardinality label; Borel and clopen variants exist unnumbered so
that variant sandwich arguments can be expressed.

Cardinal expressions are terms over a fixed set of cardinal characteristic
atoms, closed under min and max.  Claims, judgments, and proof traces are the
currency of the inference engine; they are all immutable.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

# the errors and Record live in the package, which the gamma path loads without core; callers read
# TaukbError and UnknownSerial from core too
from . import MalformedExpr, Record, TaukbError, UnknownSerial, _forward


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

    # members are singletons that compare by identity: skip Enum's Python-level hash
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self._value_


_ATOM_ALIASES = {a.value: a for a in CardinalAtom}
_ATOM_ALIASES["covM"] = CardinalAtom.COV_M


# An expression leaf is the CardinalAtom member itself; Atom(a) is a.
Atom = CardinalAtom


class Min(Record):
    __slots__ = ("args",)  # the children, a tuple of CardinalExpr


class Max(Record):
    __slots__ = ("args",)


CardinalExpr = CardinalAtom | Min | Max


def atom(name: str) -> CardinalAtom:
    """The CardinalAtom its rendered name names ('covM' accepted)."""
    try:
        return _ATOM_ALIASES[name]
    except KeyError:
        raise MalformedExpr(f"unknown cardinal atom {name!r}") from None


def render_expr(e: CardinalExpr) -> str:
    if isinstance(e, CardinalAtom):
        return e._value_  # the member's own attribute; Enum's value property is a Python-level call
    inner = ",".join(render_expr(a) for a in e.args)
    return ("min" if isinstance(e, Min) else "max") + "{" + inner + "}"


def normalize_expr(e: CardinalExpr) -> CardinalExpr:
    """Canonical form: flatten nested min/min and max/max, dedupe, sort children.

    Children sort by rendered text, so min{s,b} and min{b,s} normalize to the
    same value.  A min/max that is left with a single distinct child collapses
    to that child.  Idempotent.
    """
    if isinstance(e, CardinalAtom):
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


_DEPTH = 32  # the most min/max levels parse_expr takes: rendering recurses twice per level


@functools.lru_cache(maxsize=1024)  # pure, and an expression is immutable: fact and registry files repeat them
def parse_expr(text: str) -> CardinalExpr:
    """Parse 'b', 'min{s,b}', 'max{b,s}', nested forms allowed up to _DEPTH levels. Normalizes."""
    text = text.strip()
    if text in _ATOM_ALIASES:  # a bare atom, the commonest expression
        return _ATOM_ALIASES[text]
    expr, rest = _parse_expr_prefix(text, _DEPTH)
    if rest:
        raise MalformedExpr(f"trailing garbage after expression: {rest!r}")
    return normalize_expr(expr)


def _parse_expr_prefix(text: str, depth: int) -> tuple[CardinalExpr, str]:  # depth: the levels left
    for head, cls in (("min{", Min), ("max{", Max)):
        if text.startswith(head):
            if not depth:
                raise MalformedExpr(f"expression nests deeper than {_DEPTH} levels")
            rest = text[len(head):]
            args: list[CardinalExpr] = []
            while True:
                e, rest = _parse_expr_prefix(rest, depth - 1)
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


class _Labels(Record):
    __slots__ = ("serial", "non", "name", "_hash")  # a property's labels and hash, out of its equality


class Property(_Labels):
    """A diagram node, identified structurally by (kind, source, target, variant).

    serial and non are display metadata and do not take part in equality;
    it hashes like the tuple of its four coordinates.
    """

    __slots__ = ("kind", "source", "target", "variant")

    def __init__(self, kind: SelectorKind, source: CoverKind, target: CoverKind,
                 variant: CoverVariant = CoverVariant.OPEN, serial: int | None = None,
                 non: CardinalExpr | None = None):
        name = f"{kind.label}({source.label},{target.label})"
        if variant is not CoverVariant.OPEN:
            name = f"{name}[{variant.label}]"
        key = (kind, source, target, variant)  # the fields, as _key() reads them back
        for slot, value in zip(self.__slots__ + _Labels.__slots__, (*key, serial, non, name, hash(key))):
            object.__setattr__(self, slot, value)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (int(self.kind), int(self.source), int(self.target), int(self.variant))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # keeps engine traces readable under pytest -v
        return f"Property({self.name})"


SERIAL_COUNT = 22


# ---------------------------------------------------------------------------
# Judgments and proof traces


class Verdict(enum.Enum):
    IMPLIES = "Implies"
    NOT_IMPLIES = "NotImplies"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self._value_


class Claim(NamedTuple):
    """A single engine statement: an implication edge, a non-implication,
    or a cardinality bound non(subject) >=/<=/= expr.  Base facts and
    derived statements are both claims."""

    kind: str  # implies | notimplies | lower | upper | exact
    subject: Property
    object: Property | None = None
    expr: CardinalExpr | None = None

    def render(self) -> str:
        if self.kind == "implies":
            return f"{self.subject.name} -> {self.object.name}"
        if self.kind == "notimplies":
            return f"{self.subject.name} -/-> {self.object.name}"
        return f"non({self.subject.name}) {_BOUND_OPS[self.kind]} {render_expr(self.expr)}"


_BOUND_OPS = {"lower": ">=", "upper": "<=", "exact": "="}


class RuleInstance(NamedTuple):
    """One trace step: rule id, premise step indices, conclusion.

    Base facts enter as rule 'fact' with no premises; note carries the fact
    citation, or the witnessing model name for R4 steps.
    """

    rule: str
    premises: tuple[int, ...]
    conclusion: Claim
    note: str = ""


class ProofTrace(Record):
    __slots__ = ("steps",)  # tuple of RuleInstance

    def __init__(self, steps: tuple[RuleInstance, ...] = ()):
        super().__init__(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def rules_used(self) -> set[str]:
        return {s.rule for s in self.steps}


EMPTY_TRACE = ProofTrace()


class Judgment(NamedTuple):
    verdict: Verdict
    trace: ProofTrace = EMPTY_TRACE


# the one name of taukb.reference that readers still take from here
__getattr__ = _forward(globals(), {"reference": "property_by_serial"})
