"""Parsers and serializers for the knowledge-base file formats.

Everything is line-oriented UTF-8 with '#' comments.  Three formats live
here: the fact DSL, the judgment-table codec, and the problem registry data.
The model registry format is owned by taukb.models and the family file
format by taukb.gamma.

Fact DSL grammar, one declaration per line:

    property <serial> "<name>" [non=<expr>]
    variant <kind> <from> <to> <borel|open|clopen> [non=<expr>]
    arrow <ref> <ref> [cite="<text>"]
    nonimp <ref> <ref> (model=<name> | cite="<text>")
    card <ref> (eq|ge|le) <expr> [cite="<text>"]
    include <path>

    expr := atom | min{expr,expr,...} | max{expr,expr,...}
    ref  := serial integer | <kind>:<from>:<to>:<variant>

Parse errors are aggregated: every malformed line is reported with line and
column, not just the first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    BadShape,
    CardinalExpr,
    CoverKind,
    CoverVariant,
    MalformedExpr,
    Property,
    SelectorKind,
    SERIAL_COUNT,
    TaukbError,
    Verdict,
    parse_expr,
    render_expr,
)

# ---------------------------------------------------------------------------
# Fact DSL


class FactParseError(TaukbError):
    """Aggregated syntax errors: list of (line, column, message)."""

    def __init__(self, errors: list[tuple[int, int, str]]):
        self.errors = list(errors)
        super().__init__("\n".join(f"line {l}, col {c}: {m}" for l, c, m in self.errors))


@dataclass(frozen=True)
class SerialRef:
    serial: int

    def render(self) -> str:
        return str(self.serial)


@dataclass(frozen=True)
class StructRef:
    kind: SelectorKind
    source: CoverKind
    target: CoverKind
    variant: CoverVariant

    def render(self) -> str:
        return ":".join((self.kind.label, self.source.label, self.target.label, self.variant.label))


Ref = SerialRef | StructRef


@dataclass(frozen=True)
class PropertyDecl:
    serial: int
    kind: SelectorKind
    source: CoverKind
    target: CoverKind
    non: CardinalExpr | None
    line: int = field(default=0, compare=False)

    @property
    def name(self) -> str:
        return f"{self.kind.label}({self.source.label},{self.target.label})"

    def to_property(self) -> Property:
        return Property(self.kind, self.source, self.target, serial=self.serial, non=self.non)


@dataclass(frozen=True)
class VariantDecl:
    kind: SelectorKind
    source: CoverKind
    target: CoverKind
    variant: CoverVariant
    non: CardinalExpr | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ArrowDecl:
    src: Ref
    dst: Ref
    cite: str | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NonImpDecl:
    src: Ref
    dst: Ref
    model: str | None
    cite: str | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CardDecl:
    ref: Ref
    rel: str  # eq | ge | le
    expr: CardinalExpr
    cite: str | None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class IncludeDecl:
    path: str
    line: int = field(default=0, compare=False)


Decl = PropertyDecl | VariantDecl | ArrowDecl | NonImpDecl | CardDecl | IncludeDecl


@dataclass(frozen=True)
class FactFile:
    decls: tuple[Decl, ...]

    def without(self, predicate) -> "FactFile":
        """Copy with every declaration matching predicate dropped (ablation)."""
        return FactFile(tuple(d for d in self.decls if not predicate(d)))

    def with_decls(self, extra: list[Decl]) -> "FactFile":
        return FactFile(self.decls + tuple(extra))


_KINDS = {"S1": SelectorKind.S1, "Sfin": SelectorKind.SFIN, "Ufin": SelectorKind.UFIN}
_COVERS = {
    "Gamma": CoverKind.GAMMA,
    "T": CoverKind.TAU,
    "Tau": CoverKind.TAU,
    "Omega": CoverKind.OMEGA,
    "O": CoverKind.O,
}
_VARIANTS = {"borel": CoverVariant.BOREL, "open": CoverVariant.OPEN, "clopen": CoverVariant.CLOPEN}

_NAME_RE = re.compile(r"^(S1|Sfin|Ufin)\((Gamma|Tau|T|Omega|O),(Gamma|Tau|T|Omega|O)\)$")


def parse_ref(token: str) -> Ref:
    if re.fullmatch(r"\d+", token):
        return SerialRef(int(token))
    parts = token.split(":")
    if len(parts) != 4:
        raise ValueError(f"ref must be a serial or kind:from:to:variant, got {token!r}")
    kind, src, tgt, var = parts
    if kind not in _KINDS or src not in _COVERS or tgt not in _COVERS or var not in _VARIANTS:
        raise ValueError(f"bad structural ref {token!r}")
    return StructRef(_KINDS[kind], _COVERS[src], _COVERS[tgt], _VARIANTS[var])


def _split_tokens(line: str) -> list[str]:
    """Whitespace tokens, keeping double-quoted strings (and key="..." forms) intact."""
    tokens: list[str] = []
    i, n = 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        start = i
        in_quote = False
        while i < n and (in_quote or not line[i].isspace()):
            if line[i] == '"':
                in_quote = not in_quote
            i += 1
        if in_quote:
            raise ValueError("unterminated quote")
        tokens.append(line[start:i])
    return tokens


def _take_cite(tokens: list[str], errors, lineno) -> str | None:
    """Pop a trailing cite="..." token if present."""
    if tokens and tokens[-1].startswith("cite="):
        raw = tokens.pop()[len("cite="):]
        if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
            return raw[1:-1]
        errors.append((lineno, 1, "cite value must be double-quoted"))
        return None
    return None


def parse_facts(text: str) -> FactFile:
    """Parse fact DSL text; raises FactParseError listing every bad line."""
    errors: list[tuple[int, int, str]] = []
    decls: list[Decl] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        try:
            tokens = _split_tokens(line)
        except ValueError as e:
            errors.append((lineno, 1, str(e)))
            continue
        head, rest = tokens[0], tokens[1:]
        try:
            if head == "property":
                decls.append(_parse_property(rest, lineno))
            elif head == "variant":
                decls.append(_parse_variant(rest, lineno))
            elif head == "arrow":
                cite = _take_cite(rest, errors, lineno)
                if len(rest) != 2:
                    raise ValueError("expected: arrow <ref> <ref>")
                decls.append(ArrowDecl(parse_ref(rest[0]), parse_ref(rest[1]), cite, lineno))
            elif head == "nonimp":
                decls.append(_parse_nonimp(rest, lineno))
            elif head == "card":
                cite = _take_cite(rest, errors, lineno)
                if len(rest) != 3:
                    raise ValueError("expected: card <ref> (eq|ge|le) <expr>")
                if rest[1] not in ("eq", "ge", "le"):
                    raise ValueError(f"relation must be eq, ge or le, got {rest[1]!r}")
                decls.append(CardDecl(parse_ref(rest[0]), rest[1], parse_expr(rest[2]), cite, lineno))
            elif head == "include":
                if len(rest) != 1:
                    raise ValueError("expected: include <path>")
                decls.append(IncludeDecl(rest[0], lineno))
            else:
                raise ValueError(f"unknown declaration {head!r}")
        except (ValueError, MalformedExpr) as e:
            col = raw.find(head) + 1 if head in raw else 1
            errors.append((lineno, col, str(e)))
    if errors:
        raise FactParseError(errors)
    return FactFile(tuple(decls))


def _parse_property(rest: list[str], lineno: int) -> PropertyDecl:
    non = None
    if rest and rest[-1].startswith("non="):
        non = parse_expr(rest.pop()[len("non="):])
    if len(rest) != 2:
        raise ValueError('expected: property <serial> "<name>" [non=<expr>]')
    if not re.fullmatch(r"\d+", rest[0]):
        raise ValueError(f"serial must be an integer, got {rest[0]!r}")
    serial = int(rest[0])
    if serial >= SERIAL_COUNT:
        raise ValueError(f"serial out of range 0..{SERIAL_COUNT - 1}: {serial}")
    name = rest[1]
    if not (name.startswith('"') and name.endswith('"') and len(name) >= 2):
        raise ValueError("property name must be double-quoted")
    m = _NAME_RE.fullmatch(name[1:-1])
    if not m:
        raise ValueError(f"property name must look like S1(Gamma,Omega), got {name}")
    return PropertyDecl(serial, _KINDS[m.group(1)], _COVERS[m.group(2)], _COVERS[m.group(3)], non, lineno)


def _parse_variant(rest: list[str], lineno: int) -> VariantDecl:
    non = None
    if rest and rest[-1].startswith("non="):
        non = parse_expr(rest.pop()[len("non="):])
    if len(rest) != 4:
        raise ValueError("expected: variant <kind> <from> <to> <borel|open|clopen>")
    kind, src, tgt, var = rest
    if kind not in _KINDS:
        raise ValueError(f"unknown selector kind {kind!r}")
    if src not in _COVERS or tgt not in _COVERS:
        raise ValueError(f"unknown cover kind in {rest!r}")
    if var not in _VARIANTS:
        raise ValueError(f"variant must be borel, open or clopen, got {var!r}")
    return VariantDecl(_KINDS[kind], _COVERS[src], _COVERS[tgt], _VARIANTS[var], non, lineno)


def _parse_nonimp(rest: list[str], lineno: int) -> NonImpDecl:
    model = None
    cite = None
    while rest and (rest[-1].startswith("model=") or rest[-1].startswith("cite=")):
        tok = rest.pop()
        if tok.startswith("model="):
            model = tok[len("model="):]
        else:
            raw = tok[len("cite="):]
            if not (len(raw) >= 2 and raw.startswith('"') and raw.endswith('"')):
                raise ValueError("cite value must be double-quoted")
            cite = raw[1:-1]
    if len(rest) != 2:
        raise ValueError("expected: nonimp <ref> <ref> (model=<name> | cite=\"<text>\")")
    if model is None and cite is None:
        raise ValueError("nonimp needs a model= or cite= justification")
    return NonImpDecl(parse_ref(rest[0]), parse_ref(rest[1]), model, cite, lineno)


def render_decl(d: Decl) -> str:
    if isinstance(d, PropertyDecl):
        out = f'property {d.serial} "{d.name}"'
        return out + (f" non={render_expr(d.non)}" if d.non is not None else "")
    if isinstance(d, VariantDecl):
        out = f"variant {d.kind.label} {d.source.label} {d.target.label} {d.variant.label}"
        return out + (f" non={render_expr(d.non)}" if d.non is not None else "")
    if isinstance(d, ArrowDecl):
        out = f"arrow {d.src.render()} {d.dst.render()}"
        return out + (f' cite="{d.cite}"' if d.cite is not None else "")
    if isinstance(d, NonImpDecl):
        out = f"nonimp {d.src.render()} {d.dst.render()}"
        if d.model is not None:
            out += f" model={d.model}"
        if d.cite is not None:
            out += f' cite="{d.cite}"'
        return out
    if isinstance(d, CardDecl):
        out = f"card {d.ref.render()} {d.rel} {render_expr(d.expr)}"
        return out + (f' cite="{d.cite}"' if d.cite is not None else "")
    if isinstance(d, IncludeDecl):
        return f"include {d.path}"
    raise TypeError(f"not a declaration: {d!r}")


def render_facts(ff: FactFile) -> str:
    return "\n".join(render_decl(d) for d in ff.decls) + "\n"


def load_facts(path) -> FactFile:
    """Read a fact file from disk, resolving include declarations."""
    from pathlib import Path

    path = Path(path)
    return _load_facts(path, (path.resolve(),))


def _load_facts(path, chain: tuple) -> FactFile:
    # chain: the resolved paths of the files being read, to refuse include cycles
    ff = parse_facts(path.read_text(encoding="utf-8"))
    decls: list[Decl] = []
    for d in ff.decls:
        if not isinstance(d, IncludeDecl):
            decls.append(d)
            continue
        target = path.parent / d.path
        if target.resolve() in chain:
            raise FactParseError([(d.line, 1, f"include {d.path} forms a cycle")])
        try:
            decls.extend(_load_facts(target, chain + (target.resolve(),)).decls)
        except OSError as e:
            raise FactParseError([(d.line, 1, f"include {d.path}: {e.strerror}")]) from None
    return FactFile(tuple(decls))


def load_default_facts() -> FactFile:
    from importlib.resources import files

    text = files("taukb.data").joinpath("base_facts.txt").read_text(encoding="utf-8")
    return parse_facts(text)


# ---------------------------------------------------------------------------
# Judgment table codec


class BadSymbol(TaukbError):
    pass


class CorruptReferenceData(TaukbError):
    pass


_SYMBOL = {Verdict.IMPLIES: "+", Verdict.NOT_IMPLIES: "-", Verdict.UNKNOWN: "?"}
_VERDICT = {v: k for k, v in _SYMBOL.items()}

Grid = list[list[Verdict]]


@dataclass(frozen=True)
class ReferenceTable:
    grid: tuple[tuple[Verdict, ...], ...]
    frames: frozenset[tuple[int, int]]

    def verdict(self, i: int, j: int) -> Verdict:
        return self.grid[i][j]


def render_table(grid, frames: set[tuple[int, int]] | None = None) -> str:
    """Serial-indexed square of '+', '-', '?'; one row per line.

    With frames given, each row with framed cells is followed by a line
    'frames <col> <col> ...' naming the framed column indices.
    """
    n = len(grid)
    if n != SERIAL_COUNT or any(len(row) != n for row in grid):
        raise BadShape(f"expected a {SERIAL_COUNT}x{SERIAL_COUNT} matrix")
    lines = []
    for i, row in enumerate(grid):
        lines.append("".join(_SYMBOL[v] for v in row))
        if frames:
            cols = sorted(c for (r, c) in frames if r == i)
            if cols:
                lines.append("frames " + " ".join(str(c) for c in cols))
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> tuple[Grid, set[tuple[int, int]]]:
    """Inverse of render_table; '#' comments and blank lines are skipped."""
    grid: Grid = []
    frames: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("frames"):
            if not grid:
                raise BadShape(f"line {lineno}: frames line before any row")
            row = len(grid) - 1
            for tok in line.split()[1:]:
                if not re.fullmatch(r"\d+", tok) or int(tok) >= SERIAL_COUNT:
                    raise BadShape(f"line {lineno}: bad frame column {tok!r}")
                frames.add((row, int(tok)))
            continue
        if len(line) != SERIAL_COUNT:
            raise BadShape(f"line {lineno}: expected {SERIAL_COUNT} symbols, got {len(line)}")
        row_verdicts = []
        for ch in line:
            if ch not in _VERDICT:
                raise BadSymbol(f"line {lineno}: bad symbol {ch!r}")
            row_verdicts.append(_VERDICT[ch])
        grid.append(row_verdicts)
    if len(grid) != SERIAL_COUNT:
        raise BadShape(f"expected {SERIAL_COUNT} rows, got {len(grid)}")
    return grid, frames


def load_reference_table() -> ReferenceTable:
    """The embedded known-implications table, structurally checked at load."""
    from importlib.resources import files

    text = files("taukb.data").joinpath("table1.txt").read_text(encoding="utf-8")
    grid, frames = parse_table(text)
    ref = ReferenceTable(tuple(tuple(r) for r in grid), frozenset(frames))
    for i in range(SERIAL_COUNT):
        if ref.grid[i][i] is not Verdict.IMPLIES:
            raise CorruptReferenceData(f"diagonal cell ({i},{i}) is not Implies")
    unknown = sum(row.count(Verdict.UNKNOWN) for row in ref.grid)
    if unknown != 55:
        raise CorruptReferenceData(f"expected 55 Unknown cells, found {unknown}")
    if len(ref.frames) != 21:
        raise CorruptReferenceData(f"expected 21 framed cells, found {len(ref.frames)}")
    for (r, c) in ref.frames:
        if ref.grid[r][c] is not Verdict.NOT_IMPLIES:
            raise CorruptReferenceData(f"framed cell ({r},{c}) is not NotImplies")
    return ref


# ---------------------------------------------------------------------------
# Problem registry


@dataclass(frozen=True)
class Open:
    pass


@dataclass(frozen=True)
class Solved:
    answer: str
    credit: str


@dataclass(frozen=True)
class PartiallySolved:
    note: str


ProblemStatus = Open | Solved | PartiallySolved


@dataclass(frozen=True)
class ProblemEntry:
    issue: int
    statement: str
    status: ProblemStatus


# Monthly-problem ledger: one entry per past issue, plus the current
# problem of the month (issue 10) on whether cov(M) = od.
PROBLEMS: tuple[ProblemEntry, ...] = (
    ProblemEntry(1, "Is (Omega choose Gamma) = (Omega choose T)?", Open()),
    ProblemEntry(2, "Is Ufin(Gamma,Omega) = Sfin(Gamma,Omega)? If not, does Ufin(Gamma,Gamma) imply Sfin(Gamma,Omega)?", Open()),
    ProblemEntry(3, "Does there exist (in ZFC) a set satisfying Ufin(O,O) but not Ufin(O,Gamma)?", Solved("Yes", "Lubomyr Zdomsky")),
    ProblemEntry(4, "Does S1(Omega,T) imply Ufin(Gamma,Gamma)?", Open()),
    ProblemEntry(5, "Is p = p*?", Open()),
    ProblemEntry(6, "Does there exist (in ZFC) an uncountable set satisfying S1(Gamma,O)[borel]?", Open()),
    ProblemEntry(7, "If X has strong measure zero and |X| < b, must all finite powers of X have strong measure zero?", Solved("Yes", "Scheepers; Bartoszyński")),
    ProblemEntry(8, "Do X not in NON(M) and Y not in D imply that X union Y is not in COF(M)?", Open()),
    ProblemEntry(9, "Is Split(Lambda,Lambda) preserved under taking finite unions?", PartiallySolved("consistently yes")),
    ProblemEntry(10, "Problem of the month: Is cov(M) = od?", Open()),
)


def list_problems() -> list[ProblemEntry]:
    """All monthly problems in issue order, current problem of the month last."""
    return list(PROBLEMS)


def render_problem(p: ProblemEntry) -> str:
    if isinstance(p.status, Solved):
        status = f"solved: {p.status.answer} ({p.status.credit})"
    elif isinstance(p.status, PartiallySolved):
        status = f"partially solved: {p.status.note}"
    else:
        status = "open"
    return f"issue {p.issue}: {p.statement} [{status}]"
