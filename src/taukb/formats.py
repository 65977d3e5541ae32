"""Parsers and serializers for the knowledge-base file formats.

Everything is line-oriented UTF-8 with '#' comments.  Two formats live
here: the fact DSL and the judgment-table codec.  The model registry format
is owned by taukb.models and the family file format by taukb.gamma; the
problem ledger lives in taukb.ledger, and this module re-exports some names.

Fact DSL grammar, one declaration per line:

    property <serial> "<name>" [non=<expr>]
    variant <kind> <from> <to> <borel|open|clopen> [non=<expr>]
    arrow <ref> <ref> [cite="<text>"]
    nonimp <ref> <ref> (model=<name> | cite="<text>")
    card <ref> (eq|ge|le) <expr> [cite="<text>"]
    include <path>            (double-quote a path that holds a space or '#')

    expr := atom | min{expr,expr,...} | max{expr,expr,...}
    ref  := serial integer | <kind>:<from>:<to>:<variant>

The cite=, model= and non= options come last on a line, each at most once,
in any order.  A '#' starts a comment only outside a double-quoted string.

Parse errors are aggregated into one message: every malformed line, with line
and column, and an included file's errors at its include line.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

from . import BadShape, MalformedExpr, Record, TaukbError, _forward, read_text
from .core import (SERIAL_COUNT, CoverKind, CoverVariant, Property, SelectorKind, Verdict, parse_expr,
                   render_expr)

# ---------------------------------------------------------------------------
# Fact DSL


class FactParseError(TaukbError):
    """Aggregated syntax errors: list of (line, column, message), reported on one line."""

    def __init__(self, errors: list[tuple[int, int, str]]):
        self.errors = list(errors)
        super().__init__("; ".join(f"line {l}, col {c}: {m}" for l, c, m in self.errors))


class SerialRef(NamedTuple):
    serial: int


# a structural ref is the Property it names, whose equality ignores serial and non
Ref = SerialRef | Property


def render_ref(ref: Ref) -> str:
    if isinstance(ref, SerialRef):
        return str(ref.serial)
    return ":".join((ref.kind.label, ref.source.label, ref.target.label, ref.variant.label))


class _Decl(Record):
    """A declaration, the line it was read from (0 if it was not read) and
    the include path, as written, of the file that line is in (None for the
    file load_facts was given).  Both are slots of this base, so they stay
    out of equality and hash."""

    __slots__ = ("line", "origin")

    def __init__(self, *values, line: int = 0):
        if len(values) > len(self.__slots__):  # the line given last, by position
            *values, line = values
        super().__init__(*values)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "origin", None)


class PropertyDecl(_Decl):
    __slots__ = ("serial", "kind", "source", "target", "non")

    def to_property(self) -> Property:
        return Property(self.kind, self.source, self.target, serial=self.serial, non=self.non)


class VariantDecl(_Decl):
    __slots__ = ("kind", "source", "target", "variant", "non")

    def to_property(self) -> Property:
        return Property(self.kind, self.source, self.target, self.variant, non=self.non)


class ArrowDecl(_Decl):
    __slots__ = ("src", "dst", "cite")


class NonImpDecl(_Decl):
    __slots__ = ("src", "dst", "model", "cite")


class CardDecl(_Decl):
    __slots__ = ("ref", "rel", "expr", "cite")  # rel: eq | ge | le


class IncludeDecl(_Decl):
    __slots__ = ("path",)


Decl = PropertyDecl | VariantDecl | ArrowDecl | NonImpDecl | CardDecl | IncludeDecl


class FactFile(NamedTuple):
    decls: tuple[Decl, ...]

    def without(self, predicate) -> "FactFile":
        """Copy with every declaration matching predicate dropped (ablation)."""
        return FactFile(tuple(d for d in self.decls if not predicate(d)))

    def with_decls(self, extra: list[Decl]) -> "FactFile":
        return FactFile(self.decls + tuple(extra))


_KINDS = {k.label: k for k in SelectorKind}
_COVERS = {c.label: c for c in CoverKind} | {"Tau": CoverKind.TAU}
_VARIANTS = {v.label: v for v in CoverVariant}
# "S1(Gamma,T)", in every spelling, to its coordinates
_NAMES = {f"{k}({s},{t})": (_KINDS[k], _COVERS[s], _COVERS[t])
          for k in _KINDS for s in _COVERS for t in _COVERS}

# head -> (argument count, options allowed at the end of the line, usage)
_DIRECTIVES = {
    "property": (2, ("non",), 'property <serial> "<name>" [non=<expr>]'),
    "variant": (4, ("non",), "variant <kind> <from> <to> <borel|open|clopen> [non=<expr>]"),
    "arrow": (2, ("cite",), 'arrow <ref> <ref> [cite="<text>"]'),
    "nonimp": (2, ("model", "cite"), 'nonimp <ref> <ref> (model=<name> | cite="<text>")'),
    "card": (3, ("cite",), 'card <ref> (eq|ge|le) <expr> [cite="<text>"]'),
    "include": (1, (), 'include (<path> | "<path>")'),
}

# a token, as runs of plain characters and whole quoted strings; a comment; a lone quote
_TOKEN = re.compile(r'(?:[^\s"#]|"[^"]*")+|#.*|"')


def split_line(line: str) -> list[str]:
    """The tokens of one line of a fact or model file, up to a '#' comment.

    A double-quoted string stays in its token, quotes included, as in
    cite="a b"; a '#' or a space inside it is text.
    """
    tokens = []
    for token in _TOKEN.findall(line):
        if token[0] == "#":
            break
        if token == '"':
            raise ValueError("unterminated quote")
        tokens.append(token)
    return tokens


def unquote(token: str, what: str) -> str:
    """The text inside a double-quoted token; what names the token in the error."""
    if len(token) >= 2 and token[0] == token[-1] == '"':
        return token[1:-1]
    raise ValueError(f"{what} must be double-quoted")


def quote(value: str, what: str) -> str:
    """value in double quotes, as unquote reads it back; what names the value
    in the error.  No escape exists, so a '"' or a line break is refused."""
    if '"' in value or "".join(value.splitlines()) != value:
        raise TaukbError(f"{what} {value!r} cannot be written: it holds a double quote or a line break")
    return f'"{value}"'


def bare(value: str, what: str) -> str:
    """value as it stands, if split_line reads it back as that one token;
    what names the value in the error."""
    try:
        if split_line(value) == [value]:
            return value
    except ValueError:  # a lone double quote
        pass
    raise TaukbError(f"{what} {value!r} cannot be written: it does not read back as one token")


def _model_name(value: str) -> str:
    if not value:
        raise ValueError("model= needs a model name")
    return value


_OPTION_VALUE = {"cite": lambda v: unquote(v, "cite value"), "model": _model_name, "non": parse_expr}


def _take_options(args: list[str], allowed: tuple[str, ...]) -> dict:
    """Pop the trailing key=value tokens whose key is allowed, each key at most once."""
    options: dict = {}
    while args:
        key, eq, value = args[-1].partition("=")
        if not eq or key not in allowed:
            break
        if key in options:
            raise ValueError(f"{key}= given twice")
        options[key] = _OPTION_VALUE[key](value)
        args.pop()
    return options


def _struct(kind: str, src: str, tgt: str, var: str) -> Property:
    if kind not in _KINDS or src not in _COVERS or tgt not in _COVERS or var not in _VARIANTS:
        raise ValueError(f"bad property coordinates {kind} {src} {tgt} {var}")
    return Property(_KINDS[kind], _COVERS[src], _COVERS[tgt], _VARIANTS[var])


def parse_ref(token: str) -> Ref:
    if token.isdecimal():
        return SerialRef(int(token))
    parts = token.split(":")
    if len(parts) != 4:
        raise ValueError(f"ref must be a serial or kind:from:to:variant, got {token!r}")
    return _struct(*parts)


def parse_facts(text: str) -> FactFile:
    """Parse fact DSL text; raises FactParseError listing every bad line."""
    errors: list[tuple[int, int, str]] = []
    decls: list[Decl] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = split_line(raw)
            if tokens:
                decls.append(_parse_decl(tokens[0], tokens[1:], lineno))
        except (ValueError, MalformedExpr) as e:
            errors.append((lineno, len(raw) - len(raw.lstrip()) + 1, str(e)))
    if errors:
        raise FactParseError(errors)
    return FactFile(tuple(decls))


def _parse_decl(head: str, args: list[str], line: int) -> Decl:
    if head not in _DIRECTIVES:
        raise ValueError(f"unknown declaration {head!r}")
    arity, allowed, usage = _DIRECTIVES[head]
    options = _take_options(args, allowed)
    if len(args) != arity:
        raise ValueError(f"expected: {usage}")
    if head == "property":
        if not args[0].isdecimal() or int(args[0]) >= SERIAL_COUNT:
            raise ValueError(f"serial must be an integer in 0..{SERIAL_COUNT - 1}, got {args[0]!r}")
        name = unquote(args[1], "property name")
        if name not in _NAMES:
            raise ValueError(f"property name must look like S1(Gamma,Omega), got {args[1]}")
        return PropertyDecl(int(args[0]), *_NAMES[name], options.get("non"), line)
    if head == "variant":
        s = _struct(*args)
        return VariantDecl(s.kind, s.source, s.target, s.variant, options.get("non"), line)
    if head == "arrow":
        return ArrowDecl(parse_ref(args[0]), parse_ref(args[1]), options.get("cite"), line)
    if head == "nonimp":
        if not options:
            raise ValueError("nonimp needs a model= or cite= justification")
        return NonImpDecl(parse_ref(args[0]), parse_ref(args[1]), options.get("model"),
                          options.get("cite"), line)
    if head == "card":
        if args[1] not in ("eq", "ge", "le"):
            raise ValueError(f"relation must be eq, ge or le, got {args[1]!r}")
        return CardDecl(parse_ref(args[0]), args[1], parse_expr(args[2]), options.get("cite"), line)
    path = args[0]
    return IncludeDecl(unquote(path, "include path") if path.startswith('"') else path, line)


def render_decl(d: Decl) -> str:
    if isinstance(d, PropertyDecl):
        out = f'property {d.serial} "{d.to_property().name}"'
    elif isinstance(d, VariantDecl):
        out = f"variant {d.kind.label} {d.source.label} {d.target.label} {d.variant.label}"
    elif isinstance(d, ArrowDecl):
        out = f"arrow {render_ref(d.src)} {render_ref(d.dst)}"
    elif isinstance(d, NonImpDecl):
        out = f"nonimp {render_ref(d.src)} {render_ref(d.dst)}"
    elif isinstance(d, CardDecl):
        out = f"card {render_ref(d.ref)} {d.rel} {render_expr(d.expr)}"
    elif isinstance(d, IncludeDecl):
        plain = re.fullmatch(r'[^\s#"]+', d.path)
        return f"include {d.path if plain else quote(d.path, 'include path')}"
    else:
        raise TypeError(f"not a declaration: {d!r}")
    if getattr(d, "non", None) is not None:
        out += f" non={render_expr(d.non)}"
    if getattr(d, "model", None) is not None:
        out += f" model={bare(d.model, 'model name')}"
    if getattr(d, "cite", None) is not None:
        out += f" cite={quote(d.cite, 'cite value')}"
    return out


def render_facts(ff: FactFile) -> str:
    return "\n".join(render_decl(d) for d in ff.decls) + "\n"


def load_facts(path) -> FactFile:
    """Read a fact file from disk, resolving include declarations."""
    path = os.fspath(path)
    return _load_facts(path, (os.path.realpath(path),))


def _load_facts(path: str, chain: tuple, origin: str | None = None) -> FactFile:
    # chain: the real paths of the files being read, to refuse include cycles;
    # origin: its include path as written, on its includer's directory, normalised
    ff = parse_facts(read_text(path))
    decls: list[Decl] = []
    for d in ff.decls:
        if not isinstance(d, IncludeDecl):
            object.__setattr__(d, "origin", origin)  # d is fresh from the parse, seen by no one else
            decls.append(d)
            continue
        target = os.path.join(os.path.dirname(path), d.path)
        if (real := os.path.realpath(target)) in chain:
            raise FactParseError([(d.line, 1, f"include {d.path} forms a cycle")])
        try:
            decls.extend(_load_facts(target, chain + (real,),
                                     os.path.normpath(os.path.join(os.path.dirname(origin or ""), d.path))).decls)
        except (OSError, TaukbError) as e:  # reported at this file's include line
            why = e.strerror if isinstance(e, OSError) else e
            raise FactParseError([(d.line, 1, f"include {d.path}: {why}")]) from None
    return FactFile(tuple(decls))


def data_text(name: str) -> str:
    """The text of taukb/data/NAME, the data file installed beside this module, read as any input file is."""
    return read_text(os.path.join(os.path.dirname(__file__), "data", name))


def load_default_facts() -> FactFile:
    return parse_facts(data_text("base_facts.txt"))


# ---------------------------------------------------------------------------
# Judgment table codec


class BadSymbol(TaukbError):
    pass


class CorruptReferenceData(TaukbError):
    pass


_SYMBOL = {Verdict.IMPLIES: "+", Verdict.NOT_IMPLIES: "-", Verdict.UNKNOWN: "?"}
_VERDICT = {v: k for k, v in _SYMBOL.items()}

Grid = list[list[Verdict]]


class ReferenceTable(NamedTuple):
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
    grid, frames = parse_table(data_text("table1.txt"))
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


# the problem ledger's names, which live in taukb.ledger
__getattr__ = _forward(globals(), {"ledger": "Open Solved PartiallySolved list_problems"})
