"""The paper's reference data: the diagram's properties by serial, which no
command runs, and the judgment table reader with the embedded table's checks
and the diff of two verdict grids, which only `taukb diff` runs, beside its
body.  taukb.core forwards property_by_serial, taukb.formats
load_reference_table and taukb.engine diff, each on first read."""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from . import BadShape, TaukbError, UnknownSerial, formats, read_text
from .core import SERIAL_COUNT, Property, Verdict


@functools.cache
def _figure_properties() -> tuple[Property, ...]:
    # The property lines of the embedded fact file are the one statement of
    # the 22 nodes and their labels.  They are read on first use, so that
    # importing the package reads no file.
    decls = sorted((d for d in formats.load_default_facts().decls if isinstance(d, formats.PropertyDecl)),
                   key=lambda d: d.serial)
    if [d.serial for d in decls] != list(range(SERIAL_COUNT)):
        raise TaukbError(f"embedded facts must declare each serial 0..{SERIAL_COUNT - 1} once")
    return tuple(d.to_property() for d in decls)


def property_by_serial(n: int) -> Property:
    """The unique open-variant diagram property with serial n (0..21), as
    declared in the embedded fact file."""
    if not isinstance(n, int) or n < 0 or n >= SERIAL_COUNT:
        raise UnknownSerial(f"serial must be in 0..{SERIAL_COUNT - 1}, got {n!r}")
    return _figure_properties()[n]


class BadSymbol(TaukbError):
    pass


class CorruptReferenceData(TaukbError):
    pass


class ShapeMismatch(TaukbError):
    """Judgment matrices with different index sets cannot be diffed."""


_VERDICT = {v: k for k, v in formats._SYMBOL.items()}

Grid = list[list[Verdict]]


class ReferenceTable(NamedTuple):
    grid: tuple[tuple[Verdict, ...], ...]
    frames: frozenset[tuple[int, int]]

    def verdict(self, i: int, j: int) -> Verdict:
        return self.grid[i][j]


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
    grid, frames = parse_table(formats.data_text("table1.txt"))
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


def diff_command(ctx, path):  # the body of `taukb diff`, which taukb.cli declares
    from .cli import EXIT_DIFF  # the CLI's modules, which a library reader of this module does not load
    from .kbcli import _close, _serial_grid

    grid = _serial_grid(_close(ctx))
    ref_grid = parse_table(read_text(path))[0] if path else load_reference_table().grid
    delta = diff(grid, ref_grid)
    if not delta:
        return "identical\n", [{"identical": True}]
    lines = [f"({r},{c}) computed={va} reference={vb}" for r, c, va, vb in delta]
    return ("\n".join(lines) + "\n",
            [{"row": r, "col": c, "computed": str(va), "reference": str(vb)} for r, c, va, vb in delta], EXIT_DIFF)
