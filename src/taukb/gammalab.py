"""The gamma lab's witness verifiers, array and family builders and family file
writer, which no command runs; taukb.gamma forwards three of these names."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from . import BadShape
from .gamma import Diagonalizer, GammaArray, GammaFamily, Row, Selector, _mask, _shape


def array(rows: list[tuple[str, int]]) -> GammaArray:
    return GammaArray(tuple(Row(w, t) for w, t in rows))


def family(*arrays: GammaArray) -> GammaFamily:
    return GammaFamily(tuple(arrays))


def _fits(members, per_row, what: str, columns, col_bound: int) -> None:
    """BadShape unless the members share a row count, per_row has one entry per
    row (any count fits no members), and each of columns is in range(col_bound).
    what is the message's subject, with {} for the number of entries."""
    rows = _shape(members)[0]
    if members and len(per_row) != rows:
        raise BadShape(f"{what.format(len(per_row))} for {rows} rows")
    for m in columns:
        if not (0 <= m < col_bound):
            raise BadShape(f"column {m} outside bound {col_bound}")


def verify_selector(fam, selector: Selector, col_bound: int) -> bool:
    """Check conditions (a) and (b) for the selector against the family."""
    members, (sets, hit_quota, exceptions) = tuple(fam), selector
    _fits(members, sets, "selector has {} sets", (m for f in sets for m in f), col_bound)
    sets = tuple(map(_mask, sets))  # one column mask per row
    # (a): each member hits a selected column in at least hit_quota rows
    for a in members:
        if sum(1 for r, f in zip(a.rows, sets) if r.bits & f) < hit_quota:
            return False
    # (b): each ordered pair is comparable on F_n in one direction, with at
    # most `exceptions` bad rows for that direction.  The test reads the same
    # for (a, b) and (b, a), so each unordered pair, a member with itself
    # included, is checked once
    for a, b in combinations_with_replacement(members, 2):
        if (sum(1 for ra, rb, f in zip(a.rows, b.rows, sets) if ra.bits & ~rb.bits & f) > exceptions
                and sum(1 for ra, rb, f in zip(a.rows, b.rows, sets) if rb.bits & ~ra.bits & f) > exceptions):
            return False
    return True


def verify_diagonalizer(fam, g: Diagonalizer, col_bound: int) -> bool:
    """True iff every member has a 1 at (n, g(n)) for some row n."""
    members = tuple(fam)
    _fits(members, g.choices, "diagonalizer has {} choices", g.choices, col_bound)
    return all(any(r.bits >> c & 1 for r, c in zip(a.rows, g.choices)) for a in members)


def random_gamma_family(seed: int, rows: int, col_bound: int, count: int,
                        zero_density: float) -> GammaFamily:
    """Deterministic-in-seed family of gamma arrays.

    Words have length up to col_bound with 0s placed independently at the
    given density; tails are always 1.
    """
    rng = random.Random(seed)
    members = []
    for _ in range(count):
        arr_rows = []
        for _ in range(rows):
            length = rng.randint(0, col_bound)
            word = "".join("0" if rng.random() < zero_density else "1" for _ in range(length))
            arr_rows.append(Row(word, 1))
        members.append(GammaArray(tuple(arr_rows)))
    return GammaFamily(tuple(members))


def render_family_file(arrays: list[GammaArray]) -> str:
    blocks = []
    for a in arrays:
        blocks.append("\n".join(f"{r.word}/{r.tail}" for r in a.rows))
    return "\n\n".join(blocks) + "\n"
