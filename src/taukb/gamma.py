"""Desk-scale gamma-array diagonalization lab.

An array here is a finite encoding of an infinite 0/1 matrix: each row is a
finite word plus a tail bit that repeats forever after the word ends.  A
gamma array has tail 1 in every row (cofinitely many 1s per row); a gamma
family is a finite list of gamma arrays sharing a row count.

Two diagonalization notions are implemented with explicit finite surrogates
for the infinitary quantifiers:

* finitely tau-diagonalizable: finite column sets F_n such that (a) every
  member hits some F_n column in at least `hit_quota` rows, and (b) each
  ordered pair of members is, outside at most `exceptions` rows, pointwise
  comparable on F_n in one fixed direction.
* o-diagonalizable: a single column choice g with every member hitting a 1
  at some (n, g(n)).

The searches are exhaustive in lexicographic order, so witnesses are
deterministic; a budget guard refuses search spaces that are not desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .core import BadShape, TaukbError


class SearchSpaceTooLarge(TaukbError):
    """Exhaustive search would exceed the configured budget."""


class FamilyParseError(TaukbError):
    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        super().__init__("; ".join(f"line {l}: {m}" for l, m in errors))


DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class Row:
    word: str  # finite 0/1 prefix
    tail: int  # repeated beyond the word

    def entry(self, m: int) -> int:
        if m < len(self.word):
            return 1 if self.word[m] == "1" else 0
        return self.tail


@dataclass(frozen=True)
class GammaArray:
    rows: tuple[Row, ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def entry(self, n: int, m: int) -> int:
        return self.rows[n].entry(m)

    def max_word_length(self) -> int:
        return max((len(r.word) for r in self.rows), default=0)


def array(rows: list[tuple[str, int]]) -> GammaArray:
    return GammaArray(tuple(Row(w, t) for w, t in rows))


def is_gamma_array(a: GammaArray) -> bool:
    """True iff every row is eventually all 1s."""
    return all(r.tail == 1 for r in a.rows)


@dataclass(frozen=True)
class GammaFamily:
    members: tuple[GammaArray, ...]

    def __post_init__(self):
        counts = {m.row_count for m in self.members}
        if len(counts) > 1:
            raise BadShape(f"members disagree on row count: {sorted(counts)}")
        for m in self.members:
            if not is_gamma_array(m):
                raise BadShape("family member is not a gamma array (some tail is 0)")

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def row_count(self) -> int:
        return self.members[0].row_count if self.members else 0

    def max_word_length(self) -> int:
        return max((m.max_word_length() for m in self.members), default=0)


def family(*arrays: GammaArray) -> GammaFamily:
    return GammaFamily(tuple(arrays))


@dataclass(frozen=True)
class Selector:
    """Finite column sets F_n plus the quantifier surrogates (hit_quota, exceptions)."""

    sets: tuple[frozenset[int], ...]
    hit_quota: int  # how many rows must contain a hit, per member
    exceptions: int  # how many rows may break comparability, per ordered pair


@dataclass(frozen=True)
class Diagonalizer:
    choices: tuple[int, ...]  # g(n) per row


def _members(fam) -> tuple[GammaArray, ...]:
    if isinstance(fam, GammaFamily):
        return fam.members
    return tuple(fam)


def _mask(columns) -> int:
    return sum(1 << m for m in columns)


def _row_masks(members, rows: int, col_bound: int) -> list[tuple[int, ...]]:
    """Each member as one int per row: bit m is set iff entry (n, m) is 1, m < col_bound."""
    return [tuple(_mask(m for m in range(col_bound) if a.entry(n, m)) for n in range(rows))
            for a in members]


def _selector_ok(masks, sets: tuple[int, ...], hit_quota: int, exceptions: int) -> bool:
    """Conditions (a) and (b) for member row masks and one column-set mask per row."""
    # (a): each member hits a selected column in at least hit_quota rows
    for a in masks:
        if sum(1 for r, f in zip(a, sets) if r & f) < hit_quota:
            return False
    # (b): each ordered pair is comparable on F_n in one direction, with at
    # most `exceptions` bad rows for that direction.  The test reads the same
    # for (a, b) and (b, a), so each unordered pair, a member with itself
    # included, is checked once
    for a, b in combinations_with_replacement(masks, 2):
        if (sum(1 for ra, rb, f in zip(a, b, sets) if ra & ~rb & f) > exceptions
                and sum(1 for ra, rb, f in zip(a, b, sets) if rb & ~ra & f) > exceptions):
            return False
    return True


def _hitters(masks, rows: int, col_bound: int) -> list[tuple[int, ...]]:
    """Per row and column, the members with a 1 there, as a bitmask over members."""
    return [tuple(_mask(i for i, a in enumerate(masks) if a[n] >> c & 1) for c in range(col_bound))
            for n in range(rows)]


def _diagonalizes(hitters, choices: tuple[int, ...], everyone: int) -> bool:
    """True iff the members hit at (n, choices[n]) over all rows n are all of them."""
    hit = 0
    for row, c in zip(hitters, choices):
        hit |= row[c]
    return hit == everyone


def verify_selector(fam, selector: Selector, col_bound: int) -> bool:
    """Check conditions (a) and (b) for the selector against the family."""
    members = _members(fam)
    rows = members[0].row_count if members else len(selector.sets)
    if len(selector.sets) != rows:
        raise BadShape(f"selector has {len(selector.sets)} sets for {rows} rows")
    for f in selector.sets:
        for m in f:
            if not (0 <= m < col_bound):
                raise BadShape(f"column {m} outside bound {col_bound}")
    return _selector_ok(_row_masks(members, rows, col_bound), tuple(map(_mask, selector.sets)),
                        selector.hit_quota, selector.exceptions)


def verify_diagonalizer(fam, g: Diagonalizer, col_bound: int) -> bool:
    members = _members(fam)
    rows = members[0].row_count if members else len(g.choices)
    if len(g.choices) != rows:
        raise BadShape(f"diagonalizer has {len(g.choices)} choices for {rows} rows")
    for c in g.choices:
        if not (0 <= c < col_bound):
            raise BadShape(f"column {c} outside bound {col_bound}")
    hitters = _hitters(_row_masks(members, rows, col_bound), rows, col_bound)
    return _diagonalizes(hitters, g.choices, (1 << len(members)) - 1)


def finitely_tau_diagonalizable(fam, col_bound: int, size_bound: int,
                                hit_quota: int, exceptions: int,
                                budget: int = DEFAULT_BUDGET):
    """First selector (by size-then-lex order per row) passing verify_selector,
    or None when the exhaustive search is empty-handed."""
    members = _members(fam)
    rows = members[0].row_count if members else 0
    per_row = sum(comb(col_bound, i) for i in range(min(size_bound, col_bound) + 1))
    if per_row ** rows > budget:
        raise SearchSpaceTooLarge(f"{per_row}^{rows} selector tuples exceed budget {budget}")
    # column-set mask -> column set, in size-then-lex order
    pool = {_mask(c): frozenset(c) for size in range(min(size_bound, col_bound) + 1)
            for c in combinations(range(col_bound), size)}
    masks = _row_masks(members, rows, col_bound)
    for sets in product(pool, repeat=rows):
        if _selector_ok(masks, sets, hit_quota, exceptions):
            return Selector(tuple(pool[f] for f in sets), hit_quota, exceptions)
    return None


def o_diagonalizable(fam, col_bound: int, budget: int = DEFAULT_BUDGET):
    """Lexicographically least diagonalizer, or None after exhaustive search.

    Accepts arbitrary arrays, not only gamma families: the notion is applied
    to wider families whose exact closure properties are not pinned down
    here, so no gamma check is imposed on the input.
    """
    members = _members(fam)
    rows = members[0].row_count if members else 0
    if col_bound ** rows > budget:
        raise SearchSpaceTooLarge(f"{col_bound}^{rows} choice vectors exceed budget {budget}")
    hitters = _hitters(_row_masks(members, rows, col_bound), rows, col_bound)
    everyone = (1 << len(members)) - 1
    for choices in product(range(col_bound), repeat=rows):
        if _diagonalizes(hitters, choices, everyone):
            return Diagonalizer(choices)
    return None


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


# ---------------------------------------------------------------------------
# Family file format: one array per block, rows as "<word>/<tailbit>", blocks
# separated by blank lines, '#' comments.


def parse_family_file(text: str) -> list[GammaArray]:
    errors: list[tuple[int, str]] = []
    arrays: list[GammaArray] = []
    current: list[Row] = []

    def flush():
        nonlocal current
        if current:
            arrays.append(GammaArray(tuple(current)))
            current = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if "/" not in line:
            errors.append((lineno, f"expected <word>/<tailbit>, got {line!r}"))
            continue
        word, _, tail = line.rpartition("/")
        if word and not set(word) <= {"0", "1"}:
            errors.append((lineno, f"word must be a 0/1 string, got {word!r}"))
            continue
        if tail not in ("0", "1"):
            errors.append((lineno, f"tail bit must be 0 or 1, got {tail!r}"))
            continue
        current.append(Row(word, int(tail)))
    flush()
    if errors:
        raise FamilyParseError(errors)
    return arrays


def render_family_file(arrays: list[GammaArray]) -> str:
    blocks = []
    for a in arrays:
        blocks.append("\n".join(f"{r.word}/{r.tail}" for r in a.rows))
    return "\n\n".join(blocks) + "\n"
