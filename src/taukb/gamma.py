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

Both searches walk the rows depth first, each row's candidates in lexicographic
order, so a witness is the first passing tuple of the full product.  A prefix of
rows leaves a state (tau: hits per member capped at `hit_quota`, bad rows per
ordered pair of distinct members capped at `exceptions` + 1; o: the members hit);
hopeless states are pruned and failed ones remembered.  A budget guard, run first,
refuses a nominal space (candidates per row ** rows) that is not desk scale.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from . import DEFAULT_BUDGET, BadShape, Record, TaukbError, _forward, read_text


class SearchSpaceTooLarge(TaukbError):
    """Exhaustive search would exceed the configured budget."""


class FamilyParseError(TaukbError):
    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        super().__init__("; ".join(f"line {l}: {m}" for l, m in errors))


class Row(Record):
    # a finite 0/1 prefix, the bit repeated beyond it, and the whole row as one
    # int: bit m of bits is entry m for every m, so a tail of 1 makes it negative
    __slots__ = ("word", "tail", "bits")

    def __init__(self, word: str, tail: int):
        # bits reads the word as a binary numeral
        if word.strip("01") or tail not in (0, 1):
            raise BadShape(f"row must be a 0/1 word and a 0/1 tail, got {word!r} and {tail!r}")
        super().__init__(word, tail, int(word[::-1] or "0", 2) | -(tail << len(word)))

    def entry(self, m: int) -> int:
        return self.bits >> m & 1


class GammaArray(Record):
    __slots__ = ("rows",)  # tuple of Row

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def entry(self, n: int, m: int) -> int:
        return self.rows[n].entry(m)


def is_gamma_array(a: GammaArray) -> bool:
    """True iff every row is eventually all 1s."""
    return all(r.tail == 1 for r in a.rows)


class GammaFamily(Record):
    __slots__ = ("members",)  # tuple of GammaArray

    def __init__(self, members: tuple[GammaArray, ...]):
        _shape(members)
        for m in members:
            if not is_gamma_array(m):
                raise BadShape("family member is not a gamma array (some tail is 0)")
        super().__init__(members)

    def __iter__(self):
        return iter(self.members)

    def max_word_length(self) -> int:
        """The first column past every word (each row repeats its tail bit from there)."""
        return _shape(self.members)[1]


def _shape(members) -> tuple[int, int]:
    """The row count the members share, 0 when there are none, and L, the
    first column past every word, from one walk over the rows."""
    counts, words = set(), 0
    for a in members:
        counts.add(len(a.rows))
        for r in a.rows:
            if len(r.word) > words:
                words = len(r.word)
    if len(counts) > 1:
        raise BadShape(f"members disagree on row count: {sorted(counts)}")
    return counts.pop() if counts else 0, words


class Selector(NamedTuple):
    """Finite column sets F_n plus the quantifier surrogates (hit_quota, exceptions)."""

    sets: tuple[frozenset[int], ...]
    hit_quota: int  # how many rows must contain a hit, per member
    exceptions: int  # how many rows may break comparability, per ordered pair


class Diagonalizer(NamedTuple):
    choices: tuple[int, ...]  # g(n) per row


def _mask(columns) -> int:
    return sum(1 << m for m in columns)


@cache
def _column_sets(col_bound: int, size_bound: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """Each set of at most size_bound columns below col_bound, with its mask, in size-then-lex order."""
    return tuple((_mask(c), frozenset(c)) for size in range(min(size_bound, col_bound) + 1)
                 for c in combinations(range(col_bound), size))


def _lex_first(rows: int, width: int, start, step):
    """Lexicographically least choice vector, one choice in range(width) per row, along
    which step(n, state, c) never returns None; None if there is none.  An explicit
    stack keeps any row count safe, and a state whose completions all failed is skipped."""
    dead, stack = set(), []  # stack: (choice, state before it) per row so far
    state, n, c = start, 0, 0
    while n < rows:
        while c < width:
            nxt = step(n, state, c)
            if nxt is not None and (n + 1, nxt) not in dead:
                stack.append((c, state))
                state, n, c = nxt, n + 1, 0
                break
            c += 1
        else:
            dead.add((n, state))
            if not stack:
                return None
            (c, state), n = stack.pop(), n - 1
            c += 1
    return [c for c, _ in stack]


def finitely_tau_diagonalizable(fam, col_bound: int, size_bound: int,
                                hit_quota: int, exceptions: int,
                                budget: int = DEFAULT_BUDGET):
    """First selector (by size-then-lex order per row) passing verify_selector,
    or None when the exhaustive search is empty-handed."""
    if min(col_bound, size_bound, hit_quota, exceptions) < 0:
        raise BadShape(f"search bounds must not be negative, got col_bound={col_bound}, "
                       f"size_bound={size_bound}, hit_quota={hit_quota}, exceptions={exceptions}")
    members = tuple(fam)
    rows, words = _shape(members)  # words is L
    per_row, sizes = 0, range(min(size_bound, col_bound) + 1)
    # the partial sums only grow: stop at the first one over budget, or at once
    # when there are no rows, since 1 tuple is all there is
    for size in sizes:
        per_row += comb(col_bound, size)
        if not rows or per_row ** rows > budget:
            break
    if per_row ** rows > budget:
        least = "" if not rows or size == sizes[-1] else "at least "  # no rows: exactly 1 tuple
        raise SearchSpaceTooLarge(f"{least}{per_row}^{rows} selector tuples exceed budget {budget}")
    if members and hit_quota > rows:  # the walk tests no state when rows == 0
        return None
    if not rows:  # nothing to choose, so no pool to build
        return Selector((), hit_quota, exceptions)
    # columns from L on act alike, and a set reaching past L acts like one no later in order
    pool = _column_sets(min(col_bound, words + 1), size_bound)
    cols = list(zip(*(a.rows for a in members)))  # per row, each member's Row
    # ordered pairs of distinct members; pairs[d ^ 1] is pairs[d] reversed
    pairs = [p for ij in combinations(range(len(members)), 2) for p in (ij, ij[::-1])]
    cap = exceptions + 1

    def step(n, state, c):
        # copy only the counters choice c moves: tiny searches pay for every copy
        hits, bad = state
        h = [r.bits & pool[c][0] for r in cols[n]]
        up = [i for i, x in enumerate(h) if x and hits[i] < hit_quota]
        if up:
            hits = list(hits)
            for i in up:
                hits[i] += 1
            hits = tuple(hits)
        if min(hits) < hit_quota - (rows - n - 1):
            return None
        down = [d for d, (i, j) in enumerate(pairs) if h[i] & ~h[j] and bad[d] < cap]
        if down:
            bad = list(bad)
            for d in down:
                bad[d] += 1
                if bad[d] == cap == bad[d ^ 1]:
                    return None
            bad = tuple(bad)
        return hits, bad

    path = _lex_first(rows, len(pool), ((0,) * len(members), (0,) * len(pairs)), step)
    return None if path is None else Selector(tuple(pool[c][1] for c in path), hit_quota, exceptions)


def o_diagonalizable(fam, col_bound: int, budget: int = DEFAULT_BUDGET):
    """Lexicographically least diagonalizer, or None after exhaustive search.

    Accepts arbitrary arrays, not only gamma families: the notion is applied
    to wider families whose exact closure properties are not pinned down
    here, so no gamma check is imposed on the input.
    """
    if col_bound < 0:
        raise BadShape(f"search bounds must not be negative, got col_bound={col_bound}")
    members = tuple(fam)
    rows, words = _shape(members)
    if col_bound ** rows > budget:
        raise SearchSpaceTooLarge(f"{col_bound}^{rows} choice vectors exceed budget {budget}")
    width = min(col_bound, words + 1)  # any choice from L = words on acts like L
    cols = list(zip(*(a.rows for a in members)))  # per row, each member's Row
    everyone, below = (1 << len(members)) - 1, (1 << width) - 1
    rest = [0] * (rows + 1)  # the members with a 1 below width anywhere in rows n onward
    for n in reversed(range(rows)):
        rest[n] = rest[n + 1] | sum(1 << i for i, r in enumerate(cols[n]) if r.bits & below)
    if rest[0] != everyone:  # the walk tests no state when rows == 0
        return None

    def step(n, hit, c):
        hit |= sum(1 << i for i, r in enumerate(cols[n]) if r.bits >> c & 1)  # the members with a 1 at (n, c)
        return hit if hit | rest[n + 1] == everyone else None

    path = _lex_first(rows, width, 0, step)
    return None if path is None else Diagonalizer(tuple(path))


# ---------------------------------------------------------------------------
# Family file format: one array per block, rows as "<word>/<tailbit>", blocks
# separated by blank lines, '#' comments; a comment-only line ends no block.


def parse_family_file(text: str) -> list[GammaArray]:
    errors: list[tuple[int, str]] = []
    arrays: list[GammaArray] = []
    current: list[Row] = []
    # a blank line after the text ends the last block like any other
    for lineno, raw in enumerate(text.splitlines() + [""], start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current and not raw.strip():  # a blank line, not a comment line
                arrays.append(GammaArray(tuple(current)))
                current = []
            continue
        word, slash, tail = line.rpartition("/")
        if not slash:
            errors.append((lineno, f"expected <word>/<tailbit>, got {line!r}"))
            continue
        try:  # Row refuses a word or a tail that is not 0/1
            current.append(Row(word, {"0": 0, "1": 1}.get(tail, tail)))
        except BadShape as e:
            errors.append((lineno, str(e)))
    if errors:
        raise FamilyParseError(errors)
    return arrays


# ---------------------------------------------------------------------------
# The bodies of `taukb diag` and `taukb odiag`, which taukb.cli declares


def diag_command(options, family_file, col_bound, size_bound, hit_quota, exceptions):
    fam = GammaFamily(tuple(parse_family_file(read_text(family_file))))
    bound = col_bound if col_bound is not None else fam.max_word_length() + 1
    witness = finitely_tau_diagonalizable(
        fam, bound, size_bound, hit_quota, exceptions, budget=options["budget"])
    if witness is None:
        return "not finitely tau-diagonalizable within the bounds\n", [{"diagonalizable": False}]
    sets = [sorted(s) for s in witness.sets]
    return ("selector: " + " ".join("{" + ",".join(map(str, s)) + "}" for s in sets) + "\n",
            [{"diagonalizable": True, "sets": sets}])


def odiag_command(options, family_file, col_bound):
    arrays = parse_family_file(read_text(family_file))
    bound = col_bound if col_bound is not None else _shape(arrays)[1] + 1
    witness = o_diagonalizable(arrays, bound, budget=options["budget"])
    if witness is None:
        return "not o-diagonalizable within the bounds\n", [{"diagonalizable": False}]
    return "g = " + " ".join(map(str, witness.choices)) + "\n", [{"diagonalizable": True, "g": list(witness.choices)}]


# the checkers and the builder of taukb.gammalab that readers still take from here
__getattr__ = _forward(globals(), {"gammalab": "random_gamma_family verify_diagonalizer verify_selector"})
