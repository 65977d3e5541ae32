import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import naive
from taukb import gamma
from taukb.gamma import (
    BadShape,
    Diagonalizer,
    FamilyParseError,
    GammaArray,
    GammaFamily,
    Row,
    SearchSpaceTooLarge,
    Selector,
    array,
    family,
    finitely_tau_diagonalizable,
    is_gamma_array,
    o_diagonalizable,
    parse_family_file,
    random_gamma_family,
    render_family_file,
    verify_diagonalizer,
    verify_selector,
)


def sel(sets, q, e):
    return Selector(tuple(frozenset(s) for s in sets), q, e)


# --- is_gamma_array ---------------------------------------------------------

def test_all_ones_array_is_gamma():
    assert is_gamma_array(array([("", 1), ("", 1)]))


def test_row_with_zero_tail_is_not_gamma():
    assert not is_gamma_array(array([("10", 0)]))


def test_finitely_many_zeros_is_gamma():
    assert is_gamma_array(array([("0001", 1), ("10", 1)]))


def test_family_rejects_non_gamma_member():
    with pytest.raises(BadShape):
        family(array([("10", 0)]))


def test_family_rejects_mismatched_row_counts():
    with pytest.raises(BadShape):
        family(array([("1", 1)]), array([("1", 1), ("1", 1)]))


# --- verify_selector --------------------------------------------------------

def test_singleton_all_ones_family_verifies():
    fam = family(array([("", 1)] * 3))
    assert verify_selector(fam, sel([{0}, {0}, {0}], q=3, e=0), col_bound=2)


def test_empty_sets_cannot_meet_positive_quota():
    fam = family(array([("", 1)] * 3))
    assert not verify_selector(fam, sel([set(), set(), set()], q=1, e=0), col_bound=2)


def test_incomparable_pair_fails_condition_b():
    a = array([("01", 1), ("01", 1)])
    b = array([("10", 1), ("10", 1)])
    assert not verify_selector(family(a, b), sel([{0, 1}, {0, 1}], q=2, e=0), col_bound=2)


def test_selector_shape_mismatch():
    fam = family(array([("", 1)] * 3))
    with pytest.raises(BadShape):
        verify_selector(fam, sel([{0}], q=1, e=0), col_bound=2)


def test_selector_column_out_of_bound():
    fam = family(array([("", 1)]))
    with pytest.raises(BadShape):
        verify_selector(fam, sel([{5}], q=1, e=0), col_bound=2)


# --- finitely_tau_diagonalizable --------------------------------------------

def test_singleton_family_has_witness():
    fam = family(array([("0", 1), ("00", 1)]))
    witness = finitely_tau_diagonalizable(fam, col_bound=3, size_bound=1, hit_quota=2, exceptions=0)
    assert witness is not None
    assert verify_selector(fam, witness, col_bound=3)


def test_incomparable_pair_diagonalizes_with_singletons():
    a = array([("01", 1), ("01", 1)])
    b = array([("10", 1), ("10", 1)])
    witness = finitely_tau_diagonalizable(family(a, b), col_bound=3, size_bound=1,
                                          hit_quota=2, exceptions=0)
    # the tail column is the first that hits both members in every row
    assert witness is not None
    assert [sorted(s) for s in witness.sets] == [[2], [2]]


def test_empty_family_vacuously_diagonalizable():
    witness = finitely_tau_diagonalizable(GammaFamily(()), col_bound=2, size_bound=1,
                                          hit_quota=0, exceptions=0)
    assert witness is not None
    assert witness.sets == ()


@pytest.mark.parametrize("members, hit_quota, want", [
    ((), 1, sel([], 1, 0)), ((), 0, sel([], 0, 0)),
    ((GammaArray(()),), 0, sel([], 0, 0)), ((GammaArray(()),), 1, None),
])
def test_family_without_rows_builds_no_column_sets(monkeypatch, members, hit_quota, want):
    # with no row to choose for, the search needs no candidate pool, however wide
    def refuse(*bounds):
        raise AssertionError(f"_column_sets{bounds} built for a family without rows")

    monkeypatch.setattr(gamma, "_column_sets", refuse)
    assert finitely_tau_diagonalizable(GammaFamily(members), col_bound=300_000, size_bound=1,
                                       hit_quota=hit_quota, exceptions=0) == want


@pytest.mark.parametrize("hit_quota, exceptions", [(-1, 0), (-3, 0), (1, -1), (0, -2)])
def test_negative_quota_or_exceptions_are_refused(hit_quota, exceptions):
    # a negative exception count would make a member bad against itself
    fam = family(array([("", 1)] * 2))
    with pytest.raises(BadShape):
        finitely_tau_diagonalizable(fam, col_bound=2, size_bound=1, hit_quota=hit_quota,
                                    exceptions=exceptions)


def test_rows8_infeasible_instance_is_refuted():
    # 6^8 = 1.68M selector tuples, none of which passes
    fam = random_gamma_family(0, rows=8, col_bound=5, count=3, zero_density=0.8)
    assert finitely_tau_diagonalizable(fam, col_bound=5, size_bound=1, hit_quota=8, exceptions=0) is None


def test_search_budget_guard():
    fam = random_gamma_family(0, rows=12, col_bound=6, count=2, zero_density=0.5)
    with pytest.raises(SearchSpaceTooLarge):
        finitely_tau_diagonalizable(fam, col_bound=6, size_bound=3, hit_quota=1,
                                    exceptions=0, budget=1000)


# --- o_diagonalizable --------------------------------------------------------

def test_two_singleton_rows_with_disjoint_hits_fail():
    a = array([("0100", 0)])
    b = array([("0010", 0)])
    assert o_diagonalizable([a, b], col_bound=4) is None


def test_spread_family_diagonalizes():
    fam = random_gamma_family(3, rows=3, col_bound=3, count=2, zero_density=0.9)
    bound = fam.max_word_length() + 1
    witness = o_diagonalizable(fam, col_bound=bound)
    assert witness is not None
    assert verify_diagonalizer(fam, witness, col_bound=bound)


def test_empty_family_gets_zero_vector():
    assert o_diagonalizable([], col_bound=3) == Diagonalizer(())


def test_odiag_budget_guard():
    fam = random_gamma_family(0, rows=24, col_bound=8, count=1, zero_density=0.5)
    with pytest.raises(SearchSpaceTooLarge):
        o_diagonalizable(fam, col_bound=8, budget=1000)


def test_witness_is_lexicographically_least():
    a = array([("11", 1)])
    assert o_diagonalizable([a], col_bound=2) == Diagonalizer((0,))


# --- random family generator -------------------------------------------------

def test_zero_density_zero_gives_all_ones():
    fam = random_gamma_family(5, rows=3, col_bound=4, count=2, zero_density=0.0)
    for member in fam:
        for n in range(3):
            for m in range(6):
                assert member.entry(n, m) == 1


def test_generator_deterministic_in_seed():
    assert random_gamma_family(9, 3, 4, 2, 0.5) == random_gamma_family(9, 3, 4, 2, 0.5)
    assert random_gamma_family(9, 3, 4, 2, 0.5) != random_gamma_family(10, 3, 4, 2, 0.5)


def test_generator_regression_fixture():
    fam = random_gamma_family(1, rows=3, col_bound=4, count=2, zero_density=0.5)
    assert all(is_gamma_array(m) for m in fam)
    words = [[r.word for r in m.rows] for m in fam.members]
    assert words == [["1", "", "01"], ["110", "", "010"]]


# --- agreement with the naive oracle (small cases; the full sweep lives in
# --- the acceptance suite) ---------------------------------------------------

def all_gamma_arrays(rows, cols):
    words = ["".join(bits) for bits in product("01", repeat=cols)]
    return [GammaArray(tuple(Row(w, 1) for w in combo))
            for combo in product(words, repeat=rows)]


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_exhaustive_agreement_tiny(rows, cols):
    universe = all_gamma_arrays(rows, cols)
    fams = [(a,) for a in universe]
    fams += [(a, b) for i, a in enumerate(universe) for b in universe[i:]]
    for members in fams:
        fam = GammaFamily(members)
        witness = finitely_tau_diagonalizable(fam, cols, 1, 1, 0)
        assert (witness is not None) == naive.ftau_exists(members, cols, 1, 1, 0)
        if witness is not None:
            assert naive.selector_ok(members, [sorted(s) for s in witness.sets], cols, 1, 0)
        g = o_diagonalizable(members, cols)
        assert (g is not None) == naive.odiag_exists(members, cols)
        if g is not None:
            assert verify_diagonalizer(members, g, cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2), st.floats(0.1, 0.9))
def test_random_agreement(seed, rows, cols, count, density):
    fam = random_gamma_family(seed, rows, cols, count, density)
    witness = finitely_tau_diagonalizable(fam, cols, 1, 1, 0)
    assert (witness is not None) == naive.ftau_exists(fam.members, cols, 1, 1, 0)
    g = o_diagonalizable(fam, cols)
    assert (g is not None) == naive.odiag_exists(fam.members, cols)


# --- witness for witness: the first passing tuple of the full product ----------

def lex_first_selector(members, col_bound, size_bound, hit_quota, exceptions):
    rows = members[0].row_count if members else 0
    pool = [c for size in range(size_bound + 1) for c in combinations(range(col_bound), size)]
    for sets in product(pool, repeat=rows):
        if naive.selector_ok(members, sets, col_bound, hit_quota, exceptions):
            return [set(s) for s in sets]
    return None


def naive_diagonalizes(arrays, g):
    return all(any(naive.entry(a, n, c) for n, c in enumerate(g)) for a in arrays)


def lex_first_choices(arrays, col_bound):
    rows = arrays[0].row_count if arrays else 0
    for g in product(range(col_bound), repeat=rows):
        if naive_diagonalizes(arrays, g):
            return g
    return None


def random_arrays(rng, rows, count, tails=(1,)):
    return [GammaArray(tuple(Row("".join(rng.choice("01") for _ in range(rng.randint(0, 5))),
                                 rng.choice(tails)) for _ in range(rows)))
            for _ in range(count)]


# each regime: (rows, col_bound, members, size_bound) ranges; the second keeps
# away from the degenerate corners, where most witnesses come late or not at all;
# the third bounds the columns past every word (words are at most 5 long)
REGIMES = {"full": ((0, 5), (0, 4), (0, 4), (0, 3)), "dense": ((3, 5), (2, 4), (2, 4), (1, 3)),
           "wide": ((1, 3), (6, 9), (1, 3), (0, 2))}


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("seed", range(3))
def test_search_returns_the_lex_first_witness(seed, regime):
    rng = random.Random(seed)
    checked = 0
    while checked < 300:
        rows, col_bound, count, size_bound = (rng.randint(*r) for r in REGIMES[regime])
        per_row = sum(comb(col_bound, i) for i in range(min(size_bound, col_bound) + 1))
        if per_row ** rows > 3000:  # keeps the reference enumeration short
            continue
        members = random_arrays(rng, rows, count)
        quota, exc = rng.randint(0, rows + 1), rng.randint(0, 2)
        witness = finitely_tau_diagonalizable(GammaFamily(tuple(members)), col_bound, size_bound,
                                              quota, exc)
        want = lex_first_selector(members, col_bound, size_bound, quota, exc)
        assert (None if witness is None else list(witness.sets)) == want
        arrays = random_arrays(rng, rows, count, tails=(0, 1))
        g = o_diagonalizable(arrays, col_bound)
        assert (None if g is None else g.choices) == lex_first_choices(arrays, col_bound)
        checked += 1


# --- no column past the first column past every word ---------------------------

# one row whose word ends at column L = 3; the default budget lets col_bound
# 300,000 through, where a pool or hitter table that wide would take gigabytes
ONE_ROW = family(array([("001", 1)]))


@pytest.mark.parametrize("name, width_arg, search, witness", [
    ("_column_sets", 0, lambda fam: finitely_tau_diagonalizable(fam, 300_000, 1, 1, 0), sel([{2}], 1, 0)),
    ("_hitters", 1, lambda fam: o_diagonalizable(fam, 300_000), Diagonalizer((2,))),
], ids=["ftau", "odiag"])
def test_searches_stop_at_the_first_column_past_every_word(monkeypatch, name, width_arg, search, witness):
    real, limit = getattr(gamma, name), ONE_ROW.max_word_length() + 1

    def checked(*args):
        if args[width_arg] > limit:
            raise AssertionError(f"{name} asked for {args[width_arg]} columns")
        return real(*args)

    monkeypatch.setattr(gamma, name, checked)
    assert search(ONE_ROW) == witness


@pytest.mark.parametrize("search, message", [
    (lambda fam: finitely_tau_diagonalizable(fam, 2000, 1, 1, 0), "2001^2 selector tuples exceed budget 2000000"),
    (lambda fam: o_diagonalizable(fam, 2000), "2000^2 choice vectors exceed budget 2000000"),
])
def test_budget_guard_counts_every_column_below_the_bound(search, message):
    # the searches try no column past L + 1 = 4, yet --budget refuses what it always did
    with pytest.raises(SearchSpaceTooLarge) as e:
        search(family(array([("001", 1), ("1", 1)])))
    assert str(e.value) == message


# --- both verifiers against the naive definitions, on every candidate ----------

@pytest.mark.parametrize("seed", range(5))
def test_verifiers_agree_with_naive_on_every_candidate(seed):
    # a verifier that always said yes would pass every witness check above
    rng = random.Random(seed)
    seen = {"selector": set(), "diagonalizer": set()}
    for _ in range(250):
        rows, col_bound, count = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        arrays = random_arrays(rng, rows, count, tails=(0, 1))
        for g in product(range(col_bound), repeat=rows):
            got = verify_diagonalizer(arrays, Diagonalizer(g), col_bound)
            assert got == naive_diagonalizes(arrays, g)
            seen["diagonalizer"].add(got)
        fam = GammaFamily(tuple(random_arrays(rng, rows, count)))
        pool = [()] + [(c,) for c in range(col_bound)]
        for quota, exc in {(rng.randint(0, rows + 1), rng.randint(0, 2)) for _ in range(3)}:
            for sets in product(pool, repeat=rows):
                got = verify_selector(fam, sel(sets, quota, exc), col_bound)
                assert got == naive.selector_ok(fam.members, sets, col_bound, quota, exc)
                seen["selector"].add(got)
    assert seen == {"selector": {True, False}, "diagonalizer": {True, False}}


# --- deep families: one candidate per row ---------------------------------------

DEEP = family(*random_arrays(random.Random(0), 3000, 2))


@pytest.mark.parametrize("col_bound, size_bound, hit_quota", [(3, 0, 0), (0, 1, 0), (0, 1, 1), (3, 0, 1)])
def test_deep_family_ftau(col_bound, size_bound, hit_quota):
    witness = finitely_tau_diagonalizable(DEEP, col_bound, size_bound, hit_quota, 0)
    want = lex_first_selector(DEEP.members, col_bound, size_bound, hit_quota, 0)
    assert (None if witness is None else list(witness.sets)) == want


@pytest.mark.parametrize("tails", [(1,), (0,)])
def test_deep_family_odiag(tails):
    arrays = random_arrays(random.Random(1), 3000, 3, tails)
    g = o_diagonalizable(arrays, 1)
    assert (None if g is None else g.choices) == lex_first_choices(arrays, 1)


# --- monotonicity in the quantifier surrogates --------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3), st.floats(0.0, 0.9))
def test_verify_monotone_in_quota_and_exceptions(seed, rows, cols, count, density):
    fam = random_gamma_family(seed, rows, cols, count, density)
    bound = max(fam.max_word_length(), cols) + 1
    witness = finitely_tau_diagonalizable(fam, bound, 1, rows, 0)
    assert witness is not None, "tail column always provides a witness"
    weaker_q = Selector(witness.sets, witness.hit_quota - 1, witness.exceptions)
    weaker_e = Selector(witness.sets, witness.hit_quota, witness.exceptions + 1)
    if witness.hit_quota > 0:
        assert verify_selector(fam, weaker_q, bound)
    assert verify_selector(fam, weaker_e, bound)


# --- family file codec ---------------------------------------------------------

def test_family_file_round_trip():
    fams = [array([("0100", 1), ("", 1)]), array([("10", 0)])]
    text = render_family_file(fams)
    assert parse_family_file(text) == fams


def test_family_file_reports_all_bad_lines():
    with pytest.raises(FamilyParseError) as exc:
        parse_family_file("01/1\nbogus\n\n2/1\n")
    lines = [l for l, _ in exc.value.errors]
    assert lines == [2, 4]


@pytest.mark.parametrize("members", [
    [array([("01", 1), ("10", 1)]), array([("1", 1)])],
    [array([("1", 1)]), array([("01", 1), ("10", 1)])],
])
def test_ragged_members_are_refused(members):
    rows = members[0].row_count
    with pytest.raises(BadShape):
        o_diagonalizable(members, 3)
    with pytest.raises(BadShape):
        verify_diagonalizer(members, Diagonalizer((0,) * rows), 3)
    # before the budget guard: the nominal space of a ragged family has no meaning
    with pytest.raises(BadShape):
        finitely_tau_diagonalizable(members, 3, 1, 1, 0, budget=0)
    with pytest.raises(BadShape):
        verify_selector(members, sel([{0}] * rows, q=1, e=0), 3)


# --- a row as one int -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_row_bits_agree_with_naive_entry(seed):
    # tails 0 and 1, empty words, and columns well past each word's end
    rng = random.Random(seed)
    for _ in range(200):
        a = GammaArray(tuple(Row("".join(rng.choice("01") for _ in range(rng.randint(0, 8))),
                                 rng.randint(0, 1)) for _ in range(rng.randint(1, 4))))
        for n, r in enumerate(a.rows):
            # a negative int has every bit set from some point on: the tail repeats forever
            assert (r.bits < 0) == (r.tail == 1)
            for m in range(len(r.word) + 10):
                assert r.bits >> m & 1 == r.entry(m) == naive.entry(a, n, m)


@pytest.mark.parametrize("word, tail", [("2", 1), (" 1", 1), ("1", 2)])
def test_row_refuses_a_word_or_tail_that_is_not_0_1(word, tail):
    # a stray letter would turn into a wrong mask bit or a ValueError
    with pytest.raises(BadShape):
        Row(word, tail)
