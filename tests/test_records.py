"""The contract of the records: what takes part in their equality and hash,
which of them compare like tuples and which do not, which fields cannot
be assigned, and how they copy and pickle."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from taukb import formats, gamma, models
from taukb.core import (
    Atom,
    Claim,
    CoverKind,
    CoverVariant,
    Judgment,
    Max,
    Min,
    ProofTrace,
    Property,
    RuleInstance,
    SelectorKind,
    Verdict,
    parse_expr,
    property_by_serial,
)
from taukb.engine import _LazyTrace
from taukb.formats import SerialRef

ARGS = (Atom("b"), Atom("s"))


def test_min_and_max_equal_neither_each_other_nor_a_tuple():
    assert Min(ARGS) == Min(ARGS) and hash(Min(ARGS)) == hash(Min(ARGS))
    assert Min(ARGS) != Max(ARGS) and Max(ARGS) != Min(ARGS)
    for record in (Min(ARGS), Max(ARGS)):
        assert record != ARGS and ARGS != record
        assert record != (ARGS,) and (ARGS,) != record  # the tuple a NamedTuple would be
    assert len({Min(ARGS), Max(ARGS), ARGS, (ARGS,)}) == 4


_PROP = Property(SelectorKind.S1, CoverKind.TAU, CoverKind.OMEGA)
# each declaration kind, by the line it was read from
_DECLS = {
    "property": lambda line: formats.PropertyDecl(6, SelectorKind.S1, CoverKind.TAU, CoverKind.OMEGA,
                                                  None, line),
    "variant": lambda line: formats.VariantDecl(SelectorKind.S1, CoverKind.TAU, CoverKind.OMEGA,
                                                CoverVariant.BOREL, parse_expr("t"), line),
    "arrow": lambda line: formats.ArrowDecl(SerialRef(0), _PROP, "inclusion", line),
    "nonimp": lambda line: formats.NonImpDecl(SerialRef(18), SerialRef(8), "laver", None, line),
    "card": lambda line: formats.CardDecl(SerialRef(14), "eq", parse_expr("min{s,b}"), None, line),
    "include": lambda line: formats.IncludeDecl("extra.txt", line),
}


@pytest.mark.parametrize("kind", _DECLS)
def test_a_declaration_equals_itself_read_from_another_line(kind):
    first, second = _DECLS[kind](3), _DECLS[kind](40)
    assert (first.line, second.line) == (3, 40)
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_declarations_with_other_fields_differ():
    assert formats.IncludeDecl("a.txt", 1) != formats.IncludeDecl("b.txt", 1)
    assert formats.ArrowDecl(SerialRef(0), SerialRef(1), None, 1) != formats.ArrowDecl(
        SerialRef(0), SerialRef(1), "cited", 1)


def test_property_equality_and_hash_ignore_serial_and_non():
    bare = Property(SelectorKind.S1, CoverKind.OMEGA, CoverKind.GAMMA)
    labelled = Property(SelectorKind.S1, CoverKind.OMEGA, CoverKind.GAMMA, serial=3, non=Atom("c"))
    assert bare == labelled == property_by_serial(8)
    assert hash(bare) == hash(labelled) == hash(property_by_serial(8))


def test_replace_works_on_property_claim_and_rule_instance():
    figure = property_by_serial(8)
    p = Property(figure.kind, figure.source, figure.target, figure.variant)
    assert p == figure and (p.serial, p.non, p.name) == (None, None, figure.name)
    claim = Claim("implies", property_by_serial(0), property_by_serial(1))
    moved = claim._replace(object=property_by_serial(2))
    assert moved.object == property_by_serial(2) and moved.render() == "S1(Gamma,Gamma) -> S1(Gamma,Omega)"
    step = RuleInstance("fact", (), claim, "facts:1")
    assert step._replace(note="x") == RuleInstance("fact", (), claim, "x")


def test_claim_rule_instance_and_property_hash_like_their_tuples():
    # so sets and dicts of them keep the order they had as frozen dataclasses
    p, q = property_by_serial(0), property_by_serial(1)
    assert hash(p) == hash((p.kind, p.source, p.target, p.variant))
    claim = Claim("upper", p, expr=parse_expr("min{s,b}"))
    assert claim == ("upper", p, None, claim.expr) and hash(claim) == hash(("upper", p, None, claim.expr))
    assert Claim("implies", p, q) == ("implies", p, q, None)
    step = RuleInstance("R2", (0, 1), claim)
    assert step == ("R2", (0, 1), claim, "") and hash(step) == hash(("R2", (0, 1), claim, ""))


_CLAIM = Claim("implies", property_by_serial(0), property_by_serial(1))
_STEP = RuleInstance("fact", (), _CLAIM)
# one instance of each immutable record, and a field of it
_IMMUTABLE = [
    (property_by_serial(0), "serial"),
    (_CLAIM, "kind"),
    (_STEP, "note"),
    (ProofTrace((_STEP,)), "steps"),
    (Judgment(Verdict.IMPLIES, ProofTrace((_STEP,))), "verdict"),
    (Min(ARGS), "args"),
    (Max(ARGS), "args"),
]


@pytest.mark.parametrize("record,field", _IMMUTABLE, ids=[type(r).__name__ for r, _ in _IMMUTABLE])
def test_fields_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == before


def test_a_record_refuses_the_wrong_number_of_fields():
    with pytest.raises(TypeError, match="Model takes 3 fields, got 2"):
        models.Model("m", {})


def test_lazy_trace_equals_the_plain_trace_with_its_steps():
    lazy = _LazyTrace(lambda stmt: (_STEP,), ("implies", 0, 1))
    plain = ProofTrace((_STEP,))
    assert lazy == plain and plain == lazy and hash(lazy) == hash(plain)
    assert lazy != ProofTrace() and ProofTrace() != lazy


def test_lazy_trace_builds_its_steps_once_on_first_read():
    built = []
    lazy = _LazyTrace(lambda stmt: built.append(stmt) or (_STEP,), ("implies", 0, 1))
    assert "steps" not in vars(lazy) and built == []
    assert lazy.steps == (_STEP,) and lazy.steps is lazy.steps
    assert built == [("implies", 0, 1)] and vars(lazy)["steps"] == (_STEP,)
    with pytest.raises(AttributeError):
        lazy.steps = ()
    assert lazy.steps == (_STEP,) and len(built) == 1


# one record of each type, and the labels outside its equality
_RECORDS = [
    (property_by_serial(8), ("serial", "non", "name")),
    (Property(SelectorKind.S1, CoverKind.TAU, CoverKind.OMEGA, CoverVariant.BOREL), ("serial", "non", "name")),
    (Min(ARGS), ()),
    (Max((Atom("d"), Min(ARGS))), ()),
    (ProofTrace((_STEP,)), ()),
    (models.load_default_registry().get("laver"), ()),
    *((_DECLS[kind](17), ("line",)) for kind in _DECLS),
    (gamma.Row("0110", 1), ()),
    (gamma.array([("01", 1), ("1", 1)]), ()),
    (gamma.family(gamma.array([("01", 1)]), gamma.array([("", 1)])), ()),
]
_COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda r: pickle.loads(pickle.dumps(r))}


@pytest.mark.parametrize("how", _COPIES)
@pytest.mark.parametrize("record,labels", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_copy_and_pickle_equal_with_their_labels(record, labels, how):
    twin = _COPIES[how](record)
    assert type(twin) is type(record) and twin == record
    if not isinstance(record, models.Model):  # a model's levels are a dict, so it has no hash
        assert hash(twin) == hash(record)
    assert all(getattr(twin, label) == getattr(record, label) for label in labels)
    with pytest.raises(AttributeError):
        setattr(twin, type(record).__slots__[0], None)


def test_a_lazy_trace_copies_and_pickles_as_the_plain_trace_of_its_steps():
    lazy = _LazyTrace(lambda stmt: (_STEP,), ("implies", 0, 1))
    for how in _COPIES.values():
        twin = how(lazy)
        assert type(twin) is ProofTrace and twin == ProofTrace((_STEP,)) and twin.steps == (_STEP,)


def test_a_pickled_property_hashes_like_a_fresh_one_under_another_hash_seed():
    # the hash is computed again on load, not carried over from the seed it was pickled under
    make = "Property(SelectorKind.UFIN, CoverKind.TAU, CoverKind.GAMMA, CoverVariant.CLOPEN, 4, Atom('b'))"
    prelude = "import pickle, sys\nfrom taukb.core import *\n"
    src = str(Path(formats.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    dumped = subprocess.run([sys.executable, "-c", prelude + f"sys.stdout.buffer.write(pickle.dumps({make}))"],
                            env={**env, "PYTHONHASHSEED": "0"}, capture_output=True, check=True).stdout
    load = (prelude + "p = pickle.loads(sys.stdin.buffer.read())\n"
            f"print(hash(p) == hash({make}) == hash(p._key()), p.serial, p.non, p.name)")
    out = subprocess.run([sys.executable, "-c", load], input=dumped, env={**env, "PYTHONHASHSEED": "1"},
                         capture_output=True, check=True).stdout
    assert out.decode().split() == ["True", "4", "b", "Ufin(T,Gamma)[clopen]"]


def test_problem_statuses_compare_as_criterion_10_reads_them():
    assert formats.Solved("Yes", "Lubomyr Zdomsky") == formats.Solved("Yes", "Lubomyr Zdomsky")
    assert formats.Solved("Yes", "Lubomyr Zdomsky") != formats.Solved("Yes", "someone else")
    assert formats.PartiallySolved("consistently yes") == formats.PartiallySolved("consistently yes")
    assert formats.Open() == formats.Open()
    assert formats.Open() != formats.Solved("Yes", "Lubomyr Zdomsky")
    assert formats.Open() != formats.PartiallySolved("consistently yes")
    assert formats.PartiallySolved("consistently yes") != formats.Solved("consistently yes", "")
