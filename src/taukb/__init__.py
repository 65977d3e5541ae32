"""taukb: implication knowledge base for the tau-cover enhanced Scheepers
diagram, with a desk-scale gamma-array diagonalization lab.

The public names below are imported from their modules on first use
(PEP 562), so that `import taukb` loads no module a caller does not use.
The names every command shares (the errors, `Record`, `DEFAULT_BUDGET` and
`read_text`) are defined here, so `diag` and `odiag` load no diagram type.
"""

_HOMES = {
    "core": "Atom CardinalAtom CardinalExpr CoverKind CoverVariant Judgment Max Min "
            "ProofTrace Property SelectorKind Verdict normalize_expr parse_expr render_expr",
    "engine": "ClosureResult KnowledgeBase build_knowledge_base close derive_cardinality load_default_kb query",
    "formats": "FactFile load_default_facts parse_facts render_table",
    "reference": "ReferenceTable diff load_reference_table parse_table property_by_serial",
    "proofs": "explain",
    "writers": "render_facts",
    "ledger": "list_problems",
    "gamma": "Diagonalizer GammaArray GammaFamily Selector finitely_tau_diagonalizable is_gamma_array "
             "o_diagonalizable",
    "gammalab": "random_gamma_family verify_selector",
    "models": "Model ModelRegistry ZfcConstraint eval_expr load_default_registry validate_model",
    "replay": "replay_all",
}
__all__ = sorted([*" ".join(_HOMES.values()).split(), "Contradiction"])  # the one error that is public, defined below

__version__ = "0.1.0"


def _load(module: str):
    """taukb.<module>, imported and read off the package as `import taukb.<module>` does, so that
    -X importtime reports it (importlib.import_module takes a path that it does not time)."""
    return getattr(__import__(f"{__name__}.{module}"), module)


def _forward(namespace: dict, homes: dict):
    """A PEP 562 __getattr__ for the module whose globals are namespace.  homes
    maps a module of taukb to the names it holds, space-separated, as _HOMES
    does; a name is imported from taukb.<module> on first read and kept in
    namespace, where later reads find it."""
    home = {name: module for module, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_load(home[name]), name)
        return value

    return __getattr__


__getattr__ = _forward(globals(), _HOMES)


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
    members disagree, a negative search bound."""


class Contradiction(TaukbError):
    """A pair judged both Implies and NotImplies; the fact base is inconsistent.
    src and dst are the pair's core.Property objects, and each trace a core.ProofTrace."""

    def __init__(self, src, dst, implies_trace, notimplies_trace):
        self.src = src
        self.dst = dst
        self.implies_trace = implies_trace
        self.notimplies_trace = notimplies_trace
        super().__init__(f"contradiction: {src.name} both implies and does not imply {dst.name}")


class Record:
    """Base of the plain immutable records: a record's fields are the slots
    its class names in __slots__, set once by __init__ in that order.  It
    equals, and hashes like, a record of its own type (or a subclass) with
    the same fields; a slot that a base class adds, such as a declaration's
    line or a property's labels, takes part in neither.  A record that may
    compare like a tuple is a NamedTuple instead; this base is for the rest.
    A record may keep its hash in a _hash slot; copy and pickle compute that
    afresh, since a hash may depend on the interpreter's hash seed."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if self is other:
            return True
        # NotImplemented lets a subclass answer from its side; two unrelated
        # record types, or a record and a tuple, are never equal
        return self._key() == other._key() if isinstance(other, type(self)) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle restore the slots past __setattr__, labels included;
        # a subclass that adds no slots, such as a lazily built proof trace,
        # comes back as the record it equals
        cls = next(c for c in type(self).__mro__ if "__slots__" in vars(c))
        names = [name for c in cls.__mro__ for name in vars(c).get("__slots__", ()) if name != "_hash"]
        return _restore, (cls, {name: getattr(self, name) for name in names})


def _restore(cls, state: dict):
    """The record of class cls whose slots hold state, as Record.__reduce__ gives them."""
    record = cls.__new__(cls)
    for name, value in state.items():
        object.__setattr__(record, name, value)
    if hasattr(cls, "_hash"):
        object.__setattr__(record, "_hash", Record.__hash__(record))
    return record


# Search budget of the gamma lab's exhaustive searches: the largest nominal
# space they will enumerate.
DEFAULT_BUDGET = 2_000_000


def read_text(path) -> str:
    """A UTF-8 input file's text; a file that does not decode is a TaukbError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise TaukbError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None
