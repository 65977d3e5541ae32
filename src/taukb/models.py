"""Registry of set-theoretic models used as the consistency oracle.

A model assigns each cardinal characteristic atom a small integer level;
only the relative order of levels matters.  Level 1 is aleph1 and the top
level of a model is the continuum.  The registry answers one question: is
x < y consistent, i.e. does some registered model evaluate x strictly below
y?  Model values are shipped data curated from standard references; the
validation pass checks them against a list of ZFC-provable inequalities so
that transcription errors fail loudly.

A model may omit atoms whose value in it is not settled (od in most classical
models); constraints and queries touching a missing atom simply skip that
model.
"""

from __future__ import annotations

from typing import NamedTuple

from . import MalformedExpr, Record, TaukbError
from .core import CardinalAtom, CardinalExpr, Min, atom, parse_expr, render_expr
from .formats import FactParseError, data_text, split_line, unquote


class UnknownAtom(TaukbError):
    """Expression references an atom the model does not assign."""


class ModelParseError(FactParseError):
    """Aggregated errors of a registry file, reported as a fact file's are."""


class Model(Record):
    __slots__ = ("name", "levels", "citation")  # levels: dict of CardinalAtom to int

    def level(self, a: CardinalAtom) -> int:
        try:
            return self.levels[a]
        except KeyError:
            raise UnknownAtom(f"model {self.name!r} assigns no level to {a}") from None


class ZfcConstraint(NamedTuple):
    """lhs <= rhs holds in every model of ZFC; citation carries the burden."""

    lhs: CardinalExpr
    rhs: CardinalExpr
    citation: str

    def render(self) -> str:
        return f"{render_expr(self.lhs)} <= {render_expr(self.rhs)}"


def eval_expr(e: CardinalExpr, model: Model) -> int:
    """Evaluate an expression to the model's level; min/max are pointwise."""
    if isinstance(e, CardinalAtom):
        return model.level(e)
    vals = [eval_expr(c, model) for c in e.args]
    return min(vals) if isinstance(e, Min) else max(vals)


def constraint_list() -> list[ZfcConstraint]:
    """The shipped ZFC inequality list used to vet every registered model."""
    def c(lhs: str, rhs: str, cite: str) -> ZfcConstraint:
        return ZfcConstraint(parse_expr(lhs), parse_expr(rhs), cite)

    out = [
        c("p", "t", "van Douwen diagram"),
        c("t", "h", "Balcar-Pelant-Simon"),
        c("h", "min{s,b}", "Balcar-Pelant-Simon; Handbook of Set Theory survey"),
        c("b", "d", "folklore"),
        c("cov(M)", "d", "Cichon diagram"),
        c("cov(M)", "od", "o-diagonalization number bounds"),
        c("od", "d", "o-diagonalization number bounds"),
        c("g", "d", "Handbook of Set Theory survey"),
        c("s", "d", "Blass, Handbook of Set Theory, 2010"),
        # t <= add(M) <= cov(M); guards the registry against models that would
        # wrongly settle open table cells comparing t with cov(M).
        c("t", "cov(M)", "Piotrowski-Szymanski, via add(M)"),
    ]
    for a in CardinalAtom:
        if a is not CardinalAtom.ALEPH1:
            out.append(ZfcConstraint(CardinalAtom.ALEPH1, a, "definition"))
        if a is not CardinalAtom.C:
            out.append(ZfcConstraint(a, CardinalAtom.C, "definition"))
    return out


def atom_order(constraints: list[ZfcConstraint]) -> dict[tuple[CardinalAtom, CardinalAtom], ZfcConstraint | None]:
    """(x, y) -> the listed constraint it comes from, for each pair of
    distinct atoms with x <= y in the transitive closure of constraints; None
    for a pair that only follows from them.  A constraint x <= min{y,z} gives
    x <= y and x <= z; a constraint of any other form is refused."""
    order: dict[tuple[CardinalAtom, CardinalAtom], ZfcConstraint | None] = {}
    for con in constraints:
        uppers = con.rhs.args if isinstance(con.rhs, Min) else (con.rhs,)
        if not all(isinstance(a, CardinalAtom) for a in (con.lhs, *uppers)):
            raise TaukbError(f"constraint {con.render()} is not of the form x <= y or x <= min{{y,z}}")
        for y in uppers:
            order.setdefault((con.lhs, y), con)
    atoms = list(CardinalAtom)
    for k in atoms:  # Warshall's transitive closure
        for x in atoms:
            if (x, k) in order:
                for y in atoms:
                    if (k, y) in order and x is not y:
                        order.setdefault((x, y), None)
    return order


ZFC_ORDER = atom_order(constraint_list())  # the order every registered model must respect


def validate_model(model: Model) -> list[str]:
    """A description of each violation of the ZFC order over atoms that the
    shipped constraint list proves; empty means the model is acceptable.

    Each pair whose two atoms the model assigns is checked.  A violated
    listed constraint is named once, and a violated pair that only follows
    from the list is named as such.  Two structural checks apply on top: aleph1
    sits at level 1 and c at the model's maximum level.
    """
    out: list[str] = []
    levels = model.levels
    if levels.get(CardinalAtom.ALEPH1, 1) != 1:
        out.append("aleph1 must sit at level 1")
    top = max(levels.values(), default=1)
    if levels.get(CardinalAtom.C, top) != top:
        out.append("c must sit at the maximum level")
    violated = [f"violates {con.render()} ({con.citation})" if con is not None else
                f"violates {x} <= {y}, which follows from the constraint list"
                for (x, y), con in ZFC_ORDER.items() if x in levels and y in levels and levels[x] > levels[y]]
    return out + list(dict.fromkeys(violated))  # both halves of a split constraint name it once


class ModelRegistry:
    """Ordered collection of validated models; immutable once built.

    Building one refuses duplicate model names and any model that violates
    the shipped constraint list, so every registry in use is valid.
    """

    def __init__(self, models: list[Model]):
        self.models = tuple(models)
        self._by_name = {m.name: m for m in self.models}
        if len(self._by_name) != len(self.models):
            raise TaukbError(f"duplicate model names in registry: {[m.name for m in self.models]}")
        bad = {k: v for k, v in self.validate().items() if v}
        if bad:
            msgs = "; ".join(f"{k}: {v[0]}" for k, v in bad.items())
            raise TaukbError(f"registry failed validation: {msgs}")

    def __iter__(self):
        return iter(self.models)

    def get(self, name: str) -> Model:
        try:
            return self._by_name[name]
        except KeyError:
            raise TaukbError(f"no registered model named {name!r}") from None

    def validate(self) -> dict[str, list[str]]:
        return {m.name: validate_model(m) for m in self.models}

    def less_table(self, exprs: list[CardinalExpr]) -> dict[tuple[int, int], str]:
        """(u, l) -> name of the first registered model with eval(exprs[u]) <
        eval(exprs[l]), for each pair that some model separates.  Each
        expression is evaluated once per model; a model missing one of its
        atoms is unusable for it."""
        table: dict[tuple[int, int], str] = {}
        for m in self.models:
            known = []  # (k, level of exprs[k]) for each expression the model can evaluate
            for k, e in enumerate(exprs):
                try:
                    known.append((k, eval_expr(e, m)))
                except UnknownAtom:
                    continue
            for u, x in known:
                for l, y in known:
                    if x < y:
                        table.setdefault((u, l), m.name)
        return table


# ---------------------------------------------------------------------------
# Registry file format: blank-line separated blocks of
#   model <name> cite "<citation>"
#   level <atom> <integer>
# with '#' comments, read by the fact DSL's tokenizer: a '#' inside the
# quoted citation is text, and a comment-only line ends no block.  Each atom
# gets at most one level per model.


def parse_models(text: str) -> list[Model]:
    errors: list[tuple[int, int, str]] = []
    models: list[Model] = []
    model: Model | None = None  # the open block's model, its levels filled in place
    # a blank line after the text ends the last block like any other
    for lineno, raw in enumerate(text.splitlines() + [""], start=1):
        try:
            parts = split_line(raw)
        except ValueError as e:
            errors.append((lineno, 1, str(e)))
            continue
        if model is not None and (not raw.strip() or parts[:1] == ["model"]):  # a blank line or the next model
            if unleveled:
                errors.append((unleveled, 1, f"model {model.name!r} has no level lines"))
            model = None
        if not parts:
            continue
        if parts[0] == "model":
            if len(parts) != 4 or parts[2] != "cite":
                errors.append((lineno, 1, "expected: model <name> cite \"<citation>\""))
                continue
            try:
                citation = unquote(parts[3], "citation")
            except ValueError as e:
                errors.append((lineno, raw.find("cite") + 1, str(e)))
                citation = ""  # unused: any error drops every model
            model, unleveled = Model(parts[1], {}, citation), lineno  # unleveled: its line, until a level line
            models.append(model)
        elif parts[0] == "level":
            if model is None:
                errors.append((lineno, 1, "level line outside a model block"))
                continue
            unleveled = 0
            if len(parts) != 3:
                errors.append((lineno, 1, "expected: level <atom> <integer>"))
                continue
            try:
                a = atom(parts[1])
            except MalformedExpr:
                errors.append((lineno, len("level ") + 1, f"unknown atom {parts[1]!r}"))
                continue
            try:
                lvl = int(parts[2])
            except ValueError:
                errors.append((lineno, 1, f"level must be an integer, got {parts[2]!r}"))
                continue
            if lvl < 1:
                errors.append((lineno, 1, "levels start at 1"))
                continue
            if a in model.levels:
                errors.append((lineno, 1, f"model {model.name!r} gives {a} a second level"))
                continue
            model.levels[a] = lvl
        else:
            errors.append((lineno, 1, f"unknown directive {parts[0]!r}"))
    if errors:
        raise ModelParseError(sorted(errors))  # a block's no-level error names its earlier model line
    return models


def load_registry(text: str) -> ModelRegistry:
    return ModelRegistry(parse_models(text))


def load_default_registry() -> ModelRegistry:
    return load_registry(data_text("models.txt"))
