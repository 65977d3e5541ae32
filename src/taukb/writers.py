"""Writers of the fact and registry formats, which no command runs; only a fact
file that names an undeclared property loads this module, for render_ref."""

from __future__ import annotations

import re

from . import TaukbError
from .core import CardinalAtom, render_expr
from .formats import (ArrowDecl, CardDecl, Decl, FactFile, IncludeDecl, NonImpDecl, PropertyDecl, Ref, SerialRef,
                      VariantDecl, split_line)
from .models import Model


def render_ref(ref: Ref) -> str:
    if isinstance(ref, SerialRef):
        return str(ref.serial)
    return ":".join((ref.kind.label, ref.source.label, ref.target.label, ref.variant.label))


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


def render_models(models: list[Model]) -> str:
    blocks = []
    for m in models:
        lines = [f"model {bare(m.name, 'model name')} cite {quote(m.citation, 'citation')}"]
        lines += [f"level {a.value if a is not CardinalAtom.COV_M else 'covM'} {m.levels[a]}"
                  for a in sorted(m.levels, key=lambda a: a.value)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
