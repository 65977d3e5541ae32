"""The default fact file with one arrow, card or nonimp line removed, each
closed: the 79 one-line ablations that the golden file and the oracle sweep
both read."""

from taukb import engine, formats
from taukb.models import load_default_registry


def one_line_ablations() -> list[tuple[formats.Decl, engine.KnowledgeBase, engine.ClosureResult]]:
    """(removed line, its KB, its closure) per fact line, in file order."""
    ff = formats.load_default_facts()
    registry = load_default_registry()
    out = []
    for k, d in enumerate(ff.decls):
        if isinstance(d, (formats.ArrowDecl, formats.CardDecl, formats.NonImpDecl)):
            kb = engine.build_knowledge_base(formats.FactFile(ff.decls[:k] + ff.decls[k + 1:]), registry)
            out.append((d, kb, engine.close(kb)))
    return out
