"""taukb: implication knowledge base for the tau-cover enhanced Scheepers
diagram, with a desk-scale gamma-array diagonalization lab.

The public names below are imported from their modules on first use
(PEP 562), so that `import taukb` loads no module a caller does not use.
"""

_HOMES = {
    "core": "Atom CardinalAtom CardinalExpr Contradiction CoverKind CoverVariant Judgment Max Min "
            "ProofTrace Property SelectorKind Verdict normalize_expr parse_expr property_by_serial "
            "render_expr",
    "engine": "ClosureResult KnowledgeBase build_knowledge_base close derive_cardinality diff explain "
              "load_default_kb query replay_all",
    "formats": "FactFile ReferenceTable list_problems load_default_facts load_reference_table parse_facts "
               "parse_table render_facts render_table",
    "gamma": "Diagonalizer GammaArray GammaFamily Selector finitely_tau_diagonalizable is_gamma_array "
             "o_diagonalizable random_gamma_family verify_selector",
    "models": "Model ModelRegistry ZfcConstraint eval_expr load_default_registry validate_model",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
