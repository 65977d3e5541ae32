"""Differential sweep: the engine's closure against the naive oracle in
naive_kb.py, on the default KB, on each one-line ablation of it, on seeded
multi-line ablations with their declarations shuffled, and on the default
facts under registries with models left out; and R4's less table against a
pairwise first-model search under those registries."""

import random

import naive_kb
import pytest

from taukb import engine, formats
from taukb.core import Verdict, render_expr
from taukb.models import ModelRegistry, UnknownAtom, eval_expr, load_default_registry
from taukb.replay import replay_all
from taukb.writers import render_decl

# the fact lines whose removal leaves the closure's statements unchanged
REDUNDANT = {
    "card 1 eq b", "card 3 eq d", "card 5 eq t", "card 9 eq p", "card 12 eq b",
    "card 13 eq d", "card 14 eq min{b,s}", "card 15 eq d", "card 20 eq d", "nonimp 18 2",
}


def _agree(kb, result):
    """Assert the engine's closure of kb and the oracle's agree; return the oracle's."""
    imp, non, low, up, exact = state = naive_kb.closure(kb)
    assert not imp & non
    for (a, b), judgment in result.matrix.items():
        want = (Verdict.IMPLIES if (a, b) in imp else
                Verdict.NOT_IMPLIES if (a, b) in non else Verdict.UNKNOWN)
        assert judgment.verdict is want, (a.name, b.name)
    for p in kb.properties:
        r = result.cards[p]
        assert (set(r.exacts), set(r.lower), set(r.upper)) == (exact[p], low[p], up[p]), p.name
    return state


def test_closure_agrees_with_naive_oracle_on_every_one_line_ablation(default_kb, closure, ablations):
    default = _agree(default_kb, closure)
    redundant = {render_decl(d).split(" cite=")[0]
                 for d, kb, result in ablations if _agree(kb, result) == default}
    assert len(ablations) == 79
    assert redundant == REDUNDANT


def test_closure_agrees_with_naive_oracle_on_seeded_multi_line_ablations():
    # each variant drops 2-8 arrow, card or nonimp lines and shuffles every declaration
    rng = random.Random(2025)
    ff, registry = formats.load_default_facts(), load_default_registry()
    lines = [k for k, d in enumerate(ff.decls) if isinstance(d, (formats.ArrowDecl, formats.CardDecl,
                                                                  formats.NonImpDecl))]
    settled = []
    for _ in range(40):
        dropped = set(rng.sample(lines, rng.randint(2, 8)))
        decls = [d for k, d in enumerate(ff.decls) if k not in dropped]
        rng.shuffle(decls)
        kb = engine.build_knowledge_base(formats.FactFile(tuple(decls)), registry)
        result = engine.close(kb)
        _agree(kb, result)
        settled.append(replay_all(result, kb))
        assert settled[-1] == sum(j.verdict is not Verdict.UNKNOWN for j in result.matrix.values())
    assert (min(settled), max(settled), len(set(settled))) == (552, 619, 31)


# registry -> the settled cells of the default facts under it: no model, one
# model alone, and every model but one.  No settled cell needs ch
SETTLED_UNDER = {
    (): 450, ("ch",): 450, ("cohen",): 539, ("laver",): 539, ("odsmall",): 514,
    ("cohen", "laver", "odsmall"): 625, ("ch", "laver", "odsmall"): 562,
    ("ch", "cohen", "odsmall"): 600, ("ch", "cohen", "laver"): 602,
}


@pytest.mark.parametrize("names", SETTLED_UNDER, ids=lambda names: "+".join(names) or "none")
def test_closure_agrees_with_naive_oracle_under_each_registry_ablation(names):
    registry = ModelRegistry([m for m in load_default_registry() if m.name in names])
    kb = engine.build_knowledge_base(formats.load_default_facts(), registry)
    result = engine.close(kb)
    _agree(kb, result)
    assert replay_all(result, kb) == SETTLED_UNDER[names]


def _first_less(x, y, registry):
    """The first model of registry with x < y, models missing an atom skipped; None if none."""
    for m in registry:
        try:
            if eval_expr(x, m) < eval_expr(y, m):
                return m.name
        except UnknownAtom:
            continue
    return None


@pytest.mark.parametrize("names", [None, *SETTLED_UNDER], ids=lambda names: "default" if names is None
                         else "+".join(names) or "none")
def test_less_table_is_consistently_less_on_every_pair(names):
    registry = load_default_registry()
    if names is not None:
        registry = ModelRegistry([m for m in registry if m.name in names])
    kb = engine.build_knowledge_base(formats.load_default_facts(), registry)
    exprs = sorted({c.expr for c, _ in kb.facts if c.expr is not None}, key=render_expr)
    assert len(exprs) == 8
    want = {(u, l): w for u, x in enumerate(exprs) for l, y in enumerate(exprs)
            if (w := _first_less(x, y, registry)) is not None}
    assert registry.less_table(exprs) == want
