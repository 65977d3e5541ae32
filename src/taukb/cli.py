"""Command-line front end.

Exit codes: 0 success, 1 non-empty diff, 2 usage or parse errors,
3 contradiction in the fact base.  stdout carries payload only; diagnostics
go to stderr.
"""

from __future__ import annotations

import json
import sys

import click

from . import engine, formats, gamma
from .core import Atom, CardinalAtom, TaukbError, render_expr
from .models import load_default_registry, load_registry
from pathlib import Path

EXIT_DIFF = 1
EXIT_PARSE = 2
EXIT_CONTRADICTION = 3


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _load(ctx) -> engine.KnowledgeBase:
    cfg = ctx.obj
    try:
        facts = formats.load_facts(cfg["facts"]) if cfg["facts"] else formats.load_default_facts()
        if cfg["models"]:
            registry = load_registry(Path(cfg["models"]).read_text(encoding="utf-8"))
        else:
            registry = load_default_registry()
        return engine.build_knowledge_base(facts, registry)
    except TaukbError as e:
        _fail(EXIT_PARSE, f"error: {e}")


def _close(ctx) -> engine.ClosureResult:
    kb = _load(ctx)
    try:
        return engine.close(kb)
    except engine.Contradiction as e:
        click.echo(f"contradiction: {e.src.name} vs {e.dst.name}", err=True)
        click.echo("-- implies trace --", err=True)
        click.echo(engine.render_trace(e.implies_trace), err=True)
        click.echo("-- does-not-imply trace --", err=True)
        click.echo(engine.render_trace(e.notimplies_trace), err=True)
        sys.exit(EXIT_CONTRADICTION)


def _serial(ctx, n: int):
    result = ctx.obj["result"]
    for p in result.properties:
        if p.serial == n:
            return p
    _fail(EXIT_PARSE, f"error: no property with serial {n}")


@click.group()
@click.option("--facts", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Fact file (defaults to the embedded base facts).")
@click.option("--models", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Model registry file (defaults to the embedded registry).")
@click.option("--format", "fmt", type=click.Choice(["table", "jsonl"]), default="table",
              help="Output mode.")
@click.option("--budget", type=int, default=gamma.DEFAULT_BUDGET, show_default=True,
              help="Search budget for the combinatorial commands.")
@click.pass_context
def main(ctx, facts, models, fmt, budget):
    """Implication knowledge base for the tau-cover Scheepers diagram."""
    ctx.obj = {"facts": facts, "models": models, "fmt": fmt, "budget": budget}


def _emit(ctx, payload_text: str, payload_json: list[dict]):
    if ctx.obj["fmt"] == "jsonl":
        for obj in payload_json:
            click.echo(json.dumps(obj, sort_keys=True))
    else:
        click.echo(payload_text, nl=False)


@main.command()
@click.pass_context
def table(ctx):
    """Print the closed 22x22 judgment table."""
    ctx.obj["result"] = _close(ctx)
    grid = ctx.obj["result"].serial_grid()
    text = formats.render_table(grid)
    rows = [{"serial": i, "row": line} for i, line in enumerate(text.strip().splitlines())]
    _emit(ctx, text, rows)


@main.command()
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.pass_context
def query(ctx, i, j):
    """Judgment for: does property I imply property J?"""
    ctx.obj["result"] = _close(ctx)
    judgment = engine.query(ctx.obj["result"], _serial(ctx, i), _serial(ctx, j))
    _emit(ctx, f"{judgment.verdict}\n", [{"row": i, "col": j, "verdict": str(judgment.verdict)}])


@main.command()
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.pass_context
def explain(ctx, i, j):
    """Proof trace for the (I, J) cell."""
    ctx.obj["result"] = _close(ctx)
    try:
        text = engine.explain(ctx.obj["result"], _serial(ctx, i), _serial(ctx, j))
    except engine.NothingToExplain as e:
        _fail(EXIT_PARSE, f"error: {e}")
    steps = [{"step": k, "line": line} for k, line in enumerate(text.splitlines())]
    _emit(ctx, text + "\n", steps)


@main.command()
@click.argument("i", type=int)
@click.pass_context
def card(ctx, i):
    """Critical cardinality of property I: exact value or derived bounds."""
    ctx.obj["result"] = _close(ctx)
    prop = _serial(ctx, i)
    report = engine.derive_cardinality(ctx.obj["result"], prop)
    named_unknown = Atom(CardinalAtom.OD)
    if report.exact is not None and (prop.non is not None or report.exact != named_unknown):
        text = f"non({prop.name}) = {render_expr(report.exact)}\n"
        payload = {"serial": i, "exact": render_expr(report.exact)}
    else:
        lows = [render_expr(e) for e in report.lower if e != named_unknown]
        ups = [render_expr(e) for e in report.upper if e != named_unknown]
        # the interesting display bounds are the characteristic ones
        lo = "cov(M)" if "cov(M)" in lows else (lows[0] if lows else "aleph1")
        hi = "d" if "d" in ups else (ups[0] if ups else "c")
        text = f"{lo} <= non({prop.name}) <= {hi}\n"
        payload = {"serial": i, "lower": sorted(lows), "upper": sorted(ups)}
    _emit(ctx, text, [payload])


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False), required=False)
@click.pass_context
def diff(ctx, path):
    """Diff the computed table against the embedded reference (or PATH)."""
    ctx.obj["result"] = _close(ctx)
    grid = ctx.obj["result"].serial_grid()
    if path:
        ref_grid, _ = formats.parse_table(Path(path).read_text(encoding="utf-8"))
    else:
        ref_grid = [list(r) for r in formats.load_reference_table().grid]
    try:
        delta = engine.diff(grid, ref_grid)
    except engine.ShapeMismatch as e:
        _fail(EXIT_PARSE, f"error: {e}")
    if not delta:
        _emit(ctx, "identical\n", [{"identical": True}])
        return
    lines = [f"({r},{c}) computed={va} reference={vb}" for r, c, va, vb in delta]
    _emit(ctx, "\n".join(lines) + "\n",
          [{"row": r, "col": c, "computed": str(va), "reference": str(vb)} for r, c, va, vb in delta])
    sys.exit(EXIT_DIFF)


@main.command()
@click.pass_context
def problems(ctx):
    """The monthly problem registry with current statuses."""
    entries = formats.list_problems()
    text = "\n".join(formats.render_problem(p) for p in entries) + "\n"
    payload = []
    for p in entries:
        obj = {"issue": p.issue, "statement": p.statement}
        if isinstance(p.status, formats.Solved):
            obj["status"] = "solved"
            obj["answer"] = p.status.answer
            obj["credit"] = p.status.credit
        elif isinstance(p.status, formats.PartiallySolved):
            obj["status"] = "partially solved"
            obj["note"] = p.status.note
        else:
            obj["status"] = "open"
        payload.append(obj)
    _emit(ctx, text, payload)


@main.command()
@click.argument("family_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--col-bound", type=int, default=None, help="Column bound M (default: max word length + 1).")
@click.option("--size-bound", type=int, default=1, show_default=True)
@click.option("--hit-quota", type=int, default=1, show_default=True)
@click.option("--exceptions", type=int, default=0, show_default=True)
@click.pass_context
def diag(ctx, family_file, col_bound, size_bound, hit_quota, exceptions):
    """Search a finite tau-diagonalization of the family in FAMILY_FILE."""
    try:
        arrays = gamma.parse_family_file(Path(family_file).read_text(encoding="utf-8"))
        fam = gamma.GammaFamily(tuple(arrays))
    except TaukbError as e:
        _fail(EXIT_PARSE, f"error: {e}")
    bound = col_bound if col_bound is not None else fam.max_word_length() + 1
    try:
        witness = gamma.finitely_tau_diagonalizable(
            fam, bound, size_bound, hit_quota, exceptions, budget=ctx.obj["budget"])
    except gamma.SearchSpaceTooLarge as e:
        _fail(EXIT_PARSE, f"error: {e}")
    if witness is None:
        _emit(ctx, "not finitely tau-diagonalizable within the bounds\n", [{"diagonalizable": False}])
    else:
        sets = [sorted(s) for s in witness.sets]
        _emit(ctx, "selector: " + " ".join("{" + ",".join(map(str, s)) + "}" for s in sets) + "\n",
              [{"diagonalizable": True, "sets": sets}])


@main.command()
@click.argument("family_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--col-bound", type=int, default=None, help="Column bound M (default: max word length + 1).")
@click.pass_context
def odiag(ctx, family_file, col_bound):
    """Search an o-diagonalization of the arrays in FAMILY_FILE."""
    try:
        arrays = gamma.parse_family_file(Path(family_file).read_text(encoding="utf-8"))
    except TaukbError as e:
        _fail(EXIT_PARSE, f"error: {e}")
    bound = col_bound if col_bound is not None else max((a.max_word_length() for a in arrays), default=0) + 1
    try:
        witness = gamma.o_diagonalizable(arrays, bound, budget=ctx.obj["budget"])
    except gamma.SearchSpaceTooLarge as e:
        _fail(EXIT_PARSE, f"error: {e}")
    if witness is None:
        _emit(ctx, "not o-diagonalizable within the bounds\n", [{"diagonalizable": False}])
    else:
        _emit(ctx, "g = " + " ".join(map(str, witness.choices)) + "\n",
              [{"diagonalizable": True, "g": list(witness.choices)}])


if __name__ == "__main__":
    main()
