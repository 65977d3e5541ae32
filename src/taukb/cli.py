"""Command-line front end.

Exit codes: 0 success, 1 non-empty diff, 2 usage or parse errors (bad input files, output that
cannot be written and a closed stdout pipe included), 3 contradiction in the fact base.  stdout
carries payload only; diagnostics go to stderr.

Each command imports the modules it runs and no other, because a child process that writes
no bytecode compiles every module it imports.  Run as the program, it ends with ``os._exit``
once its output is flushed, since a process about to end need not tear the interpreter down.
"""

from __future__ import annotations

import atexit
import io
import os
import sys

import click

from . import DEFAULT_BUDGET, Contradiction, TaukbError, read_text

EXIT_DIFF = 1
EXIT_PARSE = 2
EXIT_CONTRADICTION = 3


class _Group(click.Group):
    """The one exit boundary: a contradiction exits 3; any other TaukbError or OSError, or a closed pipe, 2."""

    def __call__(self, *args, **kwargs):
        """As the program, once click settles the exit code: run the atexit handlers, flush stdout and
        stderr, and ``os._exit``, which waits for no thread (taukb starts none); ``main.main`` does not."""
        try:
            return self.main(*args, **kwargs)
        except SystemExit as e:
            if not (e.code is None or isinstance(e.code, int)) or kwargs.get("standalone_mode") is False:
                raise
            atexit._run_exitfuncs()  # private, but in CPython since 2.x; it clears the registry
            try:
                for stream in filter(None, (sys.stdout, sys.stderr)):  # None when fd 1 or 2 is closed
                    stream.flush()
            except OSError:
                raise e from None  # Python ends the run as it would have
            os._exit(e.code or 0)

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **kwargs)
        except SystemExit as e:  # click's main exits 1 in the handler of a closed stdout pipe's error
            if not isinstance(e.__context__, BrokenPipeError):
                raise
            code, text = EXIT_PARSE, ""
        except Contradiction as e:  # only the engine raises one, and it has loaded core
            from .core import render_steps

            code, text = EXIT_CONTRADICTION, "\n".join((f"contradiction: {e.src.name} vs {e.dst.name}", "-- implies trace --",
                render_steps(e.implies_trace.steps), "-- does-not-imply trace --", render_steps(e.notimplies_trace.steps), ""))
        except TaukbError as e:
            code, text = EXIT_PARSE, f"error: {e}\n"
        except OSError as e:  # a full or failing output stream; an input file that cannot be opened names itself
            code, text = EXIT_PARSE, f"error: cannot {f'read {e.filename}' if e.filename else 'write output'}: {e.strerror}\n"
            sys.stdout = sys.stdout if e.filename else io.StringIO()  # what a failed stdout holds cannot be written
        try:
            click.echo(text, err=True, nl=False)
        except OSError:
            sys.stderr = io.StringIO()  # nor what a failed stderr holds
        sys.exit(code)


def _close(ctx):
    """The closure of the KB that --facts and --models name."""
    from . import engine, formats, models

    cfg = ctx.obj
    facts = formats.load_facts(cfg["facts"]) if cfg["facts"] else formats.load_default_facts()
    registry = (models.load_registry(read_text(cfg["models"])) if cfg["models"]
                else models.load_default_registry())
    return engine.close(engine.build_knowledge_base(facts, registry))


def _serial_grid(result):
    """The closure's 22x22 verdict grid; a fact file that leaves a serial
    undeclared is a TaukbError naming each one."""
    from .core import SERIAL_COUNT

    declared = {p.serial for p in result.serial_properties()}
    missing = [str(n) for n in range(SERIAL_COUNT) if n not in declared]
    if missing:
        raise TaukbError(f"the fact file declares no property with serial {', '.join(missing)}")
    return result.serial_grid()


def _serial(result, n: int):
    for p in result.properties:
        if p.serial == n:
            return p
    raise TaukbError(f"no property with serial {n}")


@click.group(cls=_Group)
@click.option("--facts", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Fact file (defaults to the embedded base facts).")
@click.option("--models", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Model registry file (defaults to the embedded registry).")
@click.option("--format", "fmt", type=click.Choice(["table", "jsonl"]), default="table",
              help="Output mode.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
              help="Search budget for the combinatorial commands.")
@click.pass_context
def main(ctx, facts, models, fmt, budget):
    """Implication knowledge base for the tau-cover Scheepers diagram."""
    ctx.obj = {"facts": facts, "models": models, "fmt": fmt, "budget": budget}


def _emit(ctx, payload_text: str, payload_json: list[dict]):
    if ctx.obj["fmt"] == "jsonl":
        import json

        for obj in payload_json:
            click.echo(json.dumps(obj, sort_keys=True))
    else:
        click.echo(payload_text, nl=False)


@main.command()
@click.pass_context
def table(ctx):
    """Print the closed 22x22 judgment table."""
    from . import formats

    text = formats.render_table(_serial_grid(_close(ctx)))
    rows = [{"serial": i, "row": line} for i, line in enumerate(text.strip().splitlines())]
    _emit(ctx, text, rows)


@main.command()
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.pass_context
def query(ctx, i, j):
    """Judgment for: does property I imply property J?"""
    from . import engine

    result = _close(ctx)
    judgment = engine.query(result, _serial(result, i), _serial(result, j))
    _emit(ctx, f"{judgment.verdict}\n", [{"row": i, "col": j, "verdict": str(judgment.verdict)}])


@main.command()
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.pass_context
def explain(ctx, i, j):
    """Proof trace for the (I, J) cell."""
    from . import engine

    result = _close(ctx)
    text = engine.explain(result, _serial(result, i), _serial(result, j))
    steps = [{"step": k, "line": line} for k, line in enumerate(text.splitlines())]
    _emit(ctx, text + "\n", steps)


@main.command()
@click.argument("i", type=int)
@click.pass_context
def card(ctx, i):
    """Critical cardinality of property I: exact value or derived bounds."""
    from . import engine
    from .core import CardinalAtom, render_expr

    result = _close(ctx)
    prop = _serial(result, i)
    report = engine.derive_cardinality(result, prop)
    named_unknown = CardinalAtom.OD
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
    from . import engine, formats

    grid = _serial_grid(_close(ctx))
    ref_grid = formats.parse_table(read_text(path))[0] if path else formats.load_reference_table().grid
    delta = engine.diff(grid, ref_grid)
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
    from . import ledger

    entries = ledger.list_problems()
    text = "\n".join(ledger.render_problem(p) for p in entries) + "\n"
    payload = [{"issue": p.issue, "statement": p.statement, **ledger.problem_status(p.status)}
               for p in entries]
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
    from . import gamma

    fam = gamma.GammaFamily(tuple(gamma.parse_family_file(read_text(family_file))))
    bound = col_bound if col_bound is not None else fam.max_word_length() + 1
    witness = gamma.finitely_tau_diagonalizable(
        fam, bound, size_bound, hit_quota, exceptions, budget=ctx.obj["budget"])
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
    from . import gamma

    arrays = gamma.parse_family_file(read_text(family_file))
    bound = col_bound if col_bound is not None else gamma.max_word_length(arrays) + 1
    witness = gamma.o_diagonalizable(arrays, bound, budget=ctx.obj["budget"])
    if witness is None:
        _emit(ctx, "not o-diagonalizable within the bounds\n", [{"diagonalizable": False}])
    else:
        _emit(ctx, "g = " + " ".join(map(str, witness.choices)) + "\n",
              [{"diagonalizable": True, "g": list(witness.choices)}])


if __name__ == "__main__":
    main()
