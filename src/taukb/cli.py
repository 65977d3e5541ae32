"""Command-line front end.

Exit codes: 0 success, 1 non-empty diff, 2 usage or parse errors (bad input files, output that
cannot be written and a closed stdout pipe included), 3 contradiction in the fact base.  stdout
carries payload only; diagnostics go to stderr.

Each command imports the modules it runs and no other, because a child process that writes
no bytecode compiles every module it imports.  So this module declares every command, and
_run loads the module of the command's path and runs its body there: `kbcli` holds those of
table, query and card, `proofs` explain's and `reference` diff's (each beside `core`,
`formats`, `models` and `engine`), `gamma` those of diag and odiag, and `ledger` problems'.

Run as the program, it ends with ``os._exit`` once its output is flushed, since a process
about to end need not tear the interpreter down.
"""

from __future__ import annotations

import atexit
import io
import os
import sys

import click

from . import DEFAULT_BUDGET, Contradiction, TaukbError, _load

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
            from .proofs import render_steps

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


def _run(ctx, module: str):
    """Run the command's body, <command>_command in taukb.<module>, on its parameters.  Print the text
    it returns, or with --format jsonl each JSON object it returns on a line; then exit with the code
    it returns third, if it does."""
    payload_text, payload_json, *code = getattr(_load(module), f"{ctx.command.name}_command")(ctx, **ctx.params)
    if ctx.obj["fmt"] == "jsonl":
        import json

        for obj in payload_json:
            click.echo(json.dumps(obj, sort_keys=True))
    else:
        click.echo(payload_text, nl=False)
    if code:
        sys.exit(*code)


@main.command()
@click.pass_context
def table(ctx):
    """Print the closed 22x22 judgment table."""
    _run(ctx, "kbcli")


@main.command()
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.pass_context
def query(ctx, i, j):
    """Judgment for: does property I imply property J?"""
    _run(ctx, "kbcli")


@main.command()
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.pass_context
def explain(ctx, i, j):
    """Proof trace for the (I, J) cell."""
    _run(ctx, "proofs")


@main.command()
@click.argument("i", type=int)
@click.pass_context
def card(ctx, i):
    """Critical cardinality of property I: exact value or derived bounds."""
    _run(ctx, "kbcli")


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False), required=False)
@click.pass_context
def diff(ctx, path):
    """Diff the computed table against the embedded reference (or PATH)."""
    _run(ctx, "reference")


@main.command()
@click.pass_context
def problems(ctx):
    """The monthly problem registry with current statuses."""
    _run(ctx, "ledger")


@main.command()
@click.argument("family_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--col-bound", type=int, default=None, help="Column bound M (default: max word length + 1).")
@click.option("--size-bound", type=int, default=1, show_default=True)
@click.option("--hit-quota", type=int, default=1, show_default=True)
@click.option("--exceptions", type=int, default=0, show_default=True)
@click.pass_context
def diag(ctx, family_file, col_bound, size_bound, hit_quota, exceptions):
    """Search a finite tau-diagonalization of the family in FAMILY_FILE."""
    _run(ctx, "gamma")


@main.command()
@click.argument("family_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--col-bound", type=int, default=None, help="Column bound M (default: max word length + 1).")
@click.pass_context
def odiag(ctx, family_file, col_bound):
    """Search an o-diagonalization of the arrays in FAMILY_FILE."""
    _run(ctx, "gamma")


if __name__ == "__main__":
    main()
