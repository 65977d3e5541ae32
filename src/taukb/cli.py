"""Command-line front end.

Exit codes: 0 success, 1 non-empty diff, 2 usage or parse errors (bad input files, output that
cannot be written and a closed stdout pipe included), 3 contradiction in the fact base.  stdout
carries payload only; diagnostics go to stderr.

Each command imports the modules it runs and no other, because a child process that writes
no bytecode compiles every module it imports.  So this module declares every command once, as
data: _COMMANDS gives each one's name, the module that holds its body, its help and its
parameters, and the click group is built from that.  _run loads the module of the command's
path and runs ``<command>_command(options, **params)`` there; options is the plain dict of the
group's options (facts, models, fmt, budget), so no body touches a click object.  `kbcli`
holds the bodies of table, query and card, `proofs` explain's and `reference` diff's (each
beside `core`, `formats`, `models` and `engine`), `gamma` those of diag and odiag, and
`ledger` problems'.

Run as the program, it ends with ``os._exit`` once its output is flushed, since a process
about to end need not tear the interpreter down.
"""

from __future__ import annotations

import atexit
import functools
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


# The CLI, declared once: the parameters that commands share (a parameter keeps no parse state), the group's
# options, then for each command its name, the module that holds its body, its help and its parameters.
_FILE = click.Path(exists=True, dir_okay=False)
_I, _J = click.Argument(["i"], type=int), click.Argument(["j"], type=int)
_FAMILY_FILE = click.Argument(["family_file"], type=_FILE)
_COL_BOUND = click.Option(["--col-bound"], type=int, default=None,
                          help="Column bound M (default: max word length + 1).")

_OPTIONS = [
    click.Option(["--facts"], type=_FILE, default=None, help="Fact file (defaults to the embedded base facts)."),
    click.Option(["--models"], type=_FILE, default=None,
                 help="Model registry file (defaults to the embedded registry)."),
    click.Option(["--format", "fmt"], type=click.Choice(["table", "jsonl"]), default="table", help="Output mode."),
    click.Option(["--budget"], type=int, default=DEFAULT_BUDGET, show_default=True,
                 help="Search budget for the combinatorial commands."),
]
_COMMANDS = [
    ("table", "kbcli", "Print the closed 22x22 judgment table.", []),
    ("query", "kbcli", "Judgment for: does property I imply property J?", [_I, _J]),
    ("explain", "proofs", "Proof trace for the (I, J) cell.", [_I, _J]),
    ("card", "kbcli", "Critical cardinality of property I: exact value or derived bounds.", [_I]),
    ("diff", "reference", "Diff the computed table against the embedded reference (or PATH).",
     [click.Argument(["path"], type=_FILE, required=False)]),
    ("problems", "ledger", "The monthly problem registry with current statuses.", []),
    ("diag", "gamma", "Search a finite tau-diagonalization of the family in FAMILY_FILE.",
     [_FAMILY_FILE, _COL_BOUND, click.Option(["--size-bound"], type=int, default=1, show_default=True),
      click.Option(["--hit-quota"], type=int, default=1, show_default=True),
      click.Option(["--exceptions"], type=int, default=0, show_default=True)]),
    ("odiag", "gamma", "Search an o-diagonalization of the arrays in FAMILY_FILE.", [_FAMILY_FILE, _COL_BOUND]),
]


def _run(module: str, **params):
    """Run the command's body, <command>_command in taukb.<module>, on the group's options and the
    command's parameters.  Print the text it returns, or with --format jsonl each JSON object it returns
    on a line; then exit with the code it returns third, if it does."""
    ctx = click.get_current_context()
    options = ctx.parent.params
    payload_text, payload_json, *code = getattr(_load(module), f"{ctx.command.name}_command")(options, **params)
    if options["fmt"] == "jsonl":
        import json

        for obj in payload_json:
            click.echo(json.dumps(obj, sort_keys=True))
    else:
        click.echo(payload_text, nl=False)
    if code:
        sys.exit(*code)


main = _Group("main", params=_OPTIONS, help="Implication knowledge base for the tau-cover Scheepers diagram.",
              commands=[click.Command(name, callback=functools.partial(_run, module), params=params, help=doc)
                        for name, module, doc, params in _COMMANDS])


if __name__ == "__main__":
    main()
