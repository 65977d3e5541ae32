"""Golden contract: CLI output and exit codes, and every rendered proof trace.

The expected bytes live in tests/golden/.  cli.txt holds, for each command
below in both output formats, the exit code, stdout and (when non-empty)
stderr; the commands include --help of the group and of every subcommand.
traces.txt holds proofs.explain for every settled cell of the default
closure and the rendering of every exact-value trace.  ablations.txt holds,
for each default fact file with one arrow, card or nonimp line removed, the
serial grid, each serial's exact values and bound sets, and a sha256 of that
closure's trace transcript (in the layout of traces.txt).

After an intended behaviour change, regenerate all three files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from ablations import one_line_ablations

from click.testing import CliRunner

from taukb import engine, formats
from taukb.cli import main
from taukb.core import Verdict, render_expr
from taukb.proofs import explain, render_steps
from taukb.writers import render_decl, render_facts

GOLDEN = Path(__file__).parent / "golden"

# Small families for diag/odiag: for each search one whose witness comes
# early in the lexicographic order, one whose witness comes late, and one
# with no witness.  Drawn once from seeded random words, then written out.
FAMILIES = {
    "ftau_early.fam": "0111/1\n1100/1\n1110/1\n1010/1\n\n0100/1\n0000/1\n1000/1\n1111/1\n\n"
                      "0000/1\n1111/1\n1111/1\n0010/1\n",
    "ftau_late.fam": "0100/1\n0010/1\n1110/1\n1000/1\n\n0101/1\n1110/1\n1100/1\n1111/1\n",
    "ftau_none.fam": "1011/1\n1010/1\n0001/1\n1011/1\n\n0001/1\n0000/1\n1000/1\n0011/1\n\n"
                     "0111/1\n1110/1\n1101/1\n0100/1\n",
    "odiag_early.fam": "0101/1\n1101/1\n0000/1\n1101/1\n1000/1\n\n1000/1\n0100/1\n0001/1\n1011/1\n"
                       "1111/1\n\n0110/1\n1010/1\n0011/1\n1000/1\n0010/1\n",
    "odiag_late.fam": "0110/1\n0011/1\n0001/1\n0001/1\n0000/1\n\n0010/1\n0001/1\n0001/1\n0001/1\n"
                      "0000/1\n",
    "odiag_none.fam": "0001/1\n0001/1\n0000/1\n0000/1\n0001/1\n\n0010/1\n1001/1\n1010/1\n1010/1\n"
                      "0101/1\n",
}

COMMANDS = [
    ["table"],
    ["diff"],
    ["problems"],
    *[["card", str(n)] for n in range(22)],
    ["card", "22"],
    ["query", "18", "8"],
    ["query", "0", "18"],
    ["query", "0", "15"],
    ["explain", "18", "8"],
    ["explain", "0", "0"],
    ["explain", "14", "5"],
    ["explain", "0", "15"],
    ["--facts", "no_card0_eq.txt", "diff"],
    ["--facts", "arrow_18_8.txt", "diff"],
    ["diag", "ftau_early.fam", "--col-bound", "3", "--hit-quota", "2", "--exceptions", "1"],
    ["diag", "ftau_none.fam", "--col-bound", "3", "--size-bound", "2", "--exceptions", "1"],
    ["diag", "ftau_late.fam", "--col-bound", "3", "--hit-quota", "4"],
    ["diag", "ftau_none.fam", "--col-bound", "3", "--hit-quota", "3"],
    ["odiag", "odiag_early.fam", "--col-bound", "3"],
    ["odiag", "odiag_late.fam", "--col-bound", "3"],
    ["odiag", "odiag_none.fam", "--col-bound", "3"],
    ["--help"],
    *[[cmd, "--help"] for cmd in ("table", "query", "explain", "card", "diff", "problems", "diag", "odiag")],
]


def _write_inputs(workdir: Path) -> None:
    for name, text in FAMILIES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    ff = formats.load_default_facts()
    ablated = ff.without(lambda d: isinstance(d, formats.CardDecl)
                         and d.ref == formats.SerialRef(0) and d.rel == "eq")
    (workdir / "no_card0_eq.txt").write_text(render_facts(ablated), encoding="utf-8")
    (workdir / "arrow_18_8.txt").write_text(render_facts(ff) + "arrow 18 8\n", encoding="utf-8")


def cli_transcript(workdir: Path) -> str:
    _write_inputs(workdir)
    runner = CliRunner()
    out = []
    for fmt in ("table", "jsonl"):
        for args in COMMANDS:
            argv = ["--format", fmt] + [str(workdir / a) if (workdir / a).is_file() else a for a in args]
            result = runner.invoke(main, argv, prog_name="taukb")
            out.append(f"### taukb {' '.join(['--format', fmt] + args)} -> exit {result.exit_code}\n")
            out.append(result.stdout)
            if result.stderr:
                out.append("--- stderr\n" + result.stderr)
    return "".join(out)


def trace_transcript(result: engine.ClosureResult | None = None) -> str:
    result = result or engine.close(engine.load_default_kb())
    out = []
    for (p, q), judgment in result.matrix.items():
        if judgment.verdict is not Verdict.UNKNOWN:
            out.append(f"### explain {p.name} {q.name}\n{explain(result, p, q)}\n")
    for (p, e), trace in result.exact_traces.items():
        out.append(f"### exact non({p.name}) = {render_expr(e)}\n{render_steps(trace.steps)}\n")
    return "".join(out)


def ablation_transcript(ablated) -> str:
    """The transcript of one_line_ablations(), given as ablated."""
    out = []
    for d, _, result in ablated:
        out.append(f"### without line {d.line}: {render_decl(d)}\n")
        out.append(formats.render_table(result.serial_grid()))
        for p in result.serial_properties():
            r = engine.derive_cardinality(result, p)
            out.append(f"card {p.serial}" + "".join(
                f" {what} {{{','.join(render_expr(e) for e in es)}}}"
                for what, es in (("exact", r.exacts), ("lower", r.lower), ("upper", r.upper))) + "\n")
        digest = hashlib.sha256(trace_transcript(result).encode("utf-8")).hexdigest()
        out.append(f"traces sha256 {digest}\n")
    return "".join(out)


def _check(name: str, actual: str) -> None:
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


def test_cli_golden(tmp_path):
    _check("cli.txt", cli_transcript(tmp_path))


def test_trace_golden():
    _check("traces.txt", trace_transcript())


def test_ablation_golden(ablations):
    _check("ablations.txt", ablation_transcript(ablations))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "cli.txt").write_bytes(cli_transcript(Path(tmp)).encode("utf-8"))
    (GOLDEN / "traces.txt").write_bytes(trace_transcript().encode("utf-8"))
    (GOLDEN / "ablations.txt").write_bytes(ablation_transcript(one_line_ablations()).encode("utf-8"))
    sys.exit(0)
