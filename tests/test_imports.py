"""Cold start: each subcommand imports only the taukb modules it runs, and
the package's public names resolve lazily to the objects of their modules.

A `taukb` child process that writes no bytecode compiles every module it
imports, so a module loaded but not used is time spent for nothing.  A
dataclass costs its definition too: its methods are generated and compiled
at import, so the records are tuples or plain classes, and the census below
checks that no command path defines one.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taukb

SRC = Path(taukb.__file__).resolve().parent.parent

# when the child exits, its last two stderr lines are the dataclasses that
# the loaded taukb modules define, in module and definition order, and the
# taukb modules loaded
_CHILD = ("import atexit, sys\n"
          "def report():\n"
          "    mods = sorted(m for m in sys.modules if m.startswith('taukb'))\n"
          "    print(*[c.__name__ for m in mods for c in vars(sys.modules[m]).values()\n"
          "            if isinstance(c, type) and c.__module__ == m and '__dataclass_fields__' in vars(c)],\n"
          "          file=sys.stderr)\n"
          "    print(*mods, file=sys.stderr)\n"
          "atexit.register(report)\n"
          "from taukb.cli import main\n"
          "main()\n")

_KB = "taukb taukb.cli taukb.core taukb.engine taukb.formats taukb.models"
_GAMMA = "taukb taukb.cli taukb.gamma"


_CASES = [
    (["table"], 0, _KB),
    (["diff"], 0, _KB),
    (["query", "18", "8"], 0, _KB),
    (["explain", "18", "8"], 0, _KB),
    (["card", "6"], 0, _KB),
    (["--facts", "contradiction.txt", "table"], 3, _KB),
    (["problems"], 0, "taukb taukb.cli taukb.ledger"),
    (["diag", "family.txt", "--col-bound", "3"], 0, _GAMMA),
    (["odiag", "family.txt", "--col-bound", "3"], 0, _GAMMA),
    (["diag", "malformed.txt"], 2, _GAMMA),
    (["--help"], 0, "taukb taukb.cli"),
]


def _run_child(tmp_path, args, code) -> list[str]:
    """The child's stderr lines, after checking its exit code."""
    facts = (SRC / "taukb" / "data" / "base_facts.txt").read_text(encoding="utf-8")
    (tmp_path / "contradiction.txt").write_text(facts + "arrow 18 8\n", encoding="utf-8")
    (tmp_path / "family.txt").write_text("01/1\n01/1\n\n10/1\n10/1\n", encoding="utf-8")
    (tmp_path / "malformed.txt").write_text("01/1\n012/1\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == code, proc.stderr
    return proc.stderr.splitlines()


@pytest.mark.parametrize("args,code,modules", _CASES, ids=[" ".join(case[0]) for case in _CASES])
def test_subcommand_loads_only_its_modules(tmp_path, args, code, modules):
    assert _run_child(tmp_path, args, code)[-1].split() == modules.split()


# taukb defines no dataclass: its records are NamedTuples or taukb.Record
# subclasses.  A dataclass on one of these paths fails here, by name.
_CENSUS = [
    (["table"], ""),
    (["problems"], ""),
    (["diag", "family.txt", "--col-bound", "3"], ""),
]


@pytest.mark.parametrize("args,dataclasses", _CENSUS, ids=[case[0][0] for case in _CENSUS])
def test_cold_path_defines_only_the_pinned_dataclasses(tmp_path, args, dataclasses):
    assert _run_child(tmp_path, args, 0)[-2].split() == dataclasses.split()


# No command imports a standard-library module it does not run.  The children start with
# `python -S`, because a .pth file that site processes may import some of these modules itself
# (one that imports certifi loads pathlib and importlib.resources), which would hide them here.
_UNRUN = {"pathlib", "importlib.resources", "zipfile", "tempfile", "random"}
_MODULES = "import atexit, sys\natexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
_STDLIB_CASES = [["table"], ["--facts", "main.txt", "table"], ["--format", "jsonl", "explain", "18", "8"],
                 ["problems"], ["diag", "family.txt", "--col-bound", "3"], ["odiag", "family.txt", "--col-bound", "3"]]


def _modules_without_site(cwd, code, args=()) -> set[str]:
    """The modules that CODE, run with ARGS by `python -S`, has loaded when it exits."""
    import click

    path = os.pathsep.join((str(SRC), os.path.dirname(os.path.dirname(click.__file__))))
    proc = subprocess.run([sys.executable, "-S", "-c", _MODULES + code, *args], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("args", _STDLIB_CASES, ids=" ".join)
def test_a_command_imports_no_stdlib_module_it_does_not_run(tmp_path, args):
    facts = (SRC / "taukb" / "data" / "base_facts.txt").read_text(encoding="utf-8")
    (tmp_path / "main.txt").write_text(facts.replace("arrow 18 19\n", "", 1) + "include sub.txt\n", encoding="utf-8")
    (tmp_path / "sub.txt").write_text("arrow 18 19\n", encoding="utf-8")
    (tmp_path / "family.txt").write_text("01/1\n01/1\n\n10/1\n10/1\n", encoding="utf-8")
    baseline = _modules_without_site(tmp_path, "import click\n")
    loaded = _modules_without_site(tmp_path, "from taukb.cli import main\nmain()\n", args)
    assert sorted((loaded - baseline) & _UNRUN) == []


def test_import_taukb_loads_no_submodule():
    proc = subprocess.run([sys.executable, "-c", "import sys, taukb; print(*sorted(sys.modules))"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)
    assert [m for m in proc.stdout.split() if m.startswith("taukb")] == ["taukb"]


# every name the package exported eagerly before it resolved them lazily,
# by the module it was imported from
_EXPORTS = {
    "core": "Atom CardinalAtom CardinalExpr CoverKind CoverVariant Judgment Max Min ProofTrace Property "
            "SelectorKind Verdict normalize_expr parse_expr property_by_serial render_expr",
    "engine": "ClosureResult Contradiction KnowledgeBase build_knowledge_base close derive_cardinality diff "
              "explain load_default_kb query replay_all",
    "formats": "FactFile ReferenceTable list_problems load_default_facts load_reference_table parse_facts "
               "parse_table render_facts render_table",
    "gamma": "Diagonalizer GammaArray GammaFamily Selector finitely_tau_diagonalizable is_gamma_array "
             "o_diagonalizable random_gamma_family verify_selector",
    "models": "Model ModelRegistry ZfcConstraint eval_expr load_default_registry validate_model",
}


def test_public_names_resolve_to_their_home_objects():
    names = {name: module for module, names in _EXPORTS.items() for name in names.split()}
    for name, module in names.items():
        assert getattr(taukb, name) is getattr(importlib.import_module(f"taukb.{module}"), name), name
    assert set(taukb.__all__) == set(names)
    namespace = {}
    exec("from taukb import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError):
        taukb.no_such_name


# the names the gamma path shares are defined in the package; core re-exports them
_SHARED = ("TaukbError MalformedExpr UnknownSerial UnknownProperty BadShape Contradiction Record "
           "DEFAULT_BUDGET read_text").split()


def test_shared_names_are_the_package_objects():
    from taukb import core, gamma

    for name in _SHARED:
        assert getattr(core, name) is getattr(taukb, name), name
    for name in "TaukbError BadShape Record DEFAULT_BUDGET".split():
        assert getattr(gamma, name) is getattr(taukb, name), name
    for call, error in ((lambda: gamma.parse_family_file("012/1\n"), gamma.FamilyParseError),
                        (lambda: gamma.o_diagonalizable(gamma.parse_family_file("1/1\n1/1\n"), 3, budget=8),
                         gamma.SearchSpaceTooLarge)):
        with pytest.raises(core.TaukbError) as e:
            call()
        assert type(e.value) is error
    assert isinstance(gamma.Row("01", 1), core.Record)


# the replay checker and the problem ledger have their own modules, which no
# KB command loads; engine and formats re-export their names on first read
def test_moved_names_are_the_objects_of_their_new_modules():
    from taukb import engine, formats, ledger, replay

    for name in "ReplayError replay_trace replay_all".split():
        assert getattr(engine, name) is getattr(replay, name), name
    for name in "Open Solved PartiallySolved list_problems".split():
        assert getattr(formats, name) is getattr(ledger, name), name
    from taukb.engine import replay_all
    from taukb.formats import list_problems

    assert replay_all is replay.replay_all and list_problems is ledger.list_problems
    for module in (engine, formats):
        with pytest.raises(AttributeError):
            module.no_such_name


def _imports(path: Path) -> list[tuple[str, tuple]]:
    """(module, names) for each import statement of a file; names is () for a plain import."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(a.name, ()) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append(("." * node.level + (node.module or ""), tuple(a.name for a in node.names)))
    return out


def test_the_test_oracles_stay_independent_of_the_package():
    # the naive oracles check the package, so they may share only the atom and min types with it
    here = Path(__file__).parent
    assert not [m for m, _ in _imports(here / "naive.py") if m.split(".")[0] in ("taukb", "")]
    ours = [(m, names) for m, names in _imports(here / "naive_kb.py") if m.split(".")[0] in ("taukb", "")]
    assert ours == [("taukb.core", ("CardinalAtom", "Min"))]
