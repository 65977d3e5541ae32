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
import shutil
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

_KB = "taukb taukb.cli taukb.core taukb.engine taukb.formats taukb.kbcli taukb.models"
_GAMMA = "taukb taukb.cli taukb.gamma"


_CASES = [
    (["table"], 0, _KB),
    (["diff"], 0, _KB + " taukb.reference"),
    (["query", "18", "8"], 0, _KB),
    (["explain", "18", "8"], 0, _KB + " taukb.proofs"),
    (["card", "6"], 0, _KB),
    (["--facts", "contradiction.txt", "table"], 3, _KB + " taukb.proofs"),
    (["problems"], 0, "taukb taukb.cli taukb.ledger"),
    (["diag", "family.txt", "--col-bound", "3"], 0, _GAMMA),
    (["odiag", "family.txt", "--col-bound", "3"], 0, _GAMMA),
    (["diag", "malformed.txt"], 2, _GAMMA),
    (["--help"], 0, "taukb taukb.cli"),
]


def _write_inputs(tmp_path):
    facts = (SRC / "taukb" / "data" / "base_facts.txt").read_text(encoding="utf-8")
    (tmp_path / "contradiction.txt").write_text(facts + "arrow 18 8\n", encoding="utf-8")
    (tmp_path / "family.txt").write_text("01/1\n01/1\n\n10/1\n10/1\n", encoding="utf-8")
    (tmp_path / "malformed.txt").write_text("01/1\n012/1\n", encoding="utf-8")


def _run_child(tmp_path, args, code) -> list[str]:
    """The child's stderr lines, after checking its exit code."""
    _write_inputs(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *args], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == code, proc.stderr
    return proc.stderr.splitlines()


@pytest.mark.parametrize("args,code,modules", _CASES, ids=[" ".join(case[0]) for case in _CASES])
def test_subcommand_loads_only_its_modules(tmp_path, args, code, modules):
    assert _run_child(tmp_path, args, code)[-1].split() == modules.split()


# A census of what each command compiles: a child profiles every call, and when it exits reports
# whether it still writes no bytecode, the called code objects and the files of the taukb modules
# loaded.  Compiling costs about the same per AST node, so a command's cost is the nodes of those
# modules, and its waste the nodes of each def it never enters (a nested def counts with its own).
_PROFILED = ("import atexit, sys\n"
             "called = set()\n"
             "def profile(frame, event, arg):\n"
             "    if event == 'call':\n"
             "        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))\n"
             "def report():\n"
             "    sys.setprofile(None)\n"
             "    print(sys.dont_write_bytecode, sorted(called), sorted(m.__file__ for n, m in sys.modules.items()\n"
             "          if n.split('.')[0] == 'taukb'), sep='\\n', file=sys.stderr)\n"
             "atexit.register(report)\n"
             "sys.setprofile(profile)\n"
             "from taukb.cli import main\n"
             "main()\n")

# (nodes compiled, nodes in defs never called) per command: the figures of this layout plus about 5%.
# Before it, every KB command compiled 13,448 nodes, 3,951-4,724 of them in defs it never called,
# and diag and odiag 5,237, 2,633 and 3,188 of them.  While cli declared each command as a decorated
# function, table, query and card compiled 10,811 (2,070-2,216 never called), explain 11,633 (2,251),
# diff 11,915 (2,464), problems 2,038 (863), diag and odiag 3,856 (1,224-2,260) and --help 1,653 (1,124).
_CENSUS_BOUNDS = {
    "table": (11_240, 1_840),
    "diff": (12_390, 2_270),
    "query 18 8": (11_240, 2_000),
    "explain 18 8": (12_100, 2_050),
    "card 6": (11_240, 2_000),
    "--facts contradiction.txt table": (12_100, 2_130),
    "problems": (2_030, 570),
    "diag family.txt --col-bound 3": (3_940, 1_020),
    "odiag family.txt --col-bound 3": (3_940, 1_560),
    "diag malformed.txt": (3_940, 2_110),
    "--help": (1_630, 710),
}


def _census(files: list[str], called: set) -> tuple[int, int]:
    """The AST nodes of files, and those in the defs whose code objects called does not hold."""
    total = cold = 0
    for path in files:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        total += sum(1 for _ in ast.walk(tree))
        stack = [tree]
        while stack:
            for node in ast.iter_child_nodes(stack.pop()):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated def's code object starts at its first decorator
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    if (path, first, node.name) not in called:
                        cold += sum(1 for _ in ast.walk(node))
                        continue
                stack.append(node)
    return total, cold


@pytest.mark.parametrize("args,code", [case[:2] for case in _CASES], ids=[" ".join(case[0]) for case in _CASES])
def test_a_command_compiles_little_that_it_does_not_run(tmp_path, args, code):
    # from a copy of the package, which only this child imports, so any bytecode there is its own
    copy = tmp_path / "src"
    shutil.copytree(SRC / "taukb", copy / "taukb", ignore=shutil.ignore_patterns("__pycache__"))
    _write_inputs(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _PROFILED, *args], capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1"), timeout=60)
    assert proc.returncode == code, proc.stderr
    writes_none, called, files = proc.stderr.splitlines()[-3:]
    assert writes_none == "True"
    assert list(copy.rglob("__pycache__")) == []
    total, cold = _census(ast.literal_eval(files), set(ast.literal_eval(called)))
    print(f"{' '.join(args)}: {total} nodes compiled, {cold} ({cold / total:.1%}) in defs never called")
    bound = _CENSUS_BOUNDS[" ".join(args)]
    assert total <= bound[0] and cold <= bound[1], (total, cold)


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


# every name the package exports, by the module that defines it: the package's lazy names resolve there in one step
_EXPORTS = {
    "taukb": "Contradiction",
    "taukb.core": "Atom CardinalAtom CardinalExpr CoverKind CoverVariant Judgment Max Min ProofTrace Property "
                  "SelectorKind Verdict normalize_expr parse_expr render_expr",
    "taukb.engine": "ClosureResult KnowledgeBase build_knowledge_base close derive_cardinality load_default_kb query",
    "taukb.formats": "FactFile load_default_facts parse_facts render_table",
    "taukb.reference": "ReferenceTable diff load_reference_table parse_table property_by_serial",
    "taukb.proofs": "explain",
    "taukb.writers": "render_facts",
    "taukb.ledger": "list_problems",
    "taukb.gamma": "Diagonalizer GammaArray GammaFamily Selector finitely_tau_diagonalizable is_gamma_array "
                   "o_diagonalizable",
    "taukb.gammalab": "random_gamma_family verify_selector",
    "taukb.models": "Model ModelRegistry ZfcConstraint eval_expr load_default_registry validate_model",
    "taukb.replay": "replay_all",
}


def test_public_names_resolve_to_their_home_objects():
    names = {name: module for module, names in _EXPORTS.items() for name in names.split()}
    for name, module in names.items():
        assert getattr(taukb, name) is getattr(importlib.import_module(module), name), name
        assert name in _top_level(module.partition(".")[2] or "__init__", imported=False), name
    for module, homed in taukb._HOMES.items():  # each lazy name is imported from the module that defines it
        assert {names[name] for name in homed.split()} == {f"taukb.{module}"}, module
    assert set(taukb.__all__) == set(names)
    namespace = {}
    exec("from taukb import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    with pytest.raises(AttributeError):
        taukb.no_such_name


# the names the gamma path shares are defined in the package; core imports the ones it uses
_SHARED = "TaukbError MalformedExpr UnknownSerial Record".split()


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


# the names that tests/test_acceptance.py and perfbench/ read through the module they were once defined in, by
# that module and the module that defines them now: the old module forwards each on first read, and no other
_MOVED = {
    ("core", "reference"): "property_by_serial",
    ("engine", "proofs"): "explain",
    ("engine", "reference"): "diff",
    ("engine", "replay"): "replay_trace replay_all",
    ("formats", "reference"): "load_reference_table",
    ("formats", "ledger"): "Open Solved PartiallySolved list_problems",
    ("gamma", "gammalab"): "random_gamma_family verify_diagonalizer verify_selector",
}


def test_moved_names_are_the_objects_of_their_new_modules():
    for (old, new), names in _MOVED.items():
        home = importlib.import_module(f"taukb.{new}")
        for name in names.split():
            namespace = {}
            exec(f"from taukb.{old} import {name}", namespace)
            assert getattr(importlib.import_module(f"taukb.{old}"), name) is namespace[name] is getattr(home, name), name
    for old in {old for old, _ in _MOVED}:
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(f"taukb.{old}"), "no_such_name")


_OLD = ("core", "engine", "formats", "models", "gamma")
_NEW = ("proofs", "reference", "writers", "gammalab", "replay", "ledger")


def _top_level(module: str, imported: bool) -> set[str]:
    """The names that taukb/<module>.py defines at its top level, and with imported, those it imports there too."""
    names = set()
    for node in ast.parse((SRC / "taukb" / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        elif imported and isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def test_the_old_modules_forward_exactly_what_the_acceptance_suite_and_the_benchmark_read():
    # their reads, `from taukb.<old> import name` and `<old>.name`, walked as AST nodes: perfbench/run.py also
    # holds metric names such as "engine.settled_cells", which are strings
    root = Path(__file__).resolve().parent.parent
    reads = set()
    for path in [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in {f"taukb.{m}" for m in _OLD}:
                reads.update((node.module.split(".")[1], a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in _OLD:
                reads.add((node.value.id, node.attr))
    bound = {old: _top_level(old, imported=True) for old in _OLD}
    moved = {(old, name) for (old, _), names in _MOVED.items() for name in names.split()}
    assert {(old, name) for old, name in reads if name not in bound[old]} == moved
    for old, name in moved:
        getattr(importlib.import_module(f"taukb.{old}"), name)
    # every other name of the modules that took names off the command paths is read from its own module only
    for new in _NEW:
        for name in _top_level(new, imported=False):
            for old in _OLD:
                if name not in bound[old] and (old, name) not in moved:
                    assert not hasattr(importlib.import_module(f"taukb.{old}"), name), (old, name)


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
