"""Benchmark for taukb: three workloads driven from outside the package.

    python3 perfbench/run.py --workload kb-cli --seed 1 --seconds 30 --trace 0

Workloads (the reasons are in BENCHMARK.json and README.md):

* kb-cli: one op is one `taukb` subprocess from a seeded command mix.
* kb-audit: one op is one in-process library session on a seeded KB variant.
* gamma-search: one op is one `taukb diag` or `taukb odiag` subprocess on a
  family file from the recorded catalog.

Load is a closed loop: one client, one op in flight.  Set-up runs
SETUP_REPS times, once before the timed phase and the other times spread
over it, and setup_s is the median.  The run stays on one CPU, and as the
host's speed drifts, a fixed calibration runs before every op; every time
is reported at the reference speed: scaled by CAL_REF_MS over the
calibration time measured beside it (HostClock).  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it records spans around its own
calls into each taukb module, keeps them in memory, writes them to
.perfbench_traces/ at the end and reports the per-layer metrics.  Every op's
output is checked (checks.py); the last stdout line is one JSON object, and
the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASE_FACTS = SRC / "taukb" / "data" / "base_facts.txt"
NAIVE = ROOT / "tests" / "naive.py"
ENTRY = "import sys; from taukb.cli import main; sys.exit(main())"
SETUP_REPS = 15
CAL_REF_MS = 80.0  # the reference speed: one calibration sample takes this long
CAL_REPS = 6  # kernel passes per calibration sample, 15-30 ms on a 2.0 GHz Xeon
CAL_WINDOW = 3  # calibration samples nearest in time that set the speed of an event
OP_TIMEOUT_S = 60
PROBE_REPS = 5

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.stdout_bytes": "count",
    "formats.load_default_facts_ms": "ms", "formats.parse_facts_ms": "ms",
    "formats.load_reference_table_ms": "ms", "formats.render_table_ms": "ms",
    "formats.list_problems_ms": "ms",
    "models.load_default_registry_ms": "ms", "models.validate_ms": "ms",
    "engine.build_knowledge_base_ms": "ms", "engine.close_ms": "ms",
    "engine.close_contradiction_ms": "ms", "engine.replay_all_ms": "ms",
    "engine.explain_ms": "ms", "engine.derive_cardinality_ms": "ms",
    "engine.close_rounds": "count", "engine.settled_cells": "count", "engine.trace_steps": "count",
    "gamma.parse_family_file_ms": "ms",
    "gamma.ftau_search_early_ms": "ms", "gamma.ftau_search_late_ms": "ms",
    "gamma.ftau_search_infeasible_ms": "ms",
    "gamma.odiag_search_early_ms": "ms", "gamma.odiag_search_late_ms": "ms",
    "gamma.odiag_search_infeasible_ms": "ms",
    "gamma.verify_selector_ms": "ms", "gamma.verify_diagonalizer_ms": "ms",
    "gamma.nominal_space": "count",
    "trace.op_ms_p50": "ms",
}

# Fact lines whose removal unsettles at least one cell, so `diff` on the
# edited file exits 1.  Removing the other card/nonimp lines changes nothing.
ABLATION_LINES = ("card 0 eq ", "card 7 eq ", "card 10 eq ", "card 19 eq ",
                  "nonimp 0 17 ", "nonimp 4 16 ", "nonimp 11 20 ", "nonimp 17 3 ",
                  "nonimp 18 3 ", "nonimp 18 12 ", "nonimp 19 18 ")
CONTRADICTION_LINE = "arrow 18 8"
# Per-deck op counts.  Fixed, so every seed's deck costs about the same.
# The kb decks are small, so each op repeats several times in a run.
CLI_MIX = {"table": 2, "diff": 2, "query": 3, "explain": 2, "card": 2, "problems": 1}
CLI_ABLATED_DIFF, CLI_ABLATED_TABLE, CLI_CONTRADICTION = 1, 1, 2
AUDIT_MIX = {"default": 3, "shuffled": 3, "ablated": 2}
# The gamma deck is the whole catalog, 10 families per class, so every
# seed's deck costs the same; the seed picks the order and the formats.
GAMMA_MIX = {"ftau_early": 10, "ftau_late": 10, "ftau_infeasible": 10,
             "odiag_early": 10, "odiag_late": 10, "odiag_infeasible": 10}
FACT_KEYWORDS = ("arrow", "card", "nonimp")


# --- tracing -------------------------------------------------------------


class Tracer:
    """Spans kept in memory: (name, op id, parent index, start, end, calls)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op: int | str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, n: int = 1):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, self.op, parent, t0, t1, n)

    def per_call_ms(self) -> dict[str, list[float]]:
        """Per-call durations by span name; probe spans only where the
        workload recorded none of that name."""
        own: dict[str, list[float]] = {}
        probe: dict[str, list[float]] = {}
        for name, op, _, t0, t1, n in self.spans:
            (probe if op == "probe" else own).setdefault(name, []).append((t1 - t0) * 1000 / n)
        return {**probe, **own}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as f:
            for name, op, parent, t0, t1, n in self.spans:
                f.write(json.dumps({"name": name, "op": op, "parent": parent, "calls": n,
                                    "start_ms": (t0 - origin) * 1000, "dur_ms": (t1 - t0) * 1000}) + "\n")


def _no_span(name: str, n: int = 1):
    return nullcontext()


# --- shared helpers ------------------------------------------------------


def run_child(args: list[str], python_args: tuple = ()) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *python_args, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, timeout=OP_TIMEOUT_S)
    return perf_counter() - t0, proc


def run_taukb(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    return run_child(["-c", ENTRY, *argv])


def taukb_modules() -> tuple:
    """The layers called in process: formats, models, engine, gamma."""
    importlib.import_module("taukb")
    return tuple(importlib.import_module(f"taukb.{m}") for m in ("formats", "models", "engine", "gamma"))


def fresh_taukb() -> tuple:
    """Import taukb as a first import would, even if an earlier set-up did."""
    for name in [m for m in sys.modules if m == "taukb" or m.startswith("taukb.")]:
        del sys.modules[name]
    return taukb_modules()


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def deck_medians(latencies: list[float], deck_size: int) -> list[float]:
    """Each deck op's median over its repeats.  The loop cycles through the
    deck, so op k repeats op k - deck_size; every deck op weighs the same,
    however many repeats the run fit in."""
    return [statistics.median(latencies[p::deck_size]) for p in range(min(deck_size, len(latencies)))]


def calibration_kernel() -> int:
    """Fixed interpreter work on dicts, sets, tuples and strings, in the
    standard library only, so the program under test cannot change it."""
    total = 0
    for _ in range(CAL_REPS):
        edges: dict[int, set[int]] = {}
        for i in range(6000):
            edges.setdefault(i % 1009, set()).add((i * 7919) % 1009)
        reach = {a: set(bs) for a, bs in edges.items()}
        for _ in range(2):
            for a in reach:
                extra: set[int] = set()
                for b in reach[a]:
                    extra |= edges.get(b, set())
                reach[a] |= extra
        total += sum(len(f"p{a}:{len(bs)}") for a, bs in sorted(reach.items()))
    return total


class HostClock:
    """The host's speed, from a calibration sample taken before every op.

    On a shared host the same op takes up to 1.7x longer in a slow phase.
    The two vCPUs of the VM this was built on often ran at different
    speeds, and which one was slow changed every few seconds, so the run
    stays on one CPU (pin_to_one_cpu) and a sample measures the CPU the op
    runs on.  A sample is the calibration kernel in process plus a bare
    interpreter start in a child, the two kinds of work the ops do; neither
    touches the program under test.  A time scaled by CAL_REF_MS over the
    samples nearest to it is the time at the reference speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, ms)

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_kernel()
        _, proc = run_child(["-c", "pass"])
        if proc.returncode != 0:
            raise RuntimeError(f"bare interpreter failed: {proc.stderr.decode(errors='replace')}")
        self.samples.append((t0, (perf_counter() - t0) * 1000))

    def scale(self, t: float) -> float:
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:CAL_WINDOW]
        return CAL_REF_MS / statistics.median(ms for _, ms in near)

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


# --- kb-cli --------------------------------------------------------------


def cli_deck(rng: random.Random, ref: checks.Reference) -> list[dict]:
    def op(cmd, args=(), facts="default", line=None):
        return {"cmd": cmd, "args": list(args), "fmt": rng.choice(("table", "jsonl")),
                "facts": facts, "line": line, "path": None}

    def cmd_args(cmd):
        if cmd == "query":
            return [rng.randrange(checks.SERIALS), rng.randrange(checks.SERIALS)]
        if cmd == "explain":
            return list(rng.choice(ref.settled()))
        if cmd == "card":
            return [rng.randrange(checks.SERIALS)]
        return []

    deck = [op(cmd, cmd_args(cmd)) for cmd, count in CLI_MIX.items() for _ in range(count)]
    lines = rng.sample(ABLATION_LINES, CLI_ABLATED_DIFF + CLI_ABLATED_TABLE)
    deck += [op("diff" if k < CLI_ABLATED_DIFF else "table", facts="ablated", line=line)
             for k, line in enumerate(lines)]
    for _ in range(CLI_CONTRADICTION):
        cmd = rng.choice(("table", "diff", "query", "explain", "card"))
        deck.append(op(cmd, cmd_args(cmd), facts="contradiction"))
    rng.shuffle(deck)
    return deck


def ablate(text: str, prefix: str) -> str:
    lines = text.splitlines()
    for k, line in enumerate(lines):
        if line.startswith(prefix):
            return "\n".join(lines[:k] + lines[k + 1:]) + "\n"
    raise ValueError(f"no fact line starts with {prefix!r}")


def cli_argv(op: dict) -> list[str]:
    argv = ["--format", op["fmt"]]
    if op["path"]:
        argv += ["--facts", op["path"]]
    return argv + [op["cmd"], *map(str, op["args"])]


def cli_replay(mods, op: dict, span) -> None:
    """The op's layer calls, made in process as the CLI makes them."""
    formats, models, engine, _ = mods
    if op["cmd"] == "problems":
        with span("formats.list_problems"):
            formats.list_problems()
        return
    if op["facts"] == "default":
        with span("formats.load_default_facts"):
            ff = formats.load_default_facts()
    else:
        text = Path(op["path"]).read_text(encoding="utf-8")
        with span("formats.parse_facts"):
            ff = formats.parse_facts(text)
    with span("models.load_default_registry"):
        registry = models.load_default_registry()
    with span("models.validate"):
        registry.validate()
    with span("engine.build_knowledge_base"):
        kb = engine.build_knowledge_base(ff, registry)
    if op["facts"] == "contradiction":
        try:
            with span("engine.close_contradiction"):
                engine.close(kb)
        except engine.Contradiction:
            return
        raise AssertionError("contradictory fact base closed without Contradiction")
    with span("engine.close"):
        result = engine.close(kb)
    props = result.serial_properties()
    cmd, args = op["cmd"], op["args"]
    if cmd == "table":
        with span("formats.render_table"):
            formats.render_table(result.serial_grid())
    elif cmd == "diff":
        with span("formats.load_reference_table"):
            table = formats.load_reference_table()
        engine.diff(result.serial_grid(), [list(r) for r in table.grid])
    elif cmd == "query":
        engine.query(result, props[args[0]], props[args[1]])
    elif cmd == "explain":
        with span("engine.explain"):
            engine.explain(result, props[args[0]], props[args[1]])
    elif cmd == "card":
        with span("engine.derive_cardinality"):
            engine.derive_cardinality(result, props[args[0]])


class KbCli:
    subprocess_ops = True

    def __init__(self, seed: int, work: Path, ref: checks.Reference):
        self.seed, self.work, self.ref = seed, work, ref

    def setup(self, rep: int) -> None:
        deck = cli_deck(random.Random(self.seed), self.ref)
        base = BASE_FACTS.read_text(encoding="utf-8")
        out = self.work / f"setup{rep}"
        out.mkdir(parents=True)
        contradiction = out / "contradiction.txt"
        contradiction.write_text(base + f"\n{CONTRADICTION_LINE}\n", encoding="utf-8")
        for k, op in enumerate(deck):
            if op["facts"] == "ablated":
                path = out / f"ablated{k}.txt"
                path.write_text(ablate(base, op["line"]), encoding="utf-8")
                op["path"] = str(path)
            elif op["facts"] == "contradiction":
                op["path"] = str(contradiction)
        _, proc = run_child(["-c", "import taukb.cli, taukb.engine as e; e.load_default_kb()"])
        if proc.returncode != 0:
            raise RuntimeError(f"first import failed: {proc.stderr.decode(errors='replace')}")
        self.deck = deck

    def op(self, k: int) -> tuple[float, bytes, str | None]:
        op = self.deck[k % len(self.deck)]
        elapsed, proc = run_taukb(cli_argv(op))
        err = checks.check_cli(self.ref, op, proc.returncode, proc.stdout.decode("utf-8", "replace"),
                               proc.stderr.decode("utf-8", "replace"))
        return elapsed, proc.stdout, err

    def replay(self, k: int, mods, span) -> None:
        cli_replay(mods, self.deck[k % len(self.deck)], span)


# --- kb-audit ------------------------------------------------------------


def audit_variants(rng: random.Random, base: str) -> list[tuple[str, str]]:
    lines = base.splitlines()
    fact_idx = [k for k, line in enumerate(lines) if line.split(" ", 1)[0] in FACT_KEYWORDS]
    others = [line for k, line in enumerate(lines) if k not in set(fact_idx)]
    variants = [("default", base)] * AUDIT_MIX["default"]
    for _ in range(AUDIT_MIX["shuffled"]):
        facts = [lines[k] for k in fact_idx]
        rng.shuffle(facts)
        variants.append(("shuffled", "\n".join(others + facts) + "\n"))
    for k in rng.sample(fact_idx, AUDIT_MIX["ablated"]):
        variants.append(("ablated", "\n".join(lines[:k] + lines[k + 1:]) + "\n"))
    rng.shuffle(variants)
    return variants


def audit_session(mods, ff, span):
    """One library session: every settled cell explained, every serial's
    cardinality derived."""
    _, models, engine, _ = mods
    with span("models.load_default_registry"):
        registry = models.load_default_registry()
    with span("engine.build_knowledge_base"):
        kb = engine.build_knowledge_base(ff, registry)
    with span("engine.close"):
        result = engine.close(kb)
    with span("engine.replay_all"):
        replayed = engine.replay_all(result, kb)
    settled = [cell for cell, j in result.matrix.items() if str(j.verdict) != "Unknown"]
    with span("engine.explain", n=len(settled)):
        texts = [engine.explain(result, a, b) for a, b in settled]
    serials = result.serial_properties()
    with span("engine.derive_cardinality", n=len(serials)):
        cards = [engine.derive_cardinality(result, p) for p in serials]
    return result, replayed, settled, texts, cards


def check_session(ref: checks.Reference, kind: str, session) -> str | None:
    from taukb.core import render_expr

    result, replayed, settled, texts, cards = session
    symbol = {v: k for k, v in checks.SYMBOL_VERDICT.items()}
    rows = ["".join(symbol[str(v)] for v in row) for row in result.serial_grid()]
    conclusions = []
    for (a, b), text in zip(settled, texts):
        arrow = "->" if str(result.matrix[(a, b)].verdict) == "Implies" else "-/->"
        conclusions.append((a.serial, b.serial, f"{a.name} {arrow} {b.name}", text.splitlines()[-1]))
    card_rows = [(p.serial, None if r.exact is None else render_expr(r.exact),
                  [render_expr(e) for e in r.lower], [render_expr(e) for e in r.upper])
                 for p, r in zip(result.serial_properties(), cards)]
    return checks.check_audit(ref, kind == "ablated", rows, replayed, len(settled), conclusions, card_rows)


class KbAudit:
    subprocess_ops = False

    def __init__(self, seed: int, work: Path, ref: checks.Reference):
        self.seed, self.work, self.ref = seed, work, ref

    def setup(self, rep: int, span=_no_span) -> None:
        variants = audit_variants(random.Random(self.seed), BASE_FACTS.read_text(encoding="utf-8"))
        self.mods = fresh_taukb()
        formats, models, engine, _ = self.mods
        with span("formats.load_default_facts"):
            default = formats.load_default_facts()
        with span("models.load_default_registry"):
            registry = models.load_default_registry()
        with span("models.validate"):
            registry.validate()
        engine.build_knowledge_base(default, registry)  # loading the KB is part of set-up
        self.deck = []
        for kind, text in variants:
            with span("formats.parse_facts"):
                self.deck.append((kind, formats.parse_facts(text)))

    def op(self, k: int, span=_no_span) -> tuple[float, bytes, str | None]:
        kind, ff = self.deck[k % len(self.deck)]
        t0 = perf_counter()
        session = audit_session(self.mods, ff, span)
        elapsed = perf_counter() - t0
        return elapsed, b"", check_session(self.ref, kind, session)


# --- gamma-search --------------------------------------------------------


def gamma_deck(rng: random.Random) -> list[dict]:
    catalog = json.loads((BENCH / "gamma_catalog.json").read_text(encoding="utf-8"))
    deck = []
    for cls, count in GAMMA_MIX.items():
        pool = [inst for inst in catalog if inst["class"] == cls]
        deck += [dict(inst, fmt=rng.choice(("table", "jsonl"))) for inst in rng.sample(pool, count)]
    rng.shuffle(deck)
    return deck


def family_text(inst: dict) -> str:
    return "\n\n".join("\n".join(rows) for rows in inst["arrays"]) + "\n"


def gamma_argv(inst: dict) -> list[str]:
    argv = ["--format", inst["fmt"], inst["cmd"], inst["path"], "--col-bound", str(inst["col_bound"])]
    if inst["cmd"] == "diag":
        argv += ["--size-bound", str(inst["size_bound"]), "--hit-quota", str(inst["hit_quota"]),
                 "--exceptions", str(inst["exceptions"])]
    return argv


def gamma_replay(mods, inst: dict, span) -> None:
    gamma = mods[3]
    text = family_text(inst)
    with span("gamma.parse_family_file"):
        arrays = gamma.parse_family_file(text)
    cb = inst["col_bound"]
    kind = inst["class"].split("_", 1)
    if inst["cmd"] == "diag":
        fam = gamma.GammaFamily(tuple(arrays))
        with span(f"gamma.ftau_search_{kind[1]}"):
            witness = gamma.finitely_tau_diagonalizable(fam, cb, inst["size_bound"], inst["hit_quota"],
                                                        inst["exceptions"])
        if witness is not None:
            with span("gamma.verify_selector"):
                ok = gamma.verify_selector(fam, witness, cb)
    else:
        with span(f"gamma.odiag_search_{kind[1]}"):
            witness = gamma.o_diagonalizable(arrays, cb)
        if witness is not None:
            with span("gamma.verify_diagonalizer"):
                ok = gamma.verify_diagonalizer(arrays, witness, cb)
    if (witness is not None) != inst["expected"] or (witness is not None and not ok):
        raise AssertionError(f"in-process {inst['cmd']} disagrees with the oracle")


class GammaSearch:
    subprocess_ops = True

    def __init__(self, seed: int, work: Path, ref: checks.Reference):
        self.seed, self.work = seed, work
        sys.path.append(str(NAIVE.parent))
        self.naive = importlib.import_module("naive")

    def setup(self, rep: int) -> None:
        deck = gamma_deck(random.Random(self.seed))
        out = self.work / f"setup{rep}"
        out.mkdir(parents=True)
        for k, inst in enumerate(deck):
            path = out / f"family{k}.txt"
            path.write_text(family_text(inst), encoding="utf-8")
            inst["path"] = str(path)
        _, proc = run_child(["-c", "import taukb.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"first import failed: {proc.stderr.decode(errors='replace')}")
        self.deck = deck

    def op(self, k: int) -> tuple[float, bytes, str | None]:
        inst = self.deck[k % len(self.deck)]
        elapsed, proc = run_taukb(gamma_argv(inst))
        err = checks.check_gamma(self.naive, inst, proc.returncode, proc.stdout.decode("utf-8", "replace"),
                                 proc.stderr.decode("utf-8", "replace"))
        return elapsed, proc.stdout, err

    def replay(self, k: int, mods, span) -> None:
        gamma_replay(mods, self.deck[k % len(self.deck)], span)


WORKLOADS = {"kb-cli": KbCli, "kb-audit": KbAudit, "gamma-search": GammaSearch}


# --- probes for the traced run -------------------------------------------


def import_ms(stderr: str) -> float:
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| taukb\.cli\s*$", line)
        if m:
            return int(m[1]) / 1000
    raise RuntimeError("no taukb.cli line in -X importtime output")


def probe_cli(tracer: Tracer) -> list[float]:
    """Interpreter floor and import cost, measured in fresh processes."""
    imports = []
    for _ in range(PROBE_REPS):
        with tracer.span("cli.interp"):
            _, proc = run_child(["-c", "pass"])
        _, proc = run_child(["-c", "import taukb.cli"], ("-X", "importtime"))
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        imports.append(import_ms(proc.stderr.decode("utf-8", "replace")))
    return imports


def probe_kb(mods, tracer: Tracer, ref: checks.Reference, problems: list[str]) -> dict[str, int]:
    """Every kb layer on the default inputs; the exact counts come from here."""
    formats, models, engine, _ = mods
    span = tracer.span
    base = BASE_FACTS.read_text(encoding="utf-8")
    for _ in range(PROBE_REPS):
        with span("formats.load_default_facts"):
            ff = formats.load_default_facts()
        with span("formats.parse_facts"):
            formats.parse_facts(base)
        with span("models.validate"):
            models.load_default_registry().validate()
        session = audit_session(mods, ff, span)
        err = check_session(ref, "default", session)
        if err:
            problems.append(f"probe: {err}")
        with span("formats.render_table"):
            formats.render_table(session[0].serial_grid())
        with span("formats.load_reference_table"):
            formats.load_reference_table()
        with span("formats.list_problems"):
            formats.list_problems()
        kb = engine.build_knowledge_base(formats.parse_facts(base + f"\n{CONTRADICTION_LINE}\n"),
                                         models.load_default_registry())
        try:
            with span("engine.close_contradiction"):
                engine.close(kb)
            problems.append("probe: contradictory fact base closed without Contradiction")
        except engine.Contradiction:
            pass
    result = session[0]
    steps = sum(len(result.matrix[cell].trace) for cell in session[2])
    steps += sum(len(t) for t in result.exact_traces.values())
    return {"engine.close_rounds": result.iterations, "engine.settled_cells": len(session[2]),
            "engine.trace_steps": steps}


def probe_gamma(mods, tracer: Tracer, seed: int, problems: list[str]) -> None:
    for inst in gamma_deck(random.Random(seed)):
        try:
            gamma_replay(mods, inst, tracer.span)
        except AssertionError as e:
            problems.append(f"probe: {e}")


# --- the run -------------------------------------------------------------


def timed_setup(workload, rep: int, tracer: Tracer | None) -> tuple[float, float]:
    """The set-up's start and its wall time in seconds."""
    t0 = perf_counter()
    if tracer and not workload.subprocess_ops:
        tracer.op = "setup"
        workload.setup(rep, tracer.span)
    else:
        workload.setup(rep)
    return t0, perf_counter() - t0


def measure(workload, seconds: float, tracer: Tracer | None):
    """Closed loop for `seconds`: returns the op latencies at the reference
    speed, the raw latencies, failures, stdout bytes of the first deck pass,
    the loop's wall time, the set-up times at the reference speed and the
    median calibration time.

    The first set-up runs before the loop.  The others run between ops at
    even intervals, so that their median does not hang on the host's speed
    in the first second of the run; they are not part of any op.  A
    calibration sample is taken before every op, outside its latency."""
    clock = HostClock()
    for _ in range(CAL_WINDOW):  # also the warm-up
        clock.sample()
    setups = [timed_setup(workload, 0, tracer)]
    ops: list[tuple[float, float]] = []  # (start, ms)
    failures: list[str] = []
    first_pass_bytes = 0
    mods = taukb_modules() if tracer and workload.subprocess_ops else None
    t_start = perf_counter()
    k = 0
    while perf_counter() - t_start < seconds:
        if len(setups) < SETUP_REPS and \
                perf_counter() - t_start >= seconds * len(setups) / SETUP_REPS:
            setups.append(timed_setup(workload, len(setups), tracer))
        clock.sample()
        if tracer:
            tracer.op = k
        t_op = perf_counter()
        try:
            if tracer and workload.subprocess_ops:
                with tracer.span("op"):
                    elapsed, out, err = workload.op(k)
                with tracer.span("replay"):
                    workload.replay(k, mods, tracer.span)
            elif tracer:
                with tracer.span("op"):
                    elapsed, out, err = workload.op(k, tracer.span)
            else:
                elapsed, out, err = workload.op(k)
        except Exception as e:  # an op that raises is a failed op; the loop goes on
            elapsed, out, err = perf_counter() - t_op, b"", f"{type(e).__name__}: {e}"
        ops.append((t_op, elapsed * 1000))
        if k < len(workload.deck):
            first_pass_bytes += len(out)
        if err:
            failures.append(f"op {k}: {err}")
        k += 1
    wall = perf_counter() - t_start
    while len(setups) < SETUP_REPS:  # a run too short to fit them all
        setups.append(timed_setup(workload, len(setups), tracer))
    for _ in range(CAL_WINDOW):  # the last ops get samples on both sides
        clock.sample()
    latencies = [ms * clock.scale(t) for t, ms in ops]
    setup_times = [sec * clock.scale(t) for t, sec in setups]
    return (latencies, [ms for _, ms in ops], failures, first_pass_bytes, wall, setup_times,
            clock.median_ms())


def layer_metrics(args, tracer: Tracer, ref, per_op: list[float], stdout_bytes: int,
                  problems: list[str]) -> dict:
    """Per-layer metrics from the traced run's spans plus the probes."""
    tracer.op = "probe"
    mods = taukb_modules()
    imports = probe_cli(tracer)
    counts = probe_kb(mods, tracer, ref, problems)
    if counts["engine.settled_cells"] != checks.SETTLED_CELLS:
        problems.append(f"{counts['engine.settled_cells']} settled cells, expected {checks.SETTLED_CELLS}")
    probe_gamma(mods, tracer, args.seed, problems)
    if not stdout_bytes:  # a workload without CLI ops: the default table's payload
        _, proc = run_taukb(["table"])
        stdout_bytes = len(proc.stdout)
    tracer.write(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl")
    per_call = tracer.per_call_ms()
    metrics = {name: statistics.median(per_call[name[:-3]])
               for name in PER_LAYER if name.endswith("_ms") and name[:-3] in per_call}
    metrics.update(counts)
    metrics.update({"cli.import_ms": statistics.median(imports), "cli.stdout_bytes": stdout_bytes,
                    "gamma.nominal_space": sum(i["space"] for i in gamma_deck(random.Random(args.seed))),
                    "trace.op_ms_p50": statistics.median(per_op)})
    return metrics


def run(args) -> tuple[dict, int, list[str], list[str]]:
    """Returns the metrics, the ops attempted, the failed ops and any other
    failed check."""
    ref = checks.Reference(ROOT)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    problems: list[str] = []
    try:
        workload = WORKLOADS[args.workload](args.seed, work, ref)
        latencies, raw, failures, stdout_bytes, wall, setup_times, cal_ms = \
            measure(workload, args.seconds, tracer)
        print(f"timed phase: {len(raw)} ops in {wall:.1f} s, {len(raw) / wall:.3f} ops/s, "
              f"raw median of all ops {statistics.median(raw):.2f} ms, "
              f"calibration {cal_ms:.2f} ms (reference {CAL_REF_MS:g} ms)")
        per_op = deck_medians(latencies, len(workload.deck))
        if tracer:
            metrics = layer_metrics(args, tracer, ref, per_op, stdout_bytes, problems)
        else:
            metrics = {"setup_s": statistics.median(setup_times), "ops_per_s": 1000 * len(per_op) / sum(per_op),
                       "op_ms_p50": statistics.median(per_op), "op_ms_p90": percentile(latencies, 90),
                       "peak_rss_mb": peak_rss_mb()}
        return metrics, len(latencies), failures, problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pin_to_one_cpu() -> None:
    """Keep the benchmark and its children on one CPU: the run then sees
    one CPU's speed, which the calibration samples measure."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (BASE_FACTS, SRC / "taukb" / "cli.py", NAIVE) if not p.is_file()]
    if missing:
        print(f"error: run from a taukb checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    metrics, attempted, failures, problems = run(args)
    units = PER_LAYER if args.trace else END_TO_END
    absent = sorted(set(units) - set(metrics))
    if absent:
        problems.append(f"metrics not measured: {absent}")
    for f in (failures + problems)[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, {len(failures)} failed, "
          f"fail_share {len(failures) / attempted:g}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:14.4f} {unit}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items() if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
