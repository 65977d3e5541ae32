"""Output checks for the benchmark, against references that do not come from
the code under test.

* The judgment table and the query verdicts are checked against the
  hand-written reference file src/taukb/data/table1.txt, parsed here.
* Property names and cardinality labels come from the `property` lines of
  src/taukb/data/base_facts.txt, parsed here.
* The problem statuses are the ones the paper's ledger states.
* Gamma witnesses are re-checked with the brute-force oracle tests/naive.py
  (read only) or by direct evaluation.

Every check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

SYMBOL_VERDICT = {"+": "Implies", "-": "NotImplies", "?": "Unknown"}
SERIALS = 22
SETTLED_CELLS = 625  # non-Unknown cells of the default KB over all 28 properties (22 serials, 6 variants)
SOLVED, PARTIAL = {3, 7}, {9}  # problem ledger: issues 3 and 7 solved, 9 partially

EXIT_OK, EXIT_DIFF, EXIT_CONTRADICTION = 0, 1, 3


class Reference:
    """The hand-written table and the property lines, parsed independently."""

    def __init__(self, root: Path):
        data = root / "src" / "taukb" / "data"
        self.rows = [line.strip() for line in (data / "table1.txt").read_text(encoding="utf-8").splitlines()
                     if line.strip() and not line.startswith("#") and not line.startswith("frames")]
        if len(self.rows) != SERIALS or any(len(r) != SERIALS for r in self.rows):
            raise ValueError("table1.txt is not a 22x22 table")
        self.names: dict[int, str] = {}
        self.labels: dict[int, str | None] = {}
        pattern = re.compile(r'property (\d+) "([^"]+)"(?: non=(\S+))?\s*$')
        for line in (data / "base_facts.txt").read_text(encoding="utf-8").splitlines():
            m = pattern.match(line.strip())
            if m:
                self.names[int(m[1])] = m[2]
                self.labels[int(m[1])] = m[3]
        if sorted(self.names) != list(range(SERIALS)):
            raise ValueError("base_facts.txt does not declare serials 0..21")

    def verdict(self, i: int, j: int) -> str:
        return SYMBOL_VERDICT[self.rows[i][j]]

    def settled(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(SERIALS) for j in range(SERIALS) if self.rows[i][j] != "?"]

    def conclusion(self, i: int, j: int) -> str:
        arrow = "->" if self.rows[i][j] == "+" else "-/->"
        return f"{self.names[i]} {arrow} {self.names[j]}"


def canon_expr(text: str) -> tuple:
    """Structural form of a cardinal expression: covM and cov(M) agree, and
    min/max arguments are unordered."""
    text = text.strip().replace("cov(M)", "covM")
    m = re.fullmatch(r"(min|max)\{(.*)\}", text)
    if m:
        return (m[1], frozenset(canon_expr(a) for a in m[2].split(",")))
    return ("atom", text)


# --- grid checks ---------------------------------------------------------


def check_grid(ref: Reference, rows: list[str], ablated: bool) -> str | None:
    """Full equality with the reference, or for a fact base with one of the
    unsettling lines removed: no cell contradicts the reference and at least
    one settled cell became '?'."""
    err = check_grid_subset(ref, rows)
    if err:
        return err
    lost = sum(g != w for got, want in zip(rows, ref.rows) for g, w in zip(got, want))
    if ablated and not lost:
        return "ablated fact base left every cell settled"
    if not ablated and lost:
        return f"{lost} cells differ from the reference"
    return None


# --- kb-audit ------------------------------------------------------------


def check_audit(ref: Reference, ablated: bool, rows: list[str], replayed: int, settled: int,
                conclusions: list[tuple], cards: list[tuple]) -> str | None:
    """One library session.  An ablated fact base may only lose cells and
    exact values; the default and shuffled ones must give the reference.

    conclusions: (subject serial, object serial, conclusion from the verdict,
    last explain line) per settled cell; cards: (serial, exact, lower bounds,
    upper bounds) per serial, all rendered as text."""
    err = check_grid(ref, rows, ablated=False) if not ablated else check_grid_subset(ref, rows)
    if err:
        return err
    if replayed != settled:
        return f"replay_all replayed {replayed} of {settled} settled cells"
    if not ablated and settled != SETTLED_CELLS:
        return f"{settled} settled cells, expected {SETTLED_CELLS}"
    for si, sj, from_verdict, last in conclusions:
        want = ref.conclusion(si, sj) if si is not None and sj is not None else from_verdict
        if last.split(": ", 1)[-1].split(" from ")[0] != want:
            return f"explain concludes {last!r}, expected {want!r}"
    if [c[0] for c in cards] != list(range(SERIALS)):
        return "derive_cardinality did not cover serials 0..21"
    for serial, exact, lower, upper in cards:
        label = ref.labels[serial]
        if label is not None:
            if exact is None and ablated:
                continue
            if exact is None or canon_expr(exact) != canon_expr(label):
                return f"non of serial {serial} = {exact}, label {label}"
        elif not ablated and not ("cov(M)" in lower and "d" in upper):
            return f"serial {serial} bounds {lower} / {upper}, expected cov(M) and d"
    return None


def check_grid_subset(ref: Reference, rows: list[str]) -> str | None:
    """Every settled cell agrees with the reference."""
    if len(rows) != SERIALS or any(len(r) != SERIALS for r in rows):
        return f"table has shape {len(rows)} rows"
    for i, (got, want) in enumerate(zip(rows, ref.rows)):
        for j, (g, w) in enumerate(zip(got, want)):
            if g != w and g != "?":
                return f"cell ({i},{j}) is {g!r}, reference {w!r}"
    return None


# --- kb-cli --------------------------------------------------------------


def _jsonl(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()]


def check_cli(ref: Reference, op: dict, code: int, stdout: str, stderr: str) -> str | None:
    cmd, jsonl, facts = op["cmd"], op["fmt"] == "jsonl", op["facts"]
    if facts == "contradiction":
        if code != EXIT_CONTRADICTION:
            return f"exit {code}, expected {EXIT_CONTRADICTION}"
        if stdout or not stderr.startswith("contradiction:"):
            return "contradiction not reported on stderr only"
        return None
    ablated = facts == "ablated"
    want_code = EXIT_DIFF if ablated and cmd == "diff" else EXIT_OK
    if code != want_code:
        return f"exit {code}, expected {want_code}: {stderr.strip()[:200]}"
    try:
        return _check_cli_payload(ref, op, stdout, jsonl, ablated)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed {cmd} output: {e!r}"


def _check_cli_payload(ref, op, stdout, jsonl, ablated) -> str | None:
    cmd = op["cmd"]
    if cmd == "table":
        rows = [o["row"] for o in _jsonl(stdout)] if jsonl else stdout.splitlines()
        if jsonl and [o["serial"] for o in _jsonl(stdout)] != list(range(SERIALS)):
            return "jsonl table rows out of order"
        return check_grid(ref, rows, ablated)
    if cmd == "diff":
        if not ablated:
            ok = _jsonl(stdout) == [{"identical": True}] if jsonl else stdout == "identical\n"
            return None if ok else "default diff is not identical"
        cells = []
        if jsonl:
            for o in _jsonl(stdout):
                cells.append((o["row"], o["col"], o["computed"], o["reference"]))
        else:
            for line in stdout.splitlines():
                m = re.fullmatch(r"\((\d+),(\d+)\) computed=(\w+) reference=(\w+)", line)
                if not m:
                    return f"bad diff line {line!r}"
                cells.append((int(m[1]), int(m[2]), m[3], m[4]))
        if not cells:
            return "ablated diff is empty"
        for r, c, computed, reference in cells:
            if reference != ref.verdict(r, c) or computed != "Unknown":
                return f"diff cell ({r},{c}) computed={computed} reference={reference}"
        return None
    if cmd == "query":
        i, j = op["args"]
        want = ref.verdict(i, j)
        if jsonl:
            ok = _jsonl(stdout) == [{"row": i, "col": j, "verdict": want}]
        else:
            ok = stdout == want + "\n"
        return None if ok else f"query {i} {j} printed {stdout.strip()!r}, reference {want}"
    if cmd == "explain":
        i, j = op["args"]
        lines = [o["line"] for o in _jsonl(stdout)] if jsonl else stdout.splitlines()
        if not lines or any(not line.startswith(f"S{k} ") for k, line in enumerate(lines)):
            return f"explain {i} {j}: steps are not numbered S0, S1, ..."
        last = lines[-1].split(": ", 1)[-1].split(" from ")[0]
        want = ref.conclusion(i, j)
        return None if last == want else f"explain {i} {j} concludes {last!r}, expected {want!r}"
    if cmd == "card":
        return _check_card(ref, op["args"][0], stdout, jsonl)
    if cmd == "problems":
        if jsonl:
            entries = [(o["issue"], o["status"]) for o in _jsonl(stdout)]
        else:
            entries = []
            for line in stdout.splitlines():
                m = re.fullmatch(r"issue (\d+): .* \[(open|solved|partially solved)[^\]]*\]", line)
                if not m:
                    return f"bad problem line {line!r}"
                entries.append((int(m[1]), m[2]))
        want = [(n, "solved" if n in SOLVED else "partially solved" if n in PARTIAL else "open")
                for n in range(1, 11)]
        return None if entries == want else f"problem ledger {entries}"
    return f"unknown command {cmd}"


def _check_card(ref: Reference, i: int, stdout: str, jsonl: bool) -> str | None:
    name, label = ref.names[i], ref.labels[i]
    if label is not None:
        if jsonl:
            got = _jsonl(stdout)[0]["exact"]
        else:
            m = re.fullmatch(re.escape(f"non({name}) = ") + r"(\S+)\n", stdout)
            if not m:
                return f"card {i} printed {stdout.strip()!r}"
            got = m[1]
        return None if canon_expr(got) == canon_expr(label) else f"card {i} = {got}, label {label}"
    # no label: the named unknown od, bounded by cov(M) below and d above
    if jsonl:
        obj = _jsonl(stdout)[0]
        ok = "cov(M)" in obj["lower"] and "d" in obj["upper"]
    else:
        ok = stdout == f"cov(M) <= non({name}) <= d\n"
    return None if ok else f"card {i} printed {stdout.strip()!r}"


# --- gamma-search --------------------------------------------------------


class Arr:
    """Just enough of an array for the oracle: rows with word and tail."""

    class Row:
        def __init__(self, text: str):
            self.word, _, tail = text.rpartition("/")
            self.tail = int(tail)

    def __init__(self, rows: list[str]):
        self.rows = [Arr.Row(r) for r in rows]
        self.row_count = len(self.rows)

    def entry(self, n: int, m: int) -> int:
        row = self.rows[n]
        return int(row.word[m]) if m < len(row.word) else row.tail


def check_gamma(naive, inst: dict, code: int, stdout: str, stderr: str) -> str | None:
    """Verdict against the recorded oracle answer; a witness re-checked."""
    if code != EXIT_OK:
        return f"exit {code}: {stderr.strip()[:200]}"
    try:
        witness = _parse_witness(inst["cmd"], inst["fmt"], stdout)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed {inst['cmd']} output: {e!r}"
    if (witness is not None) != inst["expected"]:
        return f"{inst['cmd']} verdict {witness is not None}, oracle {inst['expected']}"
    if witness is None:
        return None
    members = [Arr(rows) for rows in inst["arrays"]]
    rows, cb = members[0].row_count, inst["col_bound"]
    if len(witness) != rows:
        return f"witness has {len(witness)} entries for {rows} rows"
    if inst["cmd"] == "diag":
        if any(len(s) > inst["size_bound"] or any(not 0 <= m < cb for m in s) for s in witness):
            return "selector set outside the bounds"
        ok = naive.selector_ok(members, witness, cb, inst["hit_quota"], inst["exceptions"])
    else:
        ok = all(0 <= g < cb for g in witness) and all(
            any(a.entry(n, witness[n]) for n in range(rows)) for a in members)
    return None if ok else f"{inst['cmd']} witness {witness} does not check out"


def _parse_witness(cmd: str, fmt: str, stdout: str):
    if fmt == "jsonl":
        (obj,) = _jsonl(stdout)
        if not obj["diagonalizable"]:
            return None
        return [list(s) for s in obj["sets"]] if cmd == "diag" else list(obj["g"])
    if stdout.startswith("not "):
        want = "not finitely tau-diagonalizable" if cmd == "diag" else "not o-diagonalizable"
        if not stdout.startswith(want):
            raise ValueError(stdout.strip())
        return None
    if cmd == "diag":
        m = re.fullmatch(r"selector: (.*)\n", stdout)
        if not m:
            raise ValueError(stdout.strip())
        return [[int(c) for c in s.strip("{}").split(",") if c] for s in m[1].split(" ")]
    m = re.fullmatch(r"g = ([\d ]+)\n", stdout)
    if not m:
        raise ValueError(stdout.strip())
    return [int(c) for c in m[1].split()]
