"""Record the gamma-search instance catalog with oracle verdicts.

Run once from the repository root:

    python3 perfbench/record_gamma.py

It draws random families of fixed shape and classifies each by where the
package search finds its witness: early, late, or nowhere (infeasible).  It
then times every candidate in several passes, keeps its fastest pass, and
keeps per class the PER_CLASS families whose search time is closest to one
common target, so that every seed's deck costs about the same.  The
expected verdict of each kept instance comes from the independent
brute-force oracle in tests/naive.py, which is only read.  The result is
written to perfbench/gamma_catalog.json; run.py replays it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

import naive  # noqa: E402
from taukb import gamma  # noqa: E402

PER_CLASS = 10
CANDIDATES = 25  # per class, before the timing selection
PASSES = 3
# Shapes fixed per command, so every deck has the same nominal space.
FTAU = {"rows": 6, "col_bound": 4, "size_bound": 1}  # 5^6 selector tuples
ODIAG = {"rows": 7, "col_bound": 4}  # 4^7 choice vectors
EARLY_SHARE = 0.05  # witness within the first 5% of the lex order
LATE_SHARE = 0.30  # witness after 30% of the lex order


def _rows_text(arrays) -> list[list[str]]:
    return [[f"{r.word}/{r.tail}" for r in a.rows] for a in arrays]


def _draw_arrays(rng, count, rows, word_len, zero_density, tail):
    return [gamma.GammaArray(tuple(
        gamma.Row("".join("0" if rng.random() < zero_density else "1" for _ in range(word_len)), tail)
        for _ in range(rows))) for _ in range(count)]


def _search(c: dict):
    if c["cmd"] == "diag":
        return gamma.finitely_tau_diagonalizable(gamma.GammaFamily(tuple(c["arrays"])), c["col_bound"],
                                                 c["size_bound"], c["hit_quota"], c["exceptions"])
    return gamma.o_diagonalizable(c["arrays"], c["col_bound"])


def _ftau_candidate(seed: int) -> dict:
    rng = random.Random(seed)
    count = rng.randint(2, 3)
    quota, exceptions = rng.randint(3, 5), rng.randint(0, 1)
    # words longer than col_bound: the tails are out of reach of the search
    arrays = _draw_arrays(rng, count, FTAU["rows"], 5, rng.choice([0.6, 0.7, 0.8]), 1)
    cb, sb = FTAU["col_bound"], FTAU["size_bound"]
    c = {"cmd": "diag", "arrays": arrays, "col_bound": cb, "size_bound": sb,
         "hit_quota": quota, "exceptions": exceptions}
    witness = _search(c)
    pool = sorted(((), *((col,) for col in range(cb))), key=lambda s: (len(s), s))
    space = len(pool) ** FTAU["rows"]
    rank = None
    if witness is not None:
        rank = 0
        for s in witness.sets:
            rank = rank * len(pool) + pool.index(tuple(sorted(s)))
    return dict(c, space=space, rank=rank)


def _odiag_candidate(seed: int) -> dict:
    rng = random.Random(seed)
    arrays = _draw_arrays(rng, rng.randint(12, 20), ODIAG["rows"], 4, rng.choice([0.85, 0.88]), 0)
    cb = ODIAG["col_bound"]
    c = {"cmd": "odiag", "arrays": arrays, "col_bound": cb}
    witness = _search(c)
    rank = None
    if witness is not None:
        rank = 0
        for g in witness.choices:
            rank = rank * cb + g
    return dict(c, space=cb ** ODIAG["rows"], rank=rank)


def _classify(c: dict) -> str | None:
    if c["rank"] is None:
        return "infeasible"
    share = c["rank"] / c["space"]
    if share < EARLY_SHARE:
        return "early"
    return "late" if share >= LATE_SHARE else None


def _oracle(c: dict) -> bool:
    if c["cmd"] == "diag":
        return naive.ftau_exists(c["arrays"], c["col_bound"], c["size_bound"],
                                 c["hit_quota"], c["exceptions"])
    return naive.odiag_exists(c["arrays"], c["col_bound"])


def main() -> None:
    pools: dict[str, list[dict]] = {}
    for prefix, make in (("ftau", _ftau_candidate), ("odiag", _odiag_candidate)):
        for cls in ("early", "late", "infeasible"):
            pools[f"{prefix}_{cls}"] = []
        seed = 0
        while any(len(pools[f"{prefix}_{cls}"]) < CANDIDATES for cls in ("early", "late", "infeasible")):
            seed += 1
            c = make(seed)
            cls = _classify(c)
            if cls is not None and len(pools[f"{prefix}_{cls}"]) < CANDIDATES:
                pools[f"{prefix}_{cls}"].append(dict(c, draw_seed=seed))
    everyone = [c for pool in pools.values() for c in pool]
    for c in everyone:
        c["ms"] = float("inf")
    for _ in range(PASSES):  # passes apart in time, so a slow spell of the host hits one pass only
        for c in everyone:
            t0 = time.perf_counter()
            _search(c)
            c["ms"] = min(c["ms"], (time.perf_counter() - t0) * 1000)
    heavy = [c["ms"] for cls, pool in pools.items() if not cls.endswith("early") for c in pool]
    target = statistics.median(heavy)
    catalog = []
    for cls, pool in pools.items():
        for c in sorted(pool, key=lambda c: abs(c["ms"] - target))[:PER_CLASS]:
            expected = _oracle(c)
            if expected != (c["rank"] is not None):
                raise SystemExit(f"{cls} seed {c['draw_seed']}: package and oracle disagree")
            entry = {k: v for k, v in c.items() if k not in ("arrays", "rank", "ms")}
            entry.update({"class": cls, "expected": expected, "arrays": _rows_text(c["arrays"])})
            catalog.append(entry)
            print(f"{cls:17s} seed {c['draw_seed']:4d} {c['ms']:6.1f} ms", file=sys.stderr)
    out = Path(__file__).resolve().parent / "gamma_catalog.json"
    out.write_text(json.dumps(catalog, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(catalog)} instances to {out}; heavy target {target:.1f} ms", file=sys.stderr)


if __name__ == "__main__":
    main()
