"""The bodies of `taukb table`, `query` and `card`, and the closure that every
command on a knowledge base reads; taukb.cli declares the commands."""

from __future__ import annotations

from . import TaukbError, engine, formats, models, read_text
from .core import SERIAL_COUNT, CardinalAtom, render_expr


def _close(options):
    """The closure of the KB that the options' facts and models name."""
    facts = formats.load_facts(options["facts"]) if options["facts"] else formats.load_default_facts()
    registry = (models.load_registry(read_text(options["models"])) if options["models"]
                else models.load_default_registry())
    return engine.close(engine.build_knowledge_base(facts, registry))


def _serial_grid(result):
    """The closure's 22x22 verdict grid; a fact file that leaves a serial
    undeclared is a TaukbError naming each one."""
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


def table_command(options):
    text = formats.render_table(_serial_grid(_close(options)))
    rows = [{"serial": i, "row": line} for i, line in enumerate(text.strip().splitlines())]
    return text, rows


def query_command(options, i, j):
    result = _close(options)
    judgment = engine.query(result, _serial(result, i), _serial(result, j))
    return f"{judgment.verdict}\n", [{"row": i, "col": j, "verdict": str(judgment.verdict)}]


def card_command(options, i):
    result = _close(options)
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
    return text, [payload]
