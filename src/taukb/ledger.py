"""The monthly problem ledger: one entry per past issue, with its status.

It imports no other taukb module, so `taukb problems` loads it beside the
package and the CLI alone; taukb.formats forwards four of its names.
"""

from typing import NamedTuple


class Open(NamedTuple):
    pass


class Solved(NamedTuple):
    answer: str
    credit: str


class PartiallySolved(NamedTuple):
    note: str


ProblemStatus = Open | Solved | PartiallySolved


class ProblemEntry(NamedTuple):
    issue: int
    statement: str
    status: ProblemStatus


# Monthly-problem ledger: one entry per past issue, plus the current
# problem of the month (issue 10) on whether cov(M) = od.
PROBLEMS: tuple[ProblemEntry, ...] = (
    ProblemEntry(1, "Is (Omega choose Gamma) = (Omega choose T)?", Open()),
    ProblemEntry(2, "Is Ufin(Gamma,Omega) = Sfin(Gamma,Omega)? If not, does Ufin(Gamma,Gamma) imply Sfin(Gamma,Omega)?", Open()),
    ProblemEntry(3, "Does there exist (in ZFC) a set satisfying Ufin(O,O) but not Ufin(O,Gamma)?", Solved("Yes", "Lubomyr Zdomsky")),
    ProblemEntry(4, "Does S1(Omega,T) imply Ufin(Gamma,Gamma)?", Open()),
    ProblemEntry(5, "Is p = p*?", Open()),
    ProblemEntry(6, "Does there exist (in ZFC) an uncountable set satisfying S1(Gamma,O)[borel]?", Open()),
    ProblemEntry(7, "If X has strong measure zero and |X| < b, must all finite powers of X have strong measure zero?", Solved("Yes", "Scheepers; Bartoszyński")),
    ProblemEntry(8, "Do X not in NON(M) and Y not in D imply that X union Y is not in COF(M)?", Open()),
    ProblemEntry(9, "Is Split(Lambda,Lambda) preserved under taking finite unions?", PartiallySolved("consistently yes")),
    ProblemEntry(10, "Problem of the month: Is cov(M) = od?", Open()),
)


def list_problems() -> list[ProblemEntry]:
    """All monthly problems in issue order, current problem of the month last."""
    return list(PROBLEMS)


def problem_status(status: ProblemStatus) -> dict[str, str]:
    """The status's name, then the values it carries, in field order: the
    jsonl fields of a problem, and what its table line shows."""
    if isinstance(status, Solved):
        return {"status": "solved", "answer": status.answer, "credit": status.credit}
    if isinstance(status, PartiallySolved):
        return {"status": "partially solved", "note": status.note}
    return {"status": "open"}


def render_problem(p: ProblemEntry) -> str:
    name, *values = problem_status(p.status).values()
    detail = (f": {values[0]}" + "".join(f" ({v})" for v in values[1:])) if values else ""
    return f"issue {p.issue}: {p.statement} [{name}{detail}]"


def problems_command(ctx):  # the body of `taukb problems`, which taukb.cli declares
    entries = list_problems()
    text = "\n".join(render_problem(p) for p in entries) + "\n"
    payload = [{"issue": p.issue, "statement": p.statement, **problem_status(p.status)}
               for p in entries]
    return text, payload
