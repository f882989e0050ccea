"""The four fixed workloads: their inputs, their cells and their golden answers.

A workload is built in two steps. `setup(name, seed)` does everything a user
pays before the first answer (spec building, interval enumeration,
`KoszulComplex` construction) and returns the cells in an order shuffled by
the seed. Each cell is then called once; its answer is compared with the
golden value recorded at the seed commit, under a key that does not depend
on the visiting order.

The seed shuffles groups of cells, not single cells: the cells of one
`KoszulComplex` share its rank cache, so within a group the order decides
which cell pays for a rank. Keeping that order fixed keeps the per-cell
latency distribution independent of the seed.

Every call goes through a module attribute (`kkoszul.KoszulComplex`,
`kwitness.build_witness`, ...) so that the span hooks in `spans.py` see it.
Only API that ROADMAP item 5 keeps is used: `KoszulComplex` methods, no
module-level oracle wrappers, no `slice`, no `--threads`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import kpq
from kpq import acm as kacm
from kpq import cli as kcli
from kpq import combinatorics as kcomb
from kpq import koszul as kkoszul
from kpq import ranges as kranges
from kpq import witness as kwitness

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# criterion 3 and 5 grid: {n=1, d<=8} u {n=2, d<=4} u {n=3, d=2}
GRID = [(1, d) for d in range(2, 9)] + [(2, d) for d in range(2, 5)] + [(3, 2)]
PRIMES = (kkoszul.DEFAULT_PRIME, kkoszul.SECONDARY_PRIME)

# Workloads whose cells are interpreter-bound: their window times are scaled
# by the machine-speed kernel (calibration.py). acm-quadric spends ~96 % of
# its time in numpy elimination on ~650x2600 blocks, whose speed does not
# follow the pure-Python kernel (fitted elasticity 0.34 in one hour, ~0 in
# the next), so its window is reported as measured.
SCALED_WINDOW = ("veronese-grid", "witness-grid", "cli-tables")

SWEEP_ARGV = ["sweep", "--check", "duality", "--grid", "n<=2,d<=3;n=1,d<=7;n=2,d=4"]
BETTI_ARGV = ["betti", "--n", "2", "--d", "4"]


@dataclass(frozen=True)
class Cell:
    """One answer to time: `run()` returns a JSON-serialisable answer.

    `referee(answer)` returns an error string when the answer breaks a
    property the criteria require whatever the golden value says.
    """

    key: str
    run: Callable[[], object]
    referee: Callable[[object], str | None]


def _positive(answer) -> str | None:
    return None if isinstance(answer, int) and answer > 0 else f"dim {answer!r} is not > 0"


def _witness_ok(answer) -> str | None:
    ok = answer == {"certificate": True, "cycle": True, "boundary": False}
    return None if ok else f"witness verdict {answer!r}"


def _cli_ok(answer) -> str | None:
    return None if answer.get("exit") == 0 else f"exit code {answer.get('exit')}"


def admissible_cells(n: int, d: int):
    """Nonempty certified (b, q, interval) triples at one (n, d)."""
    out = []
    for b in range(d):
        for q in range(0, n + 2):
            params = kranges.VeroneseParams(n, d, b, q)
            if not kranges.admissible_q(params):
                continue
            report = kranges.veronese_range_report(params)
            if report.counts is None or report.pq.empty:
                continue
            out.append((b, q, report.pq))
    return out


def _veronese_grid() -> list[list[Cell]]:
    groups = {}
    for n, d in GRID:
        ring = kcomb.TruncatedRing(n + 1, d)
        admissible = admissible_cells(n, d)
        for prime in PRIMES:
            for b, q, pq in admissible:
                if (n, d, prime, b) not in groups:
                    cx = kkoszul.KoszulComplex(ring, b=b, field=prime)
                    groups[n, d, prime, b] = (cx, [])
                cx, cells = groups[n, d, prime, b]
                for p in pq:
                    cells.append(Cell(f"n={n},d={d},b={b},q={q},p={p},prime={prime}",
                                      partial(cx.kpq_dim, p, q), _positive))
    return [cells for _, cells in groups.values()]


def _acm_quadric() -> list[list[Cell]]:
    spec = kacm.hypersurface_spec(2, 3)
    d, b, q = 3, 0, 1
    report = kranges.acm_range_report(spec, d, b, q)
    cx = kkoszul.KoszulComplex(spec, d=d, b=b)
    return [[Cell(f"spec={spec.name},d={d},b={b},q={q},p={p}", partial(cx.kpq_dim, p, q),
                  _positive)
             for p in report.pq]]


def _witness_verdict(cx, f, p, zset, dset, params, q) -> dict:
    w = kwitness.build_witness(f, p, zset, dset, params)
    certificate = kwitness.verify_certificate(w).verdict
    return {"certificate": certificate, "cycle": cx.is_cycle(w, p, q),
            "boundary": cx.is_boundary(w, p, q)}


def _witness_grid() -> list[list[Cell]]:
    groups = {}
    for n, d in GRID:
        ring = kcomb.TruncatedRing(n + 1, d)
        for b, q, pq in admissible_cells(n, d):
            f = kwitness.leftmost_monomial(n, d, q, b)
            zset = kwitness.zero_set(f, ring)
            dset = kwitness.divisor_set(f, ring)
            params = kwitness.VeroneseWitnessParams(n=n, d=d, b=b, q=q)
            if (n, d, b) not in groups:
                groups[n, d, b] = (kkoszul.KoszulComplex(ring, b=b), [])
            cx, cells = groups[n, d, b]
            for p in pq:
                cells.append(Cell(f"n={n},d={d},b={b},q={q},p={p}",
                                  partial(_witness_verdict, cx, f, p, zset, dset, params, q),
                                  _witness_ok))
    return [cells for _, cells in groups.values()]


def _cli_call(argv: list[str]) -> dict:
    clear_caches()  # each `kpq` command is a process of its own
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kcli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def _cli_tables() -> list[list[Cell]]:
    return [[Cell(" ".join(argv), partial(_cli_call, argv), _cli_ok)]
            for argv in (SWEEP_ARGV, BETTI_ARGV)]


_BUILDERS = {
    "veronese-grid": _veronese_grid,
    "acm-quadric": _acm_quadric,
    "witness-grid": _witness_grid,
    "cli-tables": _cli_tables,
}
WORKLOADS = tuple(_BUILDERS)


def setup(name: str, seed: int) -> list[Cell]:
    """Build the workload's cells; `seed` shuffles the order of their groups."""
    groups = _BUILDERS[name]()
    random.Random(seed).shuffle(groups)
    return [cell for group in groups for cell in group]


def clear_caches() -> None:
    """Empty the package's module-level caches, so cells start cold.

    Clears every `functools` cache and every dict named `*_CACHE` found in
    a `kpq` module; a fresh `kpq` process starts with all of them empty.
    """
    for module in (kpq, kacm, kcli, kcomb, kkoszul, kranges, kwitness):
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@dataclass
class Outcome:
    """What one pass over the cells produced; `errors` maps cell key to reason."""

    starts_s: list[float]
    latencies_s: list[float]
    answers: dict
    errors: dict
    missing: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + self.missing

    @property
    def failed(self) -> int:
        return len(self.errors)


def run_cells(cells: list[Cell], golden: dict | None, clock) -> Outcome:
    """Call each cell once, timing it; check it against referee and golden.

    A cell fails when it raises (a budget skip included), breaks its
    referee, or differs from the golden answer. A golden cell the workload
    no longer produces counts as attempted and failed. Pass `golden=None`
    only when recording new golden values.
    """
    starts, latencies, answers, errors = [], [], {}, {}
    for cell in cells:
        start = clock()
        starts.append(start)
        try:
            answer = cell.run()
        except Exception as exc:  # any raise is a failed cell; keep going
            latencies.append(clock() - start)
            errors[cell.key] = f"{type(exc).__name__}: {exc}"
            continue
        latencies.append(clock() - start)
        answers[cell.key] = answer
        problem = cell.referee(answer)
        if problem is None and golden is not None:
            if cell.key not in golden:
                problem = "no golden answer"
            elif golden[cell.key] != answer:
                problem = f"answer {answer!r} differs from golden {golden[cell.key]!r}"
        if problem is not None:
            errors[cell.key] = problem
    missing = sorted(set(golden or ()) - {cell.key for cell in cells})
    for key in missing:
        errors[key] = "golden cell not produced"
    return Outcome(starts, latencies, answers, errors, len(missing))
