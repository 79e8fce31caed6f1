"""Compare two result sets of the end-to-end benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are files written by ``bench_e2e.py --out``: JSON lists
of run records.  ``FILE:KEY`` selects the list stored under ``KEY`` of
a JSON object, as in ``results/BENCH_e2e.json:A``.  ``A`` is the
baseline (the parent commit), ``B`` the candidate.

For every (end-to-end metric, workload) pair of the untraced runs it
prints each side's median and quartiles and a verdict against the
metric's ``bound`` in ``BENCHMARK.json``:

* ``agree`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — either side's quartile spread, as a share of its
  median, exceeds the bound, unless every B run reads better than every
  A run.

It also reports, per workload, whether the fingerprints of the modelled
outputs are identical for each seed and the failed-op share of each
side.  The exit status is 1 when any pair regressed or B fails a larger
share of ops than A, else 0.  Changed fingerprints are reported but do
not fail the comparison: a change to the model moves them on purpose.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_records(argument: str) -> list[dict]:
    """Untraced run records from ``FILE`` or ``FILE:KEY``."""
    path, _, key = argument.partition(":")
    data = json.loads(Path(path).read_text())
    records = data[key] if key else data
    return [record for record in records if not record["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, relative worsening of B's median vs A's)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        b_wins = all(sign * (y - x) < 0 for x in a for y in b)
        return ("agree" if b_wins else "unresolved"), worse
    return ("regressed" if worse > bound else "agree"), worse


def _by_workload(records: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _fingerprints(records: list[dict]) -> dict[int, set]:
    prints: dict[int, set] = {}
    for record in records:
        prints.setdefault(record["seed"], set()).add(record["fingerprint"])
    return prints


def _failed_share(records: list[dict]) -> float:
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / max(attempted, 1)


def compare(a_records: list[dict], b_records: list[dict],
            spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether B regressed against A."""
    a_sets, b_sets = _by_workload(a_records), _by_workload(b_records)
    lines = [f"{'metric':14s} {'workload':14s} {'A q1/median/q3':>32s} "
             f"{'B q1/median/q3':>32s} {'B gain':>8s}  verdict"]
    regressed = False
    for workload in sorted(set(a_sets) & set(b_sets)):
        a_runs, b_runs = a_sets[workload], b_sets[workload]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            result, worse = verdict(a, b, entry["better"], entry["bound"])
            regressed |= result == "regressed"
            cells = ["/".join(f"{v:.4g}" for v in quartiles(side))
                     for side in (a, b)]
            lines.append(f"{name:14s} {workload:14s} {cells[0]:>32s} "
                         f"{cells[1]:>32s} {-worse:+8.2%}  {result} "
                         f"(bound {entry['bound']:.0%}, n={len(a)}/{len(b)})")
        a_prints, b_prints = _fingerprints(a_runs), _fingerprints(b_runs)
        changed = [seed for seed in sorted(set(a_prints) | set(b_prints))
                   if len(a_prints.get(seed, set())
                          | b_prints.get(seed, set())) > 1]
        lines.append(f"{'fingerprints':14s} {workload:14s} "
                     + ("identical per seed" if not changed else
                        f"CHANGED for seeds {changed}"))
        a_failed, b_failed = _failed_share(a_runs), _failed_share(b_runs)
        regressed |= b_failed > a_failed
        lines.append(f"{'failed ops':14s} {workload:14s} "
                     f"A {a_failed:.2%}  B {b_failed:.2%}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A B", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(load_records(argv[0]), load_records(argv[1]),
                               spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
