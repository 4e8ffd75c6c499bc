"""Ledger bookkeeping: the metric catalogue, machine fingerprint, golden
checksums, and the two-set comparison.

``BENCHMARK.json`` at the repository root is the schema: the names, units
and regression bounds live there and nowhere else.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

__all__ = [
    "ROOT",
    "load_spec",
    "machine_fingerprint",
    "golden_checksum",
    "write_golden",
    "quartiles",
    "compare",
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN_DIR = HERE / "golden"

#: Workloads whose results must equal another workload's: observation
#: must not perturb the simulation, so both share one committed checksum.
GOLDEN_ALIAS = {"mux_faulty_observed": "mux_faulty"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- machine fingerprint ------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_fingerprint() -> dict:
    """What must match for two ledgers' timings to be comparable, plus the
    load average at start (recorded, not compared)."""
    import numpy

    affinity = (
        sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "governor": _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Fingerprint fields on which two ledgers disagree."""
    return [
        key
        for key in ("nproc", "affinity", "python", "numpy", "machine", "governor")
        if a.get(key) != b.get(key)
    ]


# -- golden checksums ---------------------------------------------------------


def _runtime_tag() -> dict:
    import numpy

    # Simulated results depend on the RNG and libm behind these versions.
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def golden_checksum(workload: str, seed: int) -> str | None:
    """Committed checksum for (*workload*, *seed*), or None when the seed
    has no golden file or the file was recorded on another runtime."""
    path = GOLDEN_DIR / f"{seed}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("runtime") != _runtime_tag():
        print(
            f"note: golden/{seed}.json was recorded on {data.get('runtime')}; "
            "not comparable with this runtime, skipped",
            file=sys.stderr,
        )
        return None
    return data["checksums"].get(GOLDEN_ALIAS.get(workload, workload))


def write_golden(workload: str, seed: int, checksum: str) -> None:
    path = GOLDEN_DIR / f"{seed}.json"
    data = {"runtime": _runtime_tag(), "checksums": {}}
    if path.exists():
        existing = json.loads(path.read_text())
        if existing.get("runtime") == data["runtime"]:
            data = existing
    data["checksums"][GOLDEN_ALIAS.get(workload, workload)] = checksum
    GOLDEN_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- comparison ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) the way the acceptance
    check takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(ledger: dict, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in ledger["workloads"].get(workload, {}).get("runs", [])
        if metric in run.get("metrics", {})
    ]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Rows and an overall verdict for two ledgers of the same commit (or
    a parent *a* and a change *b*): per workload and end-to-end metric,
    both medians and quartiles, the bound, and

    * ``regressed``  — b's median is worse than a's by more than the bound;
    * ``unresolved`` — either set's interquartile spread is wider than the
      bound, so a shift of that size could not be seen (unless every run
      of b reads better than every run of a);
    * ``ok``         — otherwise.
    """

    def fmt(q: tuple[float, float, float]) -> str:
        return "/".join(f"{x:.4g}" for x in q)

    rows = [
        f"{'workload':<20} {'metric':<12} {'A q1/med/q3':>30} "
        f"{'B q1/med/q3':>30} {'bound':>6}  verdict"
    ]
    clean = True
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = _values(a, workload, name), _values(b, workload, name)
            if not va or not vb:
                rows.append(f"{workload:<20} {name:<12} missing in one ledger")
                clean = False
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = (
                max(vb) < min(va) if metric["better"] == "lower" else min(vb) > max(va)
            )
            if worse_by > bound:
                verdict = "regressed"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            clean = clean and verdict == "ok"
            rows.append(
                f"{workload:<20} {name:<12} {fmt(qa):>30} {fmt(qb):>30} "
                f"{bound:>6.2f}  {verdict} ({worse_by:+.1%}, spread {spread:.1%})"
            )
    return rows, clean


def exact_mismatches(a: dict, b: dict) -> list[str]:
    """Workloads whose golden checksums differ between two ledgers that
    used the same seeds — simulated results must repeat exactly."""
    out = []
    for workload, entry in a["workloads"].items():
        sums_a = {(r["seed"], r["checksum"]) for r in entry.get("runs", [])}
        sums_b = {
            (r["seed"], r["checksum"])
            for r in b["workloads"].get(workload, {}).get("runs", [])
        }
        seeds = {s for s, _ in sums_a} & {s for s, _ in sums_b}
        if {p for p in sums_a if p[0] in seeds} != {p for p in sums_b if p[0] in seeds}:
            out.append(workload)
    return out
