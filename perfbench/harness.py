"""Helpers shared by the benchmark's parent process, its workload
processes and its tests.  Standard library only: a workload process
must be able to import this before it imports ``repro``, so that the
import itself can be timed as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("sweep", "serve", "online")

#: Workload processes per untraced run.  Each one sets up from a fresh
#: interpreter and executes the same operation list, so a run yields
#: three set-up times and three throughputs (reported as medians) and
#: three outputs that must agree exactly.
PROCESSES = 3

#: Units of fixed work per measured second, per workload: ``sweep``
#: rounds (four instances, one of each kind), ``serve`` blocks of ten
#: requests (one cold, nine warm), ``online`` traces.  Sized from a
#: 2-core x86 host so that a run measures about ``--seconds`` in total;
#: the work is a function of ``--seconds`` alone, never of the clock.
UNITS_PER_SECOND = {"sweep": 1.1, "serve": 30.0, "online": 12.0}


def work_units(workload: str, seconds: float) -> int:
    """Fixed size of one workload process's operation list."""
    return max(1, round(UNITS_PER_SECOND[workload] * seconds / PROCESSES))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``q`` in (0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def digest(items) -> str:
    """Short stable digest of a sequence of strings."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compiled_share(counters: dict) -> float:
    """Compiled-executor entries over entries plus object-path fallbacks,
    from ``repro.compiled.schedule_counters()``."""
    done = (counters["list_schedules"] + counters["dls_schedules"]
            + counters["improved_passes"] + counters["online_schedules"])
    total = done + counters["fallbacks"]
    return done / total if total else 0.0


class Clock:
    """Set-up clock of one workload process.

    Starts when the parent launches the process (``time.monotonic`` is
    one system-wide clock), so interpreter start and ``import repro``
    count, and stops at :meth:`ready`, when the first timed operation
    can be sent.  Input generation runs inside :meth:`excluded` and is
    subtracted.
    """

    def __init__(self, t0: float | None = None) -> None:
        self.t0 = time.monotonic() if t0 is None else t0
        self.excluded_s = 0.0
        self.import_s: float | None = None
        self.setup_s: float | None = None

    @contextmanager
    def excluded(self):
        t = time.monotonic()
        try:
            yield
        finally:
            self.excluded_s += time.monotonic() - t

    @contextmanager
    def importing(self):
        t = time.monotonic()
        try:
            yield
        finally:
            self.import_s = time.monotonic() - t

    def ready(self) -> None:
        self.setup_s = time.monotonic() - self.t0 - self.excluded_s


def code_digest(root: Path = ROOT) -> str:
    """Digest of the library and benchmark sources: runs of "the same
    code" are runs with the same digest."""
    files = sorted(
        p for d in (root / "src" / "repro", root / "perfbench")
        for p in d.rglob("*.py")
    )
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path = ROOT) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git;
    ``None`` when the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def envelope(workload: str, seed: int, seconds: int, units: int) -> dict:
    """Host and input description recorded with every result."""
    import importlib.metadata as md

    def version(name: str) -> str | None:
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "work_units": units,
        "processes": PROCESSES,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "git_sha": git_sha(),
        "code_digest": code_digest(),
    }


class Ledger:
    """Deterministic outputs of earlier runs, keyed by workload, seed,
    work size and code digest, kept inside the checkout.  A later run of
    the same key must reproduce them exactly."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def check_and_record(self, key: str, outputs: dict) -> dict | None:
        """Returns the earlier outputs when they differ, else ``None``."""
        entries = self._load()
        earlier = entries.get(key)
        if earlier is not None and earlier != outputs:
            return earlier
        entries[key] = outputs
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(entries, sort_keys=True))
            tmp.replace(self.path)
        except OSError:
            pass  # a read-only checkout loses the record, not the run
        return None
