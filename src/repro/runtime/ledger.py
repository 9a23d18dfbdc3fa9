"""Durable run ledger with pluggable jsonl / sqlite-WAL backends.

Every task execution -- fresh, cached, failed, or timed out -- appends
one *finish* record, giving a durable, queryable account of where suite
time goes.  Two backends sit behind the same :class:`RunLedger` facade:

``jsonl``
    The original append-only JSON-Lines file.  Tolerant of concurrent
    writers (each record is one ``write`` of one line) and of torn
    lines on read: a process killed mid-write leaves the final line
    truncated, :meth:`RunLedger.record` detects that and starts the new
    record on a fresh line, and reads count every unparseable line on
    the ``runtime.ledger.corrupt_lines`` metric.

``sqlite``
    A WAL-mode sqlite database with transactional appends.  Torn
    writes are structurally impossible (a record is committed or it
    never happened); concurrent writers serialize through sqlite's
    locking, with contended inserts retried under a bounded backoff
    (``runtime.ledger.write_retries``).  A database file damaged beyond
    repair is moved aside to ``<path>.corrupt.N`` and recreated
    (``runtime.ledger.db_recovered``) rather than wedging the run.

The backend is chosen explicitly (``RunLedger(path, backend="sqlite")``)
or inferred from the path suffix (``.sqlite`` / ``.db``).  Both
backends speak the same record schema, so
:func:`repro.analysis` tooling, ``--ledger-summary``, and
``--ledger-query`` are backend-agnostic -- and experiment E22 checks
they agree task-for-task under chaos.

Besides finish records the ledger stores *start* and *heartbeat*
events.  The pool stamps a start event when a task is dispatched and
heartbeats in-flight tasks while they run; a task whose last start was
never followed by a finish -- the parent was SIGKILLed, the host lost
power -- is an *orphan*, surfaced by :meth:`RunLedger.orphans`,
counted in ``--ledger-summary``, and simply re-run by ``--resume``.

:func:`summarize_ledger` condenses a ledger into outcome counts, retry
and orphan tallies, the slowest tasks, and per-target failures;
:func:`format_ledger_summary` renders that for the CLI.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.tasks import Task, TaskResult, task_identity

#: Ledger filename used by default inside the cache directory.
DEFAULT_LEDGER_NAME = "ledger.jsonl"

#: Default filename for the sqlite backend.
DEFAULT_SQLITE_LEDGER_NAME = "ledger.sqlite"

#: Backend names accepted by :class:`RunLedger`.
LEDGER_BACKENDS = ("jsonl", "sqlite")

#: Path suffixes that imply the sqlite backend when none is given.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: Fields of a finish record, in canonical column order.
_FIELDS = ("ts", "event", "target", "label", "key", "seed", "params",
           "outcome", "wall_s", "queue_s", "attempts", "worker",
           "error", "pid")

#: Bounded backoff schedule (seconds) for contended sqlite appends.
_SQLITE_RETRY_DELAYS = (0.01, 0.05, 0.2, 0.5, 1.0)


def infer_backend(path: str | os.PathLike,
                  backend: Optional[str] = None) -> str:
    """Resolve the backend name for ``path`` (explicit choice wins)."""
    if backend is not None:
        if backend not in LEDGER_BACKENDS:
            raise ConfigurationError(
                f"unknown ledger backend {backend!r}; "
                f"expected one of {LEDGER_BACKENDS}")
        return backend
    suffix = pathlib.Path(path).suffix.lower()
    return "sqlite" if suffix in _SQLITE_SUFFIXES else "jsonl"


class _JsonlBackend:
    """Append-only JSON-Lines file (the original ledger format)."""

    name = "jsonl"

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path

    def _ends_mid_line(self) -> bool:
        """Whether the file's last byte is not a newline (torn write)."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    def append(self, entry: dict, torn: bool = False) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Null fields are omitted (the sqlite backend's reader drops
        # NULL columns the same way), so both backends replay
        # identical records.
        line = json.dumps({k: v for k, v in entry.items()
                           if v is not None})
        if torn:
            # Simulate an earlier writer killed mid-write: leave a
            # truncated, newline-less prefix for recovery to absorb.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line[:max(1, len(line) // 2)])
        # Recover from a torn final line: start this record on a fresh
        # line so the torn write stays one corrupt record, not two.
        prefix = "\n" if self._ends_mid_line() else ""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(prefix + line + "\n")

    def rows(self) -> tuple[list[dict], int]:
        """Every well-formed record plus the corrupt-line count."""
        records: list[dict] = []
        corrupt = 0
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        corrupt += 1
                        obs.counter("runtime.ledger.corrupt_lines").inc()
        except OSError:
            return [], 0
        return records, corrupt

    def query_rows(self, where: Mapping[str, Any], order: Optional[str],
                   limit: Optional[int]) -> list[dict]:
        rows, _ = self.rows()
        return _filter_rows(rows, where, order, limit)


class _SqliteBackend:
    """WAL-mode sqlite database with transactional appends."""

    name = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS task_runs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            ts REAL, event TEXT, target TEXT, label TEXT, key TEXT,
            seed INTEGER, params TEXT, outcome TEXT, wall_s REAL,
            queue_s REAL, attempts INTEGER, worker TEXT, error TEXT,
            pid INTEGER);
        CREATE INDEX IF NOT EXISTS task_runs_key ON task_runs (key);
        CREATE INDEX IF NOT EXISTS task_runs_outcome
            ON task_runs (outcome);
    """

    def __init__(self, path: pathlib.Path,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.path = path
        self._sleep = sleep
        self._connection: Optional[sqlite3.Connection] = None

    def _connect(self) -> sqlite3.Connection:
        if self._connection is not None:
            return self._connection
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            connection = self._open()
        except sqlite3.DatabaseError:
            self._recover_damaged_db()
            connection = self._open()
        self._connection = connection
        return connection

    def _open(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=5.0)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA busy_timeout=5000")
        connection.executescript(self._SCHEMA)
        connection.commit()
        return connection

    def _recover_damaged_db(self) -> None:
        """Move an unreadable database aside so a fresh one can start.

        Mirrors the cache's quarantine discipline: the damaged bytes
        stay inspectable at ``<path>.corrupt.N`` and the run continues
        against an empty ledger instead of crashing.
        """
        self.close()
        destination = self.path.with_name(self.path.name + ".corrupt")
        counter = 0
        while destination.exists():
            counter += 1
            destination = self.path.with_name(
                f"{self.path.name}.corrupt.{counter}")
        try:
            os.replace(self.path, destination)
        except OSError:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        # Stale WAL/SHM sidecars would re-corrupt the fresh database.
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(str(self.path) + suffix)
            except OSError:
                pass
        obs.counter("runtime.ledger.db_recovered").inc()

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None

    def append(self, entry: dict, torn: bool = False) -> None:
        """Insert one record transactionally, retrying contention.

        ``torn=True`` (chaos injection) fails the first try with a
        simulated lock error; WAL transactions make an actually-torn
        record impossible, so contention is the fault class to prove
        out here.
        """
        values = [entry.get(name) for name in _FIELDS]
        values[_FIELDS.index("params")] = (
            json.dumps(entry["params"]) if "params" in entry else None)
        placeholders = ", ".join("?" for _ in _FIELDS)
        statement = (f"INSERT INTO task_runs ({', '.join(_FIELDS)}) "
                     f"VALUES ({placeholders})")
        inject_failure = torn
        for attempt, delay in enumerate(_SQLITE_RETRY_DELAYS + (None,)):
            try:
                if inject_failure:
                    inject_failure = False
                    raise sqlite3.OperationalError(
                        "chaos: injected contended write")
                connection = self._connect()
                with connection:
                    connection.execute(statement, values)
                return
            except sqlite3.OperationalError as exc:
                if delay is None:
                    raise OSError(
                        f"ledger append failed after "
                        f"{len(_SQLITE_RETRY_DELAYS) + 1} tries: {exc}"
                    ) from exc
                obs.counter("runtime.ledger.write_retries").inc()
                self._sleep(delay)
            except sqlite3.DatabaseError:
                self._recover_damaged_db()

    def rows(self) -> tuple[list[dict], int]:
        try:
            cursor = self._connect().execute(
                f"SELECT {', '.join(_FIELDS)} FROM task_runs "
                "ORDER BY id")
            raw = cursor.fetchall()
        except sqlite3.DatabaseError:
            self._recover_damaged_db()
            return [], 0
        return [self._to_record(values) for values in raw], 0

    @staticmethod
    def _to_record(values: Sequence) -> dict:
        record = {name: value
                  for name, value in zip(_FIELDS, values)
                  if value is not None}
        if "params" in record:
            record["params"] = json.loads(record["params"])
        return record

    def query_rows(self, where: Mapping[str, Any], order: Optional[str],
                   limit: Optional[int]) -> list[dict]:
        clauses, values = [], []
        for name, value in where.items():
            if name not in _FIELDS:
                raise ConfigurationError(
                    f"unknown ledger field {name!r}; "
                    f"expected one of {_FIELDS}")
            clauses.append(f"{name} = ?")
            values.append(value)
        statement = f"SELECT {', '.join(_FIELDS)} FROM task_runs"
        if clauses:
            statement += " WHERE " + " AND ".join(clauses)
        if order is not None:
            name, descending = _order_field(order)
            statement += f" ORDER BY {name} {'DESC' if descending else 'ASC'}"
        else:
            statement += " ORDER BY id"
        if limit is not None:
            statement += " LIMIT ?"
            values.append(int(limit))
        try:
            raw = self._connect().execute(statement, values).fetchall()
        except sqlite3.DatabaseError:
            self._recover_damaged_db()
            return []
        return [self._to_record(row) for row in raw]


def _order_field(order: str) -> tuple[str, bool]:
    """Split ``"-wall_s"`` style order specs into (field, descending)."""
    descending = order.startswith("-")
    name = order[1:] if descending else order
    if name not in _FIELDS:
        raise ConfigurationError(
            f"unknown ledger order field {name!r}; "
            f"expected one of {_FIELDS}")
    return name, descending


def _filter_rows(rows: Iterable[dict], where: Mapping[str, Any],
                 order: Optional[str],
                 limit: Optional[int]) -> list[dict]:
    for name in where:
        if name not in _FIELDS:
            raise ConfigurationError(
                f"unknown ledger field {name!r}; "
                f"expected one of {_FIELDS}")
    matched = [row for row in rows
               if all(row.get(name) == value
                      for name, value in where.items())]
    if order is not None:
        name, descending = _order_field(order)
        # Missing fields sort as smallest, matching sqlite's NULL
        # ordering, so both backends return identical sequences.
        matched.sort(key=lambda row: (row.get(name) is not None,
                                      row.get(name)),
                     reverse=descending)
    if limit is not None:
        matched = matched[:int(limit)]
    return matched


class RunLedger:
    """Backend-agnostic appender/reader for one run-ledger file."""

    def __init__(self, path: str | os.PathLike, *,
                 backend: Optional[str] = None) -> None:
        self.path = pathlib.Path(path)
        self.backend = infer_backend(path, backend)
        self._backend = (_SqliteBackend(self.path)
                         if self.backend == "sqlite"
                         else _JsonlBackend(self.path))
        #: Unparseable lines seen by the most recent read (jsonl only;
        #: sqlite records are transactional and cannot tear).
        self.corrupt_lines = 0

    def close(self) -> None:
        close = getattr(self._backend, "close", None)
        if close is not None:
            close()

    # -- writes -------------------------------------------------------------

    def record(self, result: TaskResult, *, chaos=None) -> None:
        """Append one finish record (optionally under chaos injection)."""
        entry = {
            "ts": time.time(),
            "target": result.task.target,
            "label": result.task.label,
            "key": result.key,
            "seed": result.task.seed,
            "params": result.task.spec()["params"],
            "outcome": result.outcome,
            "wall_s": round(result.wall_s, 6),
            "queue_s": round(result.queue_s, 6),
            "attempts": result.attempts,
            "worker": result.worker,
        }
        if result.error:
            entry["error"] = result.error
        torn = False
        if chaos is not None and chaos.ledger_torn(
                task_identity(result.task), result.attempts):
            torn = True
            obs.counter("runtime.chaos.torn_ledger_writes").inc()
        self._backend.append(entry, torn=torn)

    def start(self, task: Task, key: str, worker: str = "") -> None:
        """Append a start event: ``task`` was dispatched under ``key``."""
        self._backend.append({
            "ts": time.time(), "event": "start",
            "target": task.target, "label": task.label, "key": key,
            "seed": task.seed, "worker": worker, "pid": os.getpid()})

    def heartbeat(self, keys: Iterable[str]) -> None:
        """Stamp in-flight ``keys`` as alive right now."""
        now = time.time()
        for key in keys:
            self._backend.append({"ts": now, "event": "heartbeat",
                                  "key": key})

    # -- reads --------------------------------------------------------------

    def events(self) -> list[dict]:
        """Every record -- finishes, starts, heartbeats -- in order."""
        records, self.corrupt_lines = self._backend.rows()
        return records

    def entries(self) -> list[dict]:
        """Finish records only (the historical ledger view)."""
        return [record for record in self.events()
                if record.get("event") in (None, "finish")]

    def completed_keys(self) -> set[str]:
        """Content keys of every task that ever finished successfully."""
        return {e["key"] for e in self.entries()
                if e.get("outcome") in ("ok", "cached") and e.get("key")}

    def orphans(self, stale_s: Optional[float] = None,
                now: Optional[float] = None) -> list[dict]:
        """Tasks whose last start was never followed by a finish.

        An orphan means the *runner* died -- crash, SIGKILL, power loss
        -- between dispatch and outcome.  With ``stale_s``, tasks whose
        last heartbeat is newer than ``stale_s`` seconds are presumed
        still alive in another process and excluded.  Each orphan dict
        carries the start record plus ``age_s`` since its last sign of
        life.
        """
        orphans = _orphans_from(self.events(), stale_s, now)
        if orphans:
            obs.counter("runtime.ledger.orphans_detected").inc(
                len(orphans))
        return orphans

    def query(self, where: Optional[Mapping[str, Any]] = None,
              order: Optional[str] = None,
              limit: Optional[int] = None) -> list[dict]:
        """Filtered run history: equality ``where``, ``order``, ``limit``.

        ``order`` is a field name, ``-`` prefixed for descending
        (``"-wall_s"`` = slowest first).  The sqlite backend runs real
        SQL; jsonl filters in process -- results agree.
        """
        return self._backend.query_rows(dict(where or {}), order, limit)


def _orphans_from(records: Iterable[dict], stale_s: Optional[float],
                  now: Optional[float]) -> list[dict]:
    """Orphan computation over already-read records (no metrics)."""
    last_start: dict[str, dict] = {}
    last_alive: dict[str, float] = {}
    for record in records:
        key = record.get("key")
        if not key:
            continue
        event = record.get("event")
        if event == "start":
            last_start[key] = record
            last_alive[key] = float(record.get("ts", 0.0))
        elif event == "heartbeat":
            if key in last_start:
                last_alive[key] = float(record.get("ts", 0.0))
        elif event in (None, "finish"):
            last_start.pop(key, None)
            last_alive.pop(key, None)
    now = time.time() if now is None else now
    orphans = []
    for key, record in last_start.items():
        age = now - last_alive.get(key, 0.0)
        if stale_s is not None and age < stale_s:
            continue
        orphans.append({**record, "age_s": age})
    return orphans


def parse_query(text: str) -> tuple[dict, Optional[str], Optional[int]]:
    """Parse a ``--ledger-query`` expression.

    Comma-separated ``field=value`` equality terms, plus the special
    keys ``order=[-]field`` and ``limit=N``::

        outcome=failed,order=-wall_s,limit=5

    Values parse as JSON when possible (so ``attempts=2`` matches the
    integer), falling back to the raw string.
    """
    where: dict[str, Any] = {}
    order: Optional[str] = None
    limit: Optional[int] = None
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        name, separator, raw = term.partition("=")
        if not separator or not name:
            raise ConfigurationError(
                f"ledger query term {term!r} is not field=value")
        if name == "order":
            order = raw
        elif name == "limit":
            try:
                limit = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"ledger query limit must be an integer, "
                    f"got {raw!r}") from None
        else:
            try:
                where[name] = json.loads(raw)
            except json.JSONDecodeError:
                where[name] = raw
    return where, order, limit


@dataclass
class LedgerSummary:
    """Aggregate view over a ledger's entries."""

    total: int = 0
    by_outcome: collections.Counter = field(
        default_factory=collections.Counter)
    total_wall_s: float = 0.0
    slowest: list[tuple[str, float]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Lines the reader could not parse (torn writes, manual damage).
    corrupt_lines: int = 0
    #: Finish records that needed more than one attempt.
    retried: int = 0
    #: Tasks started (per the ledger) but never finished.
    orphaned: int = 0
    #: Damaged cache entries sitting in the quarantine directory
    #: (``None`` when no cache directory was given to inspect).
    quarantined: Optional[int] = None


def summarize_ledger(path: str | os.PathLike, top: int = 10, *,
                     backend: Optional[str] = None,
                     quarantine_dir: Optional[str | os.PathLike] = None
                     ) -> LedgerSummary:
    """Read ``path`` and aggregate outcomes, wall time, and failures."""
    summary = LedgerSummary()
    ledger = RunLedger(path, backend=backend)
    records = ledger.events()
    summary.corrupt_lines = ledger.corrupt_lines
    summary.orphaned = len(_orphans_from(records, None, None))
    entries = [record for record in records
               if record.get("event") in (None, "finish")]
    for entry in entries:
        summary.total += 1
        outcome = entry.get("outcome", "?")
        summary.by_outcome[outcome] += 1
        wall = float(entry.get("wall_s", 0.0))
        summary.total_wall_s += wall
        summary.slowest.append((entry.get("label", "?"), wall))
        if int(entry.get("attempts", 1) or 1) > 1:
            summary.retried += 1
        if outcome in ("failed", "timeout"):
            summary.failures.append((entry.get("label", "?"),
                                     entry.get("error", outcome)))
    summary.slowest.sort(key=lambda pair: pair[1], reverse=True)
    del summary.slowest[top:]
    if quarantine_dir is not None:
        directory = pathlib.Path(quarantine_dir)
        summary.quarantined = (
            sum(1 for item in directory.iterdir() if item.is_file())
            if directory.is_dir() else 0)
    ledger.close()
    return summary


def format_ledger_summary(summary: LedgerSummary) -> str:
    lines = [f"tasks: {summary.total}  "
             + "  ".join(f"{k}={v}"
                         for k, v in sorted(summary.by_outcome.items())),
             f"total wall time: {summary.total_wall_s:.1f}s"]
    if summary.retried:
        lines.append(f"retried: {summary.retried} task(s) needed more "
                     "than one attempt")
    if summary.quarantined:
        lines.append(f"quarantined: {summary.quarantined} damaged cache "
                     "entr(ies) set aside")
    if summary.orphaned:
        lines.append(f"warning: {summary.orphaned} orphaned task(s) "
                     "started but never finished (interrupted run?)")
    if summary.corrupt_lines:
        lines.append(f"warning: {summary.corrupt_lines} corrupt ledger "
                     "line(s) skipped")
    if summary.slowest:
        lines.append("slowest tasks:")
        lines.extend(f"  {wall:8.2f}s  {label}"
                     for label, wall in summary.slowest)
    if summary.failures:
        lines.append(f"failures ({len(summary.failures)}):")
        lines.extend(f"  {label}: {error}"
                     for label, error in summary.failures)
    return "\n".join(lines)
