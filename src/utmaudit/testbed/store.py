"""In-memory airspace record store with two query routes and at-rest output.

The store keeps ISA-style records (identifier, owner, area, altitude band,
time window) in one table of an in-memory SQLite database. The
parameterized route binds the area as a value. The concatenating route
splices it into the SQL text that SQLite parses, so a malformed area
raises SQLite's own parser complaint, which is exactly the behaviour an
injection probe detects.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
from typing import Optional

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

PLAINTEXT_MARKER = b"ISA_RECORD"

# Column order is the key order of every record the store returns. The
# columns declare no type, so SQLite keeps each value's JSON type as sent.
_COLUMNS = ("id", "owner", "area", "floor_m", "ceiling_m", "window")
_FIELDS = _COLUMNS[1:]
_SELECT = f"SELECT {', '.join(_COLUMNS)} FROM isa"


class QueryError(Exception):
    """A statement that SQLite refused, with SQLite's own message."""


def _record(cursor, row) -> dict:
    # a field never written is NULL, and a record has no key for it
    return {name: value for name, value in zip(_COLUMNS, row) if value is not None}


# The seeded table, built once per process. A store starts as a page copy
# of it, which costs a quarter of creating and filling a table anew.
_SEEDED = sqlite3.connect(":memory:", check_same_thread=False)
_SEEDED.execute(f"CREATE TABLE isa (id TEXT PRIMARY KEY, {', '.join(_FIELDS)})")
_SEEDED.executemany(
    "INSERT INTO isa VALUES (?, ?, ?, ?, ?, ?)",
    [
        (f"isa-{n:03d}", f"uss-{1 + n % 3}", area, 30 * (n % 4),
         120 + 30 * (n % 4), f"2026-06-0{n}T08:00Z/2026-06-0{n}T17:00Z")
        for n, area in enumerate(
            ("zone-a", "zone-a", "zone-b", "zone-c", "zone-a", "zone-b"), start=1
        )
    ],
)
_SEEDED.commit()


class IsaStore:
    """One connection, shared by the gateway's worker threads under one
    lock. Records come back in insertion order; a replaced record keeps
    its place."""

    def __init__(self):
        self._lock = threading.Lock()
        self._db = sqlite3.connect(
            ":memory:", check_same_thread=False, isolation_level=None
        )
        _SEEDED.backup(self._db)
        self._db.row_factory = _record

    @contextlib.contextmanager
    def _sql(self):
        with self._lock:
            try:
                yield self._db
            except (sqlite3.Error, sqlite3.Warning) as exc:
                # sqlite3.Warning is Python 3.10's answer to a second statement
                raise QueryError(str(exc)) from exc

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def snapshot(self) -> list[dict]:
        with self._sql() as db:
            return db.execute(_SELECT).fetchall()

    def query_param(self, area: str) -> list[dict]:
        with self._sql() as db:
            return db.execute(_SELECT + " WHERE area = ?", (area,)).fetchall()

    def query_concat(self, area: str) -> list[dict]:
        with self._sql() as db:
            return db.execute(_SELECT + f" WHERE area = '{area}'").fetchall()

    def get(self, isa_id: str) -> Optional[dict]:
        with self._sql() as db:
            return db.execute(_SELECT + " WHERE id = ?", (isa_id,)).fetchone()

    def put(self, isa_id: str, fields: dict) -> dict:
        """Create the record, or update the named fields of the one there.
        Each value must be a string or a number that SQLite can bind."""
        names = ("id",) + tuple(name for name in _FIELDS if name in fields)
        updates = ", ".join(f"{name} = excluded.{name}" for name in names)
        with self._sql() as db:
            db.execute(
                f"INSERT INTO isa ({', '.join(names)}) "
                f"VALUES ({', '.join('?' * len(names))}) "
                f"ON CONFLICT(id) DO UPDATE SET {updates}",
                (isa_id,) + tuple(fields[name] for name in names[1:]),
            )
            return db.execute(_SELECT + " WHERE id = ?", (isa_id,)).fetchone()


# ---------------------------------------------------------------------------
# At-rest persistence
# ---------------------------------------------------------------------------


def _serialize(records: list[dict]) -> bytes:
    lines = [
        PLAINTEXT_MARKER + json.dumps(r, sort_keys=True).encode() for r in records
    ]
    return b"\n".join(lines) + b"\n"


def write_at_rest(records: list[dict], path: str, key: Optional[bytes]) -> None:
    """Writes the records sealed with AES-GCM under ``key``, whose length
    picks AES-128 or AES-256, or in plaintext when ``key`` is None."""
    data = _serialize(records)
    if key is not None:
        nonce = os.urandom(12)
        data = nonce + AESGCM(key).encrypt(nonce, data, None)
    with open(path, "wb") as handle:
        handle.write(data)
