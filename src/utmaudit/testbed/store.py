"""In-memory airspace record store with two query routes and at-rest output.

The store keeps ISA-style records (identifier, owner, area, altitude band,
time window). The parameterized route compares values directly. The
concatenating route builds a WHERE expression by string splicing and feeds
it to a small expression evaluator that raises on malformed input, which
is exactly the behaviour an injection probe detects.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

PLAINTEXT_MARKER = b"ISA_RECORD"


class QueryError(Exception):
    pass


def seed_records() -> list[dict]:
    rows = []
    areas = ("zone-a", "zone-a", "zone-b", "zone-c", "zone-a", "zone-b")
    for n, area in enumerate(areas, start=1):
        rows.append(
            {
                "id": f"isa-{n:03d}",
                "owner": f"uss-{1 + n % 3}",
                "area": area,
                "floor_m": 30 * (n % 4),
                "ceiling_m": 120 + 30 * (n % 4),
                "window": f"2026-06-0{n}T08:00Z/2026-06-0{n}T17:00Z",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# WHERE expression evaluation (concatenating route only)
# ---------------------------------------------------------------------------


def _tokenize(expr: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i = 0
    while i < len(expr):
        c = expr[i]
        if c.isspace():
            i += 1
            continue
        if expr.startswith("--", i):
            break  # comment runs to end of expression
        if c in ("'", '"'):
            end = expr.find(c, i + 1)
            if end < 0:
                raise QueryError(f"query syntax error near {expr[i:i + 12]!r}")
            tokens.append(("str", expr[i + 1:end]))
            i = end + 1
            continue
        if c in "()":
            tokens.append((c, c))
            i += 1
            continue
        if c == "=":
            tokens.append(("op", "="))
            i += 1
            continue
        if expr.startswith("!=", i) or expr.startswith("<>", i):
            tokens.append(("op", "!="))
            i += 2
            continue
        if c.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            tokens.append(("num", int(expr[i:j])))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            word = expr[i:j]
            upper = word.upper()
            if upper in ("AND", "OR"):
                tokens.append(("kw", upper))
            else:
                tokens.append(("ident", word))
            i = j
            continue
        raise QueryError(f"query syntax error near {expr[i:i + 12]!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object]], record: dict):
        self.tokens = tokens
        self.pos = 0
        self.record = record

    def _peek(self) -> Optional[tuple[str, object]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> tuple[str, object]:
        token = self._peek()
        if token is None:
            raise QueryError("query syntax error near end of expression")
        self.pos += 1
        return token

    def parse(self) -> bool:
        result = self._or_expr()
        if self._peek() is not None:
            raise QueryError(
                f"query syntax error near {self._peek()[1]!r}"
            )
        return result

    def _or_expr(self) -> bool:
        value = self._and_expr()
        while self._peek() == ("kw", "OR"):
            self._take()
            value = self._and_expr() or value
        return value

    def _and_expr(self) -> bool:
        value = self._factor()
        while self._peek() == ("kw", "AND"):
            self._take()
            value = self._factor() and value
        return value

    def _factor(self) -> bool:
        token = self._peek()
        if token == ("(", "("):
            self._take()
            value = self._or_expr()
            if self._take() != (")", ")"):
                raise QueryError("query syntax error near '('")
            return value
        return self._comparison()

    def _value(self) -> object:
        kind, value = self._take()
        if kind in ("str", "num"):
            return value
        if kind == "ident":
            if value not in self.record:
                raise QueryError(f"query error: no such column {value!r}")
            return self.record[value]
        raise QueryError(f"query syntax error near {value!r}")

    def _comparison(self) -> bool:
        left = self._value()
        kind, op = self._take()
        if kind != "op":
            raise QueryError(f"query syntax error near {op!r}")
        right = self._value()
        left, right = _coerce(left, right)
        return left == right if op == "=" else left != right


def _coerce(left: object, right: object) -> tuple[object, object]:
    # numeric strings compare as numbers, mirroring lax database coercion
    if isinstance(left, int) and isinstance(right, str) and right.isdigit():
        return left, int(right)
    if isinstance(right, int) and isinstance(left, str) and left.isdigit():
        return int(left), right
    return left, right


def evaluate_where(expr: str, record: dict) -> bool:
    tokens = _tokenize(expr)
    if not tokens:
        raise QueryError("query syntax error near end of expression")
    return _Parser(tokens, record).parse()


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class IsaStore:
    def __init__(self, records: Optional[list[dict]] = None):
        self._records = [dict(r) for r in (records or seed_records())]

    def snapshot(self) -> list[dict]:
        return [dict(r) for r in self._records]

    def query_param(self, area: str) -> list[dict]:
        return [dict(r) for r in self._records if r["area"] == area]

    def query_concat(self, area: str) -> list[dict]:
        expr = f"area='{area}'"
        return [dict(r) for r in self._records if evaluate_where(expr, r)]

    def get(self, isa_id: str) -> Optional[dict]:
        for record in self._records:
            if record["id"] == isa_id:
                return dict(record)
        return None

    def put(self, isa_id: str, fields: dict) -> dict:
        for record in self._records:
            if record["id"] == isa_id:
                record.update(fields)
                record["id"] = isa_id
                return dict(record)
        fresh = dict(fields)
        fresh["id"] = isa_id
        self._records.append(fresh)
        return dict(fresh)


# ---------------------------------------------------------------------------
# At-rest persistence
# ---------------------------------------------------------------------------


def _serialize(records: list[dict]) -> bytes:
    lines = [
        PLAINTEXT_MARKER + json.dumps(r, sort_keys=True).encode() for r in records
    ]
    return b"\n".join(lines) + b"\n"


def write_at_rest(
    records: list[dict],
    path: str,
    *,
    cipher: str,
    key: Optional[bytes] = None,
) -> None:
    """cipher is one of aes-256-gcm, aes-128-gcm, plaintext. Key length must
    match the cipher (32 or 16 bytes)."""
    blob = _serialize(records)
    if cipher == "plaintext":
        data = blob
    elif cipher in ("aes-256-gcm", "aes-128-gcm"):
        expected = 32 if cipher == "aes-256-gcm" else 16
        if key is None or len(key) != expected:
            raise ValueError(f"{cipher} requires a {expected}-byte key")
        nonce = os.urandom(12)
        data = nonce + AESGCM(key).encrypt(nonce, blob, None)
    else:
        raise ValueError(f"unknown at-rest cipher {cipher!r}")
    with open(path, "wb") as handle:
        handle.write(data)
