"""Mock append-only log repository with a linked hash chain.

Each stored record carries the SHA-256 of the previous record's stored
link concatenated with the canonical serialization of its fields (names
sorted, name=value lines joined by newline, UTF-8). The first record
links from 32 zero bytes. The repository computes links itself; a client
that supplies one is told off, because accepting client links would let a
writer pre-forge history.

Routes:
    GET    /records         full chain                  (logs.read)
    POST   /records         append one record           (logs.write)
    PUT    /records/<seq>   overwrite (policy-gated)    (logs.write)
    DELETE /records/<seq>   remove (policy-gated)       (logs.write)
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from . import tokens
from .httpbase import JsonHandler
from .toggles import Switches

_GENESIS = b"\x00" * 32
_SEED_COUNT = 60
_BREAK_AT_SEQ = 37

_ACTIONS = ("isa-read", "isa-write", "token-issue", "subscription-read")
_OUTCOMES = ("success", "success", "success", "denied")


def _canonical(fields: dict) -> bytes:
    lines = [f"{name}={fields[name]}" for name in sorted(fields)]
    return "\n".join(lines).encode("utf-8")


def _link(prev: bytes, fields: dict) -> bytes:
    return hashlib.sha256(prev + _canonical(fields)).digest()


@dataclass
class _Record:
    seq: int
    fields: dict
    link: bytes


def _seed_fields(seq: int, coarse: bool) -> dict:
    fields = {
        "timestamp": f"2026-05-01T08:{seq % 60:02d}:00Z",
        "actor_id": f"uss-{1 + seq % 3}",
        "token_subject": f"client-{100 + seq % 5}",
        "action": _ACTIONS[seq % len(_ACTIONS)],
        "resource": f"isa-{seq % 6 + 1:03d}",
        "outcome": _OUTCOMES[seq % len(_OUTCOMES)],
    }
    if coarse:
        del fields["actor_id"]
        del fields["token_subject"]
    return fields


class LogRepoService:
    def __init__(self, keys: tokens.SigningKeys, switches: Switches):
        self.keys = keys
        self.policy = tokens.ValidatorPolicy("logs", switches)
        self.switches = switches
        self._lock = threading.Lock()
        self._records: list[_Record] = []
        prev = _GENESIS
        for seq in range(1, _SEED_COUNT + 1):
            fields = _seed_fields(seq, switches.coarse_logs)
            link = _link(prev, fields)
            self._records.append(_Record(seq=seq, fields=fields, link=link))
            prev = link
        if switches.broken_hash_chain:
            # flip one bit of one stored link; later links stay as computed
            # from the original value, so verification breaks exactly here
            target = self._records[_BREAK_AT_SEQ - 1]
            target.link = bytes([target.link[0] ^ 0x01]) + target.link[1:]

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [
                {"seq": r.seq, "fields": dict(r.fields), "link": r.link.hex()}
                for r in self._records
            ]

    def append(self, fields: dict) -> int:
        with self._lock:
            prev = self._records[-1].link if self._records else _GENESIS
            seq = len(self._records) + 1
            self._records.append(
                _Record(seq=seq, fields=dict(fields), link=_link(prev, fields))
            )
            return seq

    def overwrite(self, seq: int, fields: dict) -> bool:
        with self._lock:
            if not 1 <= seq <= len(self._records):
                return False
            prev = self._records[seq - 2].link if seq > 1 else _GENESIS
            record = self._records[seq - 1]
            record.fields = dict(fields)
            record.link = _link(prev, fields)
            return True

    def delete(self, seq: int) -> bool:
        with self._lock:
            for i, record in enumerate(self._records):
                if record.seq == seq:
                    del self._records[i]
                    return True
            return False


class LogRepoHandler(JsonHandler):
    def do_GET(self):
        service: LogRepoService = self.service
        if self.route() != "/records":
            self.send_json(404, {"error": "not found"})
            return
        if not service.switches.public_log_read and not self.authorized("logs.read"):
            return
        self.send_json(200, {"records": service.snapshot()})

    def do_POST(self):
        service: LogRepoService = self.service
        if self.route() != "/records":
            self.send_json(404, {"error": "not found"})
            return
        if not self.authorized("logs.write"):
            return
        body = self.read_json()
        if body is None or not isinstance(body.get("fields"), dict):
            self.send_json(400, {"error": "expected {\"fields\": {...}}"})
            return
        if "link" in body:
            self.send_json(
                400, {"error": "link is computed by the repository"}
            )
            return
        fields = {str(k): str(v) for k, v in body["fields"].items()}
        seq = service.append(fields)
        self.send_json(201, {"seq": seq})

    def _seq_from_route(self):
        route = self.route()
        if not route.startswith("/records/"):
            return None
        try:
            return int(route[len("/records/"):])
        except ValueError:
            return None

    def do_PUT(self):
        service: LogRepoService = self.service
        seq = self._seq_from_route()
        if seq is None:
            self.send_json(404, {"error": "not found"})
            return
        if not self.authorized("logs.write"):
            return
        if not service.switches.allow_log_overwrite:
            self.send_json(405, {"error": "records are append-only"})
            return
        body = self.read_json()
        if body is None or not isinstance(body.get("fields"), dict):
            self.send_json(400, {"error": "expected {\"fields\": {...}}"})
            return
        fields = {str(k): str(v) for k, v in body["fields"].items()}
        if service.overwrite(seq, fields):
            self.send_json(200, {"seq": seq})
        else:
            self.send_json(404, {"error": "no such record"})

    def do_DELETE(self):
        service: LogRepoService = self.service
        seq = self._seq_from_route()
        if seq is None:
            self.send_json(404, {"error": "not found"})
            return
        if not self.authorized("logs.write"):
            return
        if not service.switches.allow_log_delete:
            self.send_json(405, {"error": "records are append-only"})
            return
        if service.delete(seq):
            self.send_json(200, {"seq": seq})
        else:
            self.send_json(404, {"error": "no such record"})
