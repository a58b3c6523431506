"""Mock HTTPS gateway exposing the airspace record API.

Routes:
    GET /isa?area=...   list records for an area        (utm.read)
    GET /isa/<id>       fetch one record                (utm.read)
    PUT /isa/<id>       create or replace one record    (utm.write)

The area query runs through the parameterized route unless the
concatenating toggle is on. Every accepted write re-persists the store
through the configured at-rest writer.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import tokens
from .httpbase import JsonHandler
from .store import IsaStore, QueryError
from .toggles import Switches

_WRITE_FIELDS = {"owner", "area", "floor_m", "ceiling_m", "window"}


class GatewayService:
    def __init__(
        self,
        store: IsaStore,
        keys: tokens.SigningKeys,
        switches: Switches,
        persist: Callable[[], None],
    ):
        self.store = store
        self.keys = keys
        self.policy = tokens.ValidatorPolicy("gateway", switches)
        self.switches = switches
        self.persist = persist

    def authorize(self, compact: Optional[str], required_scope: str) -> tokens.Verdict:
        if compact is None:
            return tokens.Verdict(False, 401, "missing bearer token")
        return tokens.validate(
            self.keys, self.policy, compact, required_scope=required_scope
        )


class GatewayHandler(JsonHandler):
    def _deny(self, verdict: tokens.Verdict) -> None:
        self.send_json(verdict.status, {"error": verdict.reason})

    def do_GET(self):
        service: GatewayService = self.service
        route = self.route()
        verdict = service.authorize(self.bearer_token(), "utm.read")
        if not verdict.ok:
            self._deny(verdict)
            return
        if route == "/isa":
            area = self.query().get("area", "")
            try:
                if service.switches.string_concat_query:
                    rows = service.store.query_concat(area)
                else:
                    rows = service.store.query_param(area)
            except QueryError as exc:
                self.send_json(500, {"error": str(exc)})
                return
            self.send_json(200, {"rows": rows})
            return
        if route.startswith("/isa/"):
            record = service.store.get(route[len("/isa/"):])
            if record is None:
                self.send_json(404, {"error": "no such record"})
            else:
                self.send_json(200, record)
            return
        self.send_json(404, {"error": "not found"})

    def do_PUT(self):
        service: GatewayService = self.service
        route = self.route()
        if not route.startswith("/isa/"):
            self.send_json(404, {"error": "not found"})
            return
        verdict = service.authorize(self.bearer_token(), "utm.write")
        if not verdict.ok:
            self._deny(verdict)
            return
        body = self.read_json()
        if body is None or not _WRITE_FIELDS.issuperset(body) or "area" not in body:
            self.send_json(400, {"error": "malformed record"})
            return
        record = service.store.put(route[len("/isa/"):], body)
        service.persist()
        self.send_json(200, record)
