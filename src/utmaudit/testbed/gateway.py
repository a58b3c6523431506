"""Mock HTTPS gateway exposing the airspace record API.

Routes:
    GET /isa?area=...   list records for an area        (utm.read)
    GET /isa/<id>       fetch one record                (utm.read)
    PUT /isa/<id>       create or replace one record    (utm.write)

The area query runs through the parameterized route unless the
concatenating toggle is on. A write's fields must be JSON strings or
numbers, the values an SQLite column binds. Every accepted write
re-persists the store through the configured at-rest writer.
"""

from __future__ import annotations

from typing import Callable

from . import tokens
from .httpbase import JsonHandler
from .store import IsaStore, QueryError
from .toggles import Switches

_WRITE_FIELDS = {"owner", "area", "floor_m", "ceiling_m", "window"}


def _storable(value) -> bool:
    """A JSON string, or a JSON number that an SQLite column can hold; a
    boolean is neither."""
    return type(value) in (str, float) or (
        type(value) is int and -(2**63) <= value < 2**63
    )


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


class GatewayHandler(JsonHandler):
    def do_GET(self):
        service: GatewayService = self.service
        route = self.route()
        if not self.authorized("utm.read"):
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
        if not self.authorized("utm.write"):
            return
        body = self.read_json()
        if (
            body is None
            or not _WRITE_FIELDS.issuperset(body)
            or "area" not in body
            or not all(map(_storable, body.values()))
        ):
            self.send_json(400, {"error": "malformed record"})
            return
        record = service.store.put(route[len("/isa/"):], body)
        service.persist()
        self.send_json(200, record)
