"""Target manifest: what exists, where, and what the deployment claims.

The manifest is the single input every probe trusts. It is written by the
maintaining authority (who knows its inventory; there is no discovery),
either as a flat INI-style text file or as the equivalent JSON document.
Parsed manifests are immutable and safe to share across concurrent probes.

The dataclasses are the schema: the keys of ``[target]``, ``[client]`` and
``[component <id>]`` are the fields of ``TargetManifest``, ``OAuthClient``
and ``ComponentSpec``. Parsing, both renderings and the digest iterate
those fields; only the value kinds that are not plain text have a parser.
"""

from __future__ import annotations

import configparser
import enum
import functools
import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, NewType, Optional, get_type_hints

DEFAULT_REQUIRED_LOG_FIELDS = (
    "timestamp", "actor_id", "token_subject", "action", "resource", "outcome",
)

VALID_SCHEMES = ("http", "https", "tcp")
VALID_MODES = ("remote", "introspective")
# A target mode: one of VALID_MODES.
Mode = NewType("Mode", str)


class ManifestError(ValueError):
    """Raised for malformed or semantically invalid manifests."""


class ComponentRole(enum.Enum):
    OAUTH_SERVER = "OAuthServer"
    HTTPS_GATEWAY = "HttpsGateway"
    DB_NODE = "DbNode"
    LOG_REPOSITORY = "LogRepository"
    KEY_MANAGEMENT = "KeyManagement"
    WEB_APP_PUBLIC = "WebAppPublic"
    WEB_APP_ADMIN = "WebAppAdmin"
    USS_MOCK = "UssMock"


class Zone(enum.Enum):
    PUBLIC = "Public"
    RESTRICTED = "Restricted"


# Interoperability requires the OAuth server, gateways, and public web apps
# to be exposed; log stores, key management, database nodes, and service
# management interfaces must not be. Every other role is public.
_RESTRICTED_ROLES = frozenset({
    ComponentRole.LOG_REPOSITORY,
    ComponentRole.KEY_MANAGEMENT,
    ComponentRole.DB_NODE,
    ComponentRole.WEB_APP_ADMIN,
})


def expected_zone(role: ComponentRole) -> Zone:
    """Visibility zone a component of this role must live in."""
    return Zone.RESTRICTED if role in _RESTRICTED_ROLES else Zone.PUBLIC


@dataclass(frozen=True)
class Endpoint:
    host: str
    port: int
    scheme: str
    path: str = ""

    def url(self, path: Optional[str] = None) -> str:
        tail = self.path if path is None else path
        return f"{self.scheme}://{self.host}:{self.port}{tail}"

    @staticmethod
    def parse(text: str) -> "Endpoint":
        scheme, separator, rest = text.partition("://")
        if not separator:
            raise ManifestError(f"endpoint {text!r}: expected scheme://host:port[/path]")
        if scheme not in VALID_SCHEMES:
            raise ManifestError(f"endpoint {text!r}: scheme must be one of {VALID_SCHEMES}")
        hostport, slash, tail = rest.partition("/")
        path = slash + tail
        if ":" not in hostport:
            raise ManifestError(f"endpoint {text!r}: missing port")
        host, port_s = hostport.rsplit(":", 1)
        try:
            port = int(port_s)
        except ValueError:
            raise ManifestError(f"endpoint {text!r}: port {port_s!r} is not an integer")
        if not 1 <= port <= 65535:
            raise ManifestError(f"endpoint {text!r}: port {port} out of range 1-65535")
        if not host:
            raise ManifestError(f"endpoint {text!r}: empty host")
        return Endpoint(host=host, port=port, scheme=scheme, path=path)


@dataclass(frozen=True)
class ApiAction:
    """One authenticated API action a probe may exercise (read or write shaped)."""

    method: str
    path: str
    scope: str

    @staticmethod
    def parse(text: str, key: str) -> "ApiAction":
        parts = text.split()
        if len(parts) != 3 or not parts[2].startswith("scope="):
            raise ManifestError(f"{key} {text!r}: expected 'METHOD /path scope=NAME'")
        return ApiAction(method=parts[0].upper(), path=parts[1], scope=parts[2][len("scope="):])

    def render(self) -> str:
        return f"{self.method} {self.path} scope={self.scope}"


@dataclass(frozen=True)
class InjectTarget:
    """A declared injectable query parameter with a known-good baseline value."""

    method: str
    path: str
    param: str
    baseline: str

    @staticmethod
    def parse(text: str) -> "InjectTarget":
        parts = text.split()
        names = ("param=", "baseline=")
        if len(parts) != 4 or not all(map(str.startswith, parts[2:], names)):
            raise ManifestError(
                f"inject {text!r}: expected 'METHOD /path param=NAME baseline=VALUE'"
            )
        param, baseline = (part[len(name):] for part, name in zip(parts[2:], names))
        return InjectTarget(parts[0].upper(), parts[1], param, baseline)

    def render(self) -> str:
        return f"{self.method} {self.path} param={self.param} baseline={self.baseline}"


@dataclass(frozen=True)
class ComponentSpec:
    id: str
    role: ComponentRole
    endpoints: tuple[Endpoint, ...]
    declared_encryption_at_rest: Optional[str] = None
    declared_token_lifetime_s: Optional[int] = None
    storage_path: Optional[str] = None
    audience: Optional[str] = None
    # OAuth server paths
    token_path: Optional[str] = None
    authorize_path: Optional[str] = None
    jwks_path: Optional[str] = None
    # Probe surface for token-accepting services
    read: Optional[ApiAction] = None
    write: Optional[ApiAction] = None
    # Body the service accepts on its write action; probes must send
    # well-formed writes so an accepted probe never corrupts other records.
    write_body: Optional[str] = None
    inject: Optional[InjectTarget] = None

    def primary_endpoint(self) -> Endpoint:
        return self.endpoints[0]


@dataclass(frozen=True)
class OAuthClient:
    client_id: str
    client_secret: Optional[str] = None
    certificate: Optional[str] = None
    key: Optional[str] = None
    entitled_scopes: tuple[str, ...] = ()
    grant_types: tuple[str, ...] = ("client_credentials",)

    def has_certificate(self) -> bool:
        return bool(self.certificate and self.key)


@dataclass(frozen=True)
class TargetManifest:
    components: tuple[ComponentSpec, ...]
    oauth_client: OAuthClient
    mode: Mode = Mode("remote")
    allowlist_sources: tuple[str, ...] = ()
    required_log_fields: tuple[str, ...] = DEFAULT_REQUIRED_LOG_FIELDS
    ca_path: Optional[str] = None
    audit_fixture: bool = False

    @property
    def allowlisted_source(self) -> Optional[str]:
        """The source address allowlisted-vantage probes bind: the first
        allowlist entry."""
        return self.allowlist_sources[0] if self.allowlist_sources else None

    def component(self, component_id: str) -> ComponentSpec:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise KeyError(component_id)

    def by_role(self, role: ComponentRole) -> tuple[ComponentSpec, ...]:
        return tuple(c for c in self.components if c.role == role)

    def oauth_server(self) -> ComponentSpec:
        return self.by_role(ComponentRole.OAUTH_SERVER)[0]

    def web_apps(self) -> tuple[ComponentSpec, ...]:
        roles = (ComponentRole.WEB_APP_PUBLIC, ComponentRole.WEB_APP_ADMIN)
        return tuple(c for c in self.components if c.role in roles)

    def extra_grant_types(self) -> tuple[str, ...]:
        return tuple(g for g in self.oauth_client.grant_types if g != "client_credentials")


def vantage(comp: ComponentSpec, allowlisted_source: Optional[str]) -> Optional[str]:
    """The source address a probe of ``comp`` binds: the allowlisted source
    for a restricted component, and None, the host's default source address
    (the scanner's external vantage), for anything else or when no
    allowlisted source is declared."""
    return allowlisted_source if expected_zone(comp.role) is Zone.RESTRICTED else None


# ---------------------------------------------------------------------------
# Schema and parsing
# ---------------------------------------------------------------------------

# Fields that are no key of their section: a component's id is its section
# suffix, and the manifest's components and client are sections of their own.
_NOT_KEYS = ("id", "components", "oauth_client")
# The two keys whose names differ from their fields.
_KEY_OF = {"allowlist_sources": "allowlist", "ca_path": "ca"}


@functools.cache
def schema(model: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(key, field name, field type, required) of each key of one section's
    model, in declaration order."""
    hints = get_type_hints(model)
    return tuple(
        (_KEY_OF.get(f.name, f.name), f.name, hints[f.name], f.default is MISSING)
        for f in fields(model)
        if f.name not in _NOT_KEYS
    )


def _text(value: Any) -> str:
    """A value in flat-text form: a field's INI value, or a JSON value read as text."""
    if isinstance(value, (tuple, list)):
        return " ".join(_text(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, ComponentRole):
        return value.value
    if isinstance(value, Endpoint):
        return value.url()
    if isinstance(value, (ApiAction, InjectTarget)):
        return value.render()
    return str(value)


def _mode(text: str, key: str, where: str) -> Mode:
    if text not in VALID_MODES:
        raise ManifestError(f"{key} {text!r} must be one of {VALID_MODES}")
    return Mode(text)


def _flag(text: str, key: str, where: str) -> bool:
    word = text.lower()
    if word not in ("true", "false"):
        raise ManifestError(f"{key} {word!r} must be true or false")
    return word == "true"


def _integer(text: str, key: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ManifestError(f"{where}: {key} must be an integer") from None


def _role(text: Optional[str], key: str, where: str) -> ComponentRole:
    try:
        return ComponentRole(text)
    except ValueError:
        valid = ", ".join(r.value for r in ComponentRole)
        raise ManifestError(f"{where}: {key} {text!r} must be one of: {valid}") from None


# The parser of each value kind that is not plain text, by field type. It
# takes the key's text (None for a required key that is absent), the key and
# the section, and returns the value, or None for the model's default. Plain
# text reads "" as absent.
_PARSERS: dict[Any, Callable[[Any, str, str], Any]] = {
    Mode: _mode,
    bool: _flag,
    tuple[str, ...]: lambda text, key, where: tuple(text.split()) or None,
    Optional[int]: _integer,
    ComponentRole: _role,
    tuple[Endpoint, ...]: lambda text, key, where: tuple(map(Endpoint.parse, (text or "").split())),
    Optional[ApiAction]: lambda text, key, where: ApiAction.parse(text, key) if text else None,
    Optional[InjectTarget]: lambda text, key, where: InjectTarget.parse(text) if text else None,
}


def _values(model: type, items: dict, where: str) -> dict[str, Any]:
    """The field values one section's keys give. An absent key keeps the
    model's default; a required one must be given."""
    keys = [key for key, *_ in schema(model)]
    for key in items:
        if key not in keys:
            raise ManifestError(f"unknown key {key!r} in section [{where}]")
    values = {}
    for key, name, kind, required in schema(model):
        if key in items or required:
            parse = _PARSERS.get(kind, lambda text, *_: text or None)
            value = parse(items.get(key), key, where)
            if value is not None:
                values[name] = value
            elif required:
                raise ManifestError(f"{where}.{key} is required")
    return values


def parse_manifest(data: bytes) -> TargetManifest:
    """Parse manifest file content (INI text or its JSON rendering)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not UTF-8: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest JSON syntax: {exc}") from None
        return _from_json(doc)
    return _from_ini(text)


def parse_manifest_file(path: str) -> TargetManifest:
    with open(path, "rb") as fh:
        return parse_manifest(fh.read())


def _from_ini(text: str) -> TargetManifest:
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), strict=True, interpolation=None
    )
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.DuplicateSectionError as exc:
        section = exc.section
        if section.startswith("component "):
            raise ManifestError(f"duplicate component id: {section.split(' ', 1)[1]}") from None
        raise ManifestError(f"duplicate section: {section}") from None
    except configparser.Error as exc:
        raise ManifestError(f"manifest syntax: {exc}") from None

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    components = []
    for name, items in sections.items():
        if name.startswith("component "):
            comp_id = name[len("component "):].strip()
            if not comp_id:
                raise ManifestError("component section with empty id")
            components.append((comp_id, items))
        elif name not in ("target", "client"):
            raise ManifestError(f"unknown section [{name}]")
    return _assemble(sections.get("target", {}), sections.get("client", {}), components)


def _from_json(doc: Any) -> TargetManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest JSON must be an object")
    target, client, *components = (
        _json_items(section)
        for section in [doc.get("target"), doc.get("client"), *(doc.get("components") or [])]
    )
    return _assemble(target, client, [(c.pop("id", None), c) for c in components])


def _json_items(section: Any) -> dict[str, str]:
    """One JSON section in flat-text form; null means absent."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ManifestError("manifest JSON sections must be objects")
    return {key: _text(value) for key, value in section.items() if value is not None}


def _assemble(target: dict, client: dict, components: list[tuple]) -> TargetManifest:
    settings = _values(TargetManifest, target, "target")
    oauth_client = OAuthClient(**_values(OAuthClient, client, "client"))
    if not oauth_client.client_secret and not oauth_client.has_certificate():
        raise ManifestError("client needs client_secret or certificate+key")

    specs: list[ComponentSpec] = []
    for comp_id, items in components:
        if not comp_id:
            raise ManifestError("component without id")
        if any(spec.id == comp_id for spec in specs):
            raise ManifestError(f"duplicate component id: {comp_id}")
        where = f"component {comp_id}"
        spec = ComponentSpec(id=comp_id, **_values(ComponentSpec, items, where))
        if not spec.endpoints and spec.role != ComponentRole.KEY_MANAGEMENT:
            raise ManifestError(f"{where}: endpoints required for role {spec.role.value}")
        specs.append(spec)

    servers = sum(spec.role == ComponentRole.OAUTH_SERVER for spec in specs)
    if servers != 1:
        raise ManifestError(f"exactly one OAuthServer component required, found {servers}")
    return TargetManifest(components=tuple(specs), oauth_client=oauth_client, **settings)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fields_of(model: Any) -> list[tuple[str, Any]]:
    """(key, value) of each key of one section's model."""
    return [(key, getattr(model, name)) for key, name, *_ in schema(type(model))]


def render_ini(manifest: TargetManifest) -> str:
    """Flat text rendering; parse(render(m)) == m for every valid manifest."""
    sections = [("target", manifest), ("client", manifest.oauth_client)] + [
        (f"component {comp.id}", comp) for comp in manifest.components
    ]
    return "\n".join(
        f"[{name}]\n" + "".join(
            f"{key} = {_text(value)}\n"
            for key, value in _fields_of(model)
            if value not in (None, ())
        )
        for name, model in sections
    )


def _json_of(model: Any) -> dict[str, Any]:
    """One section as JSON: tuples become lists of text; None, booleans and
    numbers stay as they are."""
    return {
        key: [_text(v) for v in value] if isinstance(value, tuple)
        else value if value is None or isinstance(value, (bool, int))
        else _text(value)
        for key, value in _fields_of(model)
    }


def render_json(manifest: TargetManifest) -> str:
    """JSON rendering of the same schema, key-sorted for stable digests."""
    doc = {
        "target": _json_of(manifest),
        "client": _json_of(manifest.oauth_client),
        "components": [{"id": comp.id, **_json_of(comp)} for comp in manifest.components],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def manifest_digest(manifest: TargetManifest) -> str:
    """Stable digest identifying the audited target description."""
    return hashlib.sha256(render_json(manifest).encode("utf-8")).hexdigest()
