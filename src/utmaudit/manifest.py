"""Target manifest: what exists, where, and what the deployment claims.

The manifest is the single input every probe trusts. It is written by the
maintaining authority (who knows its inventory; there is no discovery),
either as a flat INI-style text file or as the equivalent JSON document.
Parsed manifests are immutable and safe to share across concurrent probes.
"""

from __future__ import annotations

import configparser
import enum
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_REQUIRED_LOG_FIELDS = (
    "timestamp",
    "actor_id",
    "token_subject",
    "action",
    "resource",
    "outcome",
)

VALID_SCHEMES = ("http", "https", "tcp")
VALID_MODES = ("remote", "introspective")


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
# management interfaces must not be.
_ZONE_BY_ROLE = {
    ComponentRole.OAUTH_SERVER: Zone.PUBLIC,
    ComponentRole.HTTPS_GATEWAY: Zone.PUBLIC,
    ComponentRole.WEB_APP_PUBLIC: Zone.PUBLIC,
    ComponentRole.LOG_REPOSITORY: Zone.RESTRICTED,
    ComponentRole.KEY_MANAGEMENT: Zone.RESTRICTED,
    ComponentRole.DB_NODE: Zone.RESTRICTED,
    ComponentRole.WEB_APP_ADMIN: Zone.RESTRICTED,
    ComponentRole.USS_MOCK: Zone.PUBLIC,
}


def expected_zone(role: ComponentRole) -> Zone:
    """Visibility zone a component of this role must live in."""
    return _ZONE_BY_ROLE[role]


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
        try:
            scheme, rest = text.split("://", 1)
        except ValueError:
            raise ManifestError(f"endpoint {text!r}: expected scheme://host:port[/path]")
        if scheme not in VALID_SCHEMES:
            raise ManifestError(f"endpoint {text!r}: scheme must be one of {VALID_SCHEMES}")
        path = ""
        if "/" in rest:
            hostport, path = rest.split("/", 1)
            path = "/" + path
        else:
            hostport = rest
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
        if (
            len(parts) != 4
            or not parts[2].startswith("param=")
            or not parts[3].startswith("baseline=")
        ):
            raise ManifestError(
                f"inject {text!r}: expected 'METHOD /path param=NAME baseline=VALUE'"
            )
        return InjectTarget(
            method=parts[0].upper(),
            path=parts[1],
            param=parts[2][len("param="):],
            baseline=parts[3][len("baseline="):],
        )

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
    allowlist_sources: tuple[str, ...] = ()
    mode: str = "remote"
    required_log_fields: tuple[str, ...] = DEFAULT_REQUIRED_LOG_FIELDS
    ca_path: Optional[str] = None
    audit_fixture: bool = False

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
        return tuple(
            c
            for c in self.components
            if c.role in (ComponentRole.WEB_APP_PUBLIC, ComponentRole.WEB_APP_ADMIN)
        )

    def extra_grant_types(self) -> tuple[str, ...]:
        return tuple(g for g in self.oauth_client.grant_types if g != "client_credentials")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TARGET_KEYS = {"mode", "allowlist", "required_log_fields", "ca", "audit_fixture"}
_CLIENT_KEYS = {
    "client_id",
    "client_secret",
    "certificate",
    "key",
    "entitled_scopes",
    "grant_types",
}
_COMPONENT_KEYS = {
    "role",
    "endpoints",
    "declared_encryption_at_rest",
    "declared_token_lifetime_s",
    "storage_path",
    "audience",
    "token_path",
    "authorize_path",
    "jwks_path",
    "read",
    "write",
    "write_body",
    "inject",
}


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

    target: dict = {}
    client: dict = {}
    components: list[dict] = []
    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "target":
            _reject_unknown(items, _TARGET_KEYS, "target")
            target = items
        elif section == "client":
            _reject_unknown(items, _CLIENT_KEYS, "client")
            client = items
        elif section.startswith("component "):
            comp_id = section[len("component "):].strip()
            if not comp_id:
                raise ManifestError("component section with empty id")
            _reject_unknown(items, _COMPONENT_KEYS, section)
            items["id"] = comp_id
            components.append(items)
        else:
            raise ManifestError(f"unknown section [{section}]")
    return _assemble(target, client, components)


def _from_json(doc: dict) -> TargetManifest:
    if not isinstance(doc, dict):
        raise ManifestError("manifest JSON must be an object")
    target = dict(doc.get("target") or {})
    client = dict(doc.get("client") or {})
    components = []
    for entry in doc.get("components") or []:
        comp = dict(entry)
        comp.setdefault("id", None)
        # JSON carries lists natively; normalize to the flat-text value forms.
        if isinstance(comp.get("endpoints"), list):
            comp["endpoints"] = " ".join(comp["endpoints"])
        components.append(comp)
    for key in ("allowlist", "required_log_fields"):
        if isinstance(target.get(key), list):
            target[key] = " ".join(target[key])
    for key in ("entitled_scopes", "grant_types"):
        if isinstance(client.get(key), list):
            client[key] = " ".join(client[key])
    if "audit_fixture" in target and isinstance(target["audit_fixture"], bool):
        target["audit_fixture"] = "true" if target["audit_fixture"] else "false"
    return _assemble(target, client, components)


def _reject_unknown(items: dict, allowed: set, section: str) -> None:
    for key in items:
        if key not in allowed:
            raise ManifestError(f"unknown key {key!r} in section [{section}]")


def _split(value: Optional[str]) -> tuple[str, ...]:
    if not value:
        return ()
    return tuple(value.split())


def _assemble(target: dict, client: dict, components: list[dict]) -> TargetManifest:
    mode = target.get("mode", "remote")
    if mode not in VALID_MODES:
        raise ManifestError(f"mode {mode!r} must be one of {VALID_MODES}")
    fixture_raw = str(target.get("audit_fixture", "false")).lower()
    if fixture_raw not in ("true", "false"):
        raise ManifestError(f"audit_fixture {fixture_raw!r} must be true or false")

    if not client.get("client_id"):
        raise ManifestError("client.client_id is required")
    oauth_client = OAuthClient(
        client_id=client["client_id"],
        client_secret=client.get("client_secret") or None,
        certificate=client.get("certificate") or None,
        key=client.get("key") or None,
        entitled_scopes=_split(client.get("entitled_scopes")),
        grant_types=_split(client.get("grant_types")) or ("client_credentials",),
    )
    if not oauth_client.client_secret and not oauth_client.has_certificate():
        raise ManifestError("client needs client_secret or certificate+key")

    specs = []
    seen_ids: set[str] = set()
    for comp in components:
        comp_id = comp.get("id")
        if not comp_id:
            raise ManifestError("component without id")
        if comp_id in seen_ids:
            raise ManifestError(f"duplicate component id: {comp_id}")
        seen_ids.add(comp_id)
        role_name = comp.get("role")
        try:
            role = ComponentRole(role_name)
        except ValueError:
            valid = ", ".join(r.value for r in ComponentRole)
            raise ManifestError(
                f"component {comp_id}: role {role_name!r} must be one of: {valid}"
            ) from None
        endpoints = tuple(Endpoint.parse(e) for e in _split(comp.get("endpoints")))
        if not endpoints and role != ComponentRole.KEY_MANAGEMENT:
            raise ManifestError(f"component {comp_id}: endpoints required for role {role.value}")
        lifetime = comp.get("declared_token_lifetime_s")
        if lifetime is not None:
            try:
                lifetime = int(lifetime)
            except (TypeError, ValueError):
                raise ManifestError(
                    f"component {comp_id}: declared_token_lifetime_s must be an integer"
                ) from None
        specs.append(
            ComponentSpec(
                id=comp_id,
                role=role,
                endpoints=endpoints,
                declared_encryption_at_rest=comp.get("declared_encryption_at_rest") or None,
                declared_token_lifetime_s=lifetime,
                storage_path=comp.get("storage_path") or None,
                audience=comp.get("audience") or None,
                token_path=comp.get("token_path") or None,
                authorize_path=comp.get("authorize_path") or None,
                jwks_path=comp.get("jwks_path") or None,
                read=ApiAction.parse(comp["read"], "read") if comp.get("read") else None,
                write=ApiAction.parse(comp["write"], "write") if comp.get("write") else None,
                write_body=comp.get("write_body") or None,
                inject=InjectTarget.parse(comp["inject"]) if comp.get("inject") else None,
            )
        )

    oauth_servers = [c for c in specs if c.role == ComponentRole.OAUTH_SERVER]
    if len(oauth_servers) != 1:
        raise ManifestError(
            f"exactly one OAuthServer component required, found {len(oauth_servers)}"
        )

    return TargetManifest(
        components=tuple(specs),
        oauth_client=oauth_client,
        allowlist_sources=_split(target.get("allowlist")),
        mode=mode,
        required_log_fields=_split(target.get("required_log_fields"))
        or DEFAULT_REQUIRED_LOG_FIELDS,
        ca_path=target.get("ca") or None,
        audit_fixture=fixture_raw == "true",
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_ini(manifest: TargetManifest) -> str:
    """Flat text rendering; parse(render(m)) == m for every valid manifest."""
    out = io.StringIO()
    out.write("[target]\n")
    out.write(f"mode = {manifest.mode}\n")
    if manifest.allowlist_sources:
        out.write(f"allowlist = {' '.join(manifest.allowlist_sources)}\n")
    out.write(f"required_log_fields = {' '.join(manifest.required_log_fields)}\n")
    if manifest.ca_path:
        out.write(f"ca = {manifest.ca_path}\n")
    if manifest.audit_fixture:
        out.write("audit_fixture = true\n")

    out.write("\n[client]\n")
    c = manifest.oauth_client
    out.write(f"client_id = {c.client_id}\n")
    if c.client_secret:
        out.write(f"client_secret = {c.client_secret}\n")
    if c.certificate:
        out.write(f"certificate = {c.certificate}\n")
    if c.key:
        out.write(f"key = {c.key}\n")
    if c.entitled_scopes:
        out.write(f"entitled_scopes = {' '.join(c.entitled_scopes)}\n")
    out.write(f"grant_types = {' '.join(c.grant_types)}\n")

    for comp in manifest.components:
        out.write(f"\n[component {comp.id}]\n")
        out.write(f"role = {comp.role.value}\n")
        if comp.endpoints:
            out.write(f"endpoints = {' '.join(e.url() for e in comp.endpoints)}\n")
        if comp.declared_encryption_at_rest:
            out.write(f"declared_encryption_at_rest = {comp.declared_encryption_at_rest}\n")
        if comp.declared_token_lifetime_s is not None:
            out.write(f"declared_token_lifetime_s = {comp.declared_token_lifetime_s}\n")
        if comp.storage_path:
            out.write(f"storage_path = {comp.storage_path}\n")
        if comp.audience:
            out.write(f"audience = {comp.audience}\n")
        if comp.token_path:
            out.write(f"token_path = {comp.token_path}\n")
        if comp.authorize_path:
            out.write(f"authorize_path = {comp.authorize_path}\n")
        if comp.jwks_path:
            out.write(f"jwks_path = {comp.jwks_path}\n")
        if comp.read:
            out.write(f"read = {comp.read.render()}\n")
        if comp.write:
            out.write(f"write = {comp.write.render()}\n")
        if comp.write_body:
            out.write(f"write_body = {comp.write_body}\n")
        if comp.inject:
            out.write(f"inject = {comp.inject.render()}\n")
    return out.getvalue()


def render_json(manifest: TargetManifest) -> str:
    """JSON rendering of the same schema, key-sorted for stable digests."""
    doc = {
        "target": {
            "mode": manifest.mode,
            "allowlist": list(manifest.allowlist_sources),
            "required_log_fields": list(manifest.required_log_fields),
            "ca": manifest.ca_path,
            "audit_fixture": manifest.audit_fixture,
        },
        "client": {
            "client_id": manifest.oauth_client.client_id,
            "client_secret": manifest.oauth_client.client_secret,
            "certificate": manifest.oauth_client.certificate,
            "key": manifest.oauth_client.key,
            "entitled_scopes": list(manifest.oauth_client.entitled_scopes),
            "grant_types": list(manifest.oauth_client.grant_types),
        },
        "components": [
            {
                "id": comp.id,
                "role": comp.role.value,
                "endpoints": [e.url() for e in comp.endpoints],
                "declared_encryption_at_rest": comp.declared_encryption_at_rest,
                "declared_token_lifetime_s": comp.declared_token_lifetime_s,
                "storage_path": comp.storage_path,
                "audience": comp.audience,
                "token_path": comp.token_path,
                "authorize_path": comp.authorize_path,
                "jwks_path": comp.jwks_path,
                "read": comp.read.render() if comp.read else None,
                "write": comp.write.render() if comp.write else None,
                "write_body": comp.write_body,
                "inject": comp.inject.render() if comp.inject else None,
            }
            for comp in manifest.components
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def manifest_digest(manifest: TargetManifest) -> str:
    """Stable digest identifying the audited target description."""
    return hashlib.sha256(render_json(manifest).encode("utf-8")).hexdigest()
