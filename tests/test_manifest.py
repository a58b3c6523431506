"""Manifest parsing, validation, rendering, and zone mapping."""

import json
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utmaudit.manifest import (
    DEFAULT_REQUIRED_LOG_FIELDS,
    ApiAction,
    ComponentRole,
    ComponentSpec,
    Endpoint,
    InjectTarget,
    ManifestError,
    OAuthClient,
    TargetManifest,
    Zone,
    expected_zone,
    manifest_digest,
    parse_manifest,
    render_ini,
    render_json,
    schema,
)

MINIMAL = b"""\
[target]
mode = remote

[client]
client_id = auditor
client_secret = s3cret-value

[component auth]
role = OAuthServer
endpoints = https://127.0.0.1:8443
token_path = /token
"""


def test_minimal_manifest_parses():
    m = parse_manifest(MINIMAL)
    assert m.mode == "remote"
    assert m.oauth_client.client_id == "auditor"
    assert len(m.components) == 1
    comp = m.component("auth")
    assert comp.role == ComponentRole.OAUTH_SERVER
    assert comp.primary_endpoint() == Endpoint("127.0.0.1", 8443, "https")
    assert comp.token_path == "/token"


def test_defaults():
    m = parse_manifest(MINIMAL)
    assert m.required_log_fields == (
        "timestamp",
        "actor_id",
        "token_subject",
        "action",
        "resource",
        "outcome",
    )
    assert m.allowlist_sources == ()
    assert m.audit_fixture is False
    assert m.oauth_client.grant_types == ("client_credentials",)


def test_duplicate_component_id_rejected():
    doubled = MINIMAL + b"\n[component auth]\nrole = DbNode\nendpoints = tcp://h:1\n"
    with pytest.raises(ManifestError, match="duplicate component id: auth"):
        parse_manifest(doubled)


def test_unknown_key_rejected():
    bad = MINIMAL + b"colour = blue\n"
    with pytest.raises(ManifestError, match="colour"):
        parse_manifest(bad)


def test_unknown_section_rejected():
    with pytest.raises(ManifestError, match="unknown section"):
        parse_manifest(MINIMAL + b"\n[extras]\nx = 1\n")


def test_bad_role_names_field():
    bad = MINIMAL.replace(b"role = OAuthServer", b"role = TokenServer")
    with pytest.raises(ManifestError, match="TokenServer"):
        parse_manifest(bad)


def test_missing_oauth_server_rejected():
    bad = MINIMAL.replace(b"role = OAuthServer", b"role = DbNode")
    with pytest.raises(ManifestError, match="OAuthServer"):
        parse_manifest(bad)


def test_client_without_credentials_rejected():
    bad = MINIMAL.replace(b"client_secret = s3cret-value\n", b"")
    with pytest.raises(ManifestError, match="client_secret or certificate"):
        parse_manifest(bad)


def test_bad_mode_rejected():
    bad = MINIMAL.replace(b"mode = remote", b"mode = drive-by")
    with pytest.raises(ManifestError, match="drive-by"):
        parse_manifest(bad)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("https://host", "missing port"),
        ("https://host:0", "out of range"),
        ("https://host:99999", "out of range"),
        ("https://host:eight", "not an integer"),
        ("gopher://host:70", "scheme"),
        ("host:443", "scheme://host:port"),
        ("https://:443", "empty host"),
    ],
)
def test_endpoint_rejects(text, fragment):
    with pytest.raises(ManifestError, match=fragment):
        Endpoint.parse(text)


def test_endpoint_with_path():
    ep = Endpoint.parse("https://a.example:443/v1/api")
    assert ep.path == "/v1/api"
    assert ep.url() == "https://a.example:443/v1/api"


def test_action_and_inject_parsing():
    act = ApiAction.parse("get /isa scope=utm.read", "read")
    assert act == ApiAction("GET", "/isa", "utm.read")
    inj = InjectTarget.parse("GET /isa param=area baseline=zone-a")
    assert inj.param == "area" and inj.baseline == "zone-a"
    with pytest.raises(ManifestError):
        ApiAction.parse("GET /isa", "read")
    with pytest.raises(ManifestError):
        InjectTarget.parse("GET /isa param=area")


# Every role maps to exactly one zone and the split matches the exposure
# model: token issuance and operational APIs public, storage and management
# surfaces restricted.
def test_zone_mapping_total():
    public = {r for r in ComponentRole if expected_zone(r) == Zone.PUBLIC}
    restricted = {r for r in ComponentRole if expected_zone(r) == Zone.RESTRICTED}
    assert public == {
        ComponentRole.OAUTH_SERVER,
        ComponentRole.HTTPS_GATEWAY,
        ComponentRole.WEB_APP_PUBLIC,
        ComponentRole.USS_MOCK,
    }
    assert restricted == {
        ComponentRole.LOG_REPOSITORY,
        ComponentRole.KEY_MANAGEMENT,
        ComponentRole.DB_NODE,
        ComponentRole.WEB_APP_ADMIN,
    }


def test_json_form_equivalent():
    m = parse_manifest(MINIMAL)
    again = parse_manifest(render_json(m).encode())
    assert again == m


def test_json_rejects_non_object():
    with pytest.raises(ManifestError):
        parse_manifest(b"{...broken")


def test_digest_stable_across_forms():
    m = parse_manifest(MINIMAL)
    via_json = parse_manifest(render_json(m).encode())
    assert manifest_digest(m) == manifest_digest(via_json)
    other = parse_manifest(MINIMAL.replace(b"8443", b"9443"))
    assert manifest_digest(m) != manifest_digest(other)


# Every report carries this digest, so its bytes are part of the report.
PACKAGED_DIGEST = "86ceb36b49a67d852024bacd78da78005a08c422cc7ea9c1dfeeabdae990f7be"


def test_digest_of_packaged_example_is_pinned():
    data = (resources.files("utmaudit") / "data" / "testbed.manifest").read_bytes()
    m = parse_manifest(data)
    assert manifest_digest(m) == PACKAGED_DIGEST
    assert manifest_digest(parse_manifest(render_json(m).encode())) == PACKAGED_DIGEST


FORMAT_DOC = Path(__file__).parent.parent / "docs" / "manifest-format.md"


def _documented_keys() -> dict[str, set[str]]:
    """The keys of each section's table in the format document."""
    keys: dict[str, set[str]] = {}
    section = None
    for line in FORMAT_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = re.match(r"## `\[(\w+)", line)
            section = heading.group(1) if heading else None
            if section:
                keys[section] = set()
        elif section and line.startswith("| `"):
            keys[section] |= set(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


def test_format_doc_lists_exactly_the_schema_keys():
    models = {"target": TargetManifest, "client": OAuthClient, "component": ComponentSpec}
    assert _documented_keys() == {
        section: {key for key, *_ in schema(model)} for section, model in models.items()
    }


# ---------------------------------------------------------------------------
# Round-trip property over generated manifests
# ---------------------------------------------------------------------------

_ident = st.from_regex(r"[a-z][a-z0-9\-]{0,11}", fullmatch=True)
_host = st.sampled_from(["127.0.0.1", "localhost", "svc.internal"])
_scope = st.sampled_from(["utm.read", "utm.write", "logs.read", "logs.write", "admin"])


@st.composite
def endpoints(draw):
    return Endpoint(
        host=draw(_host),
        port=draw(st.integers(1, 65535)),
        scheme=draw(st.sampled_from(["http", "https", "tcp"])),
        path=draw(st.sampled_from(["", "/v1", "/api/q"])),
    )


@st.composite
def components(draw, comp_id, role):
    # A KeyManagement component is the one role that may declare no endpoints.
    fewest = 0 if role is ComponentRole.KEY_MANAGEMENT else 1
    return ComponentSpec(
        id=comp_id,
        role=role,
        endpoints=tuple(draw(st.lists(endpoints(), min_size=fewest, max_size=3))),
        declared_encryption_at_rest=draw(st.sampled_from([None, "AES-256", "AES-128"])),
        declared_token_lifetime_s=draw(st.sampled_from([None, 300, 900, 86400])),
        storage_path=draw(st.sampled_from([None, "/var/lib/store.db"])),
        audience=draw(st.sampled_from([None, "gateway", "logs"])),
        token_path=draw(st.sampled_from([None, "/token"])),
        authorize_path=draw(st.sampled_from([None, "/authorize"])),
        jwks_path=draw(st.sampled_from([None, "/jwks.json"])),
        read=draw(
            st.sampled_from([None, ApiAction("GET", "/isa", "utm.read")])
        ),
        write=draw(
            st.sampled_from([None, ApiAction("PUT", "/isa/x", "utm.write")])
        ),
        write_body=draw(
            st.sampled_from([None, '{"fields": {"action": "probe", "outcome": "ok"}}'])
        ),
        inject=draw(
            st.sampled_from([None, InjectTarget("GET", "/isa", "area", "zone-a")])
        ),
    )


@st.composite
def manifests(draw):
    ids = draw(
        st.lists(_ident, min_size=1, max_size=5, unique=True)
    )
    roles = [ComponentRole.OAUTH_SERVER] + [
        draw(st.sampled_from([r for r in ComponentRole if r != ComponentRole.OAUTH_SERVER]))
        for _ in ids[1:]
    ]
    comps = tuple(
        draw(components(comp_id, role)) for comp_id, role in zip(ids, roles)
    )
    secret = draw(st.sampled_from(["topsecretvalue", None]))
    cert = None if secret else "/path/client.crt"
    key = None if secret else "/path/client.key"
    return TargetManifest(
        components=comps,
        oauth_client=OAuthClient(
            client_id=draw(_ident),
            client_secret=secret,
            certificate=cert,
            key=key,
            entitled_scopes=tuple(draw(st.lists(_scope, max_size=3, unique=True))),
            grant_types=("client_credentials",) + tuple(draw(st.sampled_from([(), ("password",)]))),
        ),
        allowlist_sources=tuple(draw(st.lists(_host, max_size=2, unique=True))),
        mode=draw(st.sampled_from(["remote", "introspective"])),
        required_log_fields=draw(st.sampled_from([
            DEFAULT_REQUIRED_LOG_FIELDS, ("timestamp", "actor_id"), ("outcome",),
        ])),
        ca_path=draw(st.sampled_from([None, "/path/ca.pem"])),
        audit_fixture=draw(st.booleans()),
    )


@settings(max_examples=120, deadline=None)
@given(manifests())
def test_ini_round_trip(m):
    assert parse_manifest(render_ini(m).encode()) == m


@settings(max_examples=60, deadline=None)
@given(manifests())
def test_json_round_trip(m):
    assert parse_manifest(render_json(m).encode()) == m
    # JSON rendering itself is deterministic
    assert render_json(m) == render_json(parse_manifest(render_json(m).encode()))
