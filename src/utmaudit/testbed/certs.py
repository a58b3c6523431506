"""The PKI that every testbed of one process shares.

Generates a private CA, a server certificate valid for loopback names, a
client certificate for the auditor, and a standalone RSA keypair used only
for signing tokens. Everything lives in memory until written to a
directory: once for the TLS server contexts, and once into each testbed's
workdir for the files its manifest names.
"""

from __future__ import annotations

import datetime
import hashlib
import ipaddress
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

_KEY_BITS = 2048
_SERVER_NAMES = (x509.IPAddress(ipaddress.ip_address("127.0.0.1")),
                 x509.DNSName("localhost"))


@dataclass(frozen=True)
class CertBundle:
    ca_cert_pem: bytes
    server_cert_pem: bytes
    server_key_pem: bytes
    client_cert_pem: bytes
    client_key_pem: bytes
    jwt_private_pem: bytes
    jwt_public_pem: bytes
    jwt_kid: str


@dataclass(frozen=True)
class CertPaths:
    ca_cert: str
    server_cert: str
    server_key: str
    client_cert: str
    client_key: str


def _new_key() -> rsa.RSAPrivateKey:
    return rsa.generate_private_key(public_exponent=65537, key_size=_KEY_BITS)


def _name(common_name: str) -> x509.Name:
    return x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, common_name)])


def _pem_key(key: rsa.RSAPrivateKey) -> bytes:
    return key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.TraditionalOpenSSL,
        serialization.NoEncryption(),
    )


def _issue(
    subject_cn: str,
    key: rsa.RSAPrivateKey,
    issuer_name: x509.Name,
    issuer_key: rsa.RSAPrivateKey,
    *,
    is_ca: bool = False,
    server: bool = False,
    client_auth: bool = False,
) -> x509.Certificate:
    now = datetime.datetime.now(datetime.timezone.utc)
    builder = (
        x509.CertificateBuilder()
        .subject_name(_name(subject_cn))
        .issuer_name(issuer_name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(hours=1))
        .not_valid_after(now + datetime.timedelta(days=7))
        .add_extension(x509.BasicConstraints(ca=is_ca, path_length=None), critical=True)
    )
    if server:
        builder = builder.add_extension(
            x509.SubjectAlternativeName(_SERVER_NAMES), critical=False
        )
        builder = builder.add_extension(
            x509.ExtendedKeyUsage([ExtendedKeyUsageOID.SERVER_AUTH]), critical=False
        )
    if client_auth:
        builder = builder.add_extension(
            x509.ExtendedKeyUsage([ExtendedKeyUsageOID.CLIENT_AUTH]), critical=False
        )
    return builder.sign(issuer_key, hashes.SHA256())


def make_bundle() -> CertBundle:
    # RSA key generation releases the GIL, so the four keys are made at once
    with ThreadPoolExecutor(max_workers=4) as pool:
        ca_key, server_key, client_key, jwt_key = pool.map(
            lambda _: _new_key(), range(4)
        )

    ca_cert = _issue("testbed-ca", ca_key, _name("testbed-ca"), ca_key, is_ca=True)
    server_cert = _issue("testbed", server_key, ca_cert.subject, ca_key, server=True)
    client_cert = _issue("auditor", client_key, ca_cert.subject, ca_key, client_auth=True)

    jwt_public = jwt_key.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    jwt_der = jwt_key.public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )

    pem = serialization.Encoding.PEM
    return CertBundle(
        ca_cert_pem=ca_cert.public_bytes(pem),
        server_cert_pem=server_cert.public_bytes(pem),
        server_key_pem=_pem_key(server_key),
        client_cert_pem=client_cert.public_bytes(pem),
        client_key_pem=_pem_key(client_key),
        jwt_private_pem=_pem_key(jwt_key),
        jwt_public_pem=jwt_public,
        jwt_kid=hashlib.sha256(jwt_der).hexdigest()[:16],
    )


def write_bundle(bundle: CertBundle, directory: str) -> CertPaths:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    files = {
        "ca.pem": bundle.ca_cert_pem,
        "server.pem": bundle.server_cert_pem,
        "server.key": bundle.server_key_pem,
        "client.pem": bundle.client_cert_pem,
        "client.key": bundle.client_key_pem,
    }
    for name, data in files.items():
        path = root / name
        path.write_bytes(data)
        path.chmod(0o600)
    return CertPaths(
        ca_cert=str(root / "ca.pem"),
        server_cert=str(root / "server.pem"),
        server_key=str(root / "server.key"),
        client_cert=str(root / "client.pem"),
        client_key=str(root / "client.key"),
    )
