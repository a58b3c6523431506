"""Named vulnerability toggles and the toggle-to-check ground truth matrix.

Each toggle disables exactly one control in the mock deployment. The
matrix records which check(s) must flip to Fail when that toggle alone is
enabled; every other check must keep its secure-profile verdict. One
toggle intentionally maps to two checks: disabling signature verification
is observable both through tampered tokens and through forged-scope
tokens, and hiding either observation would misstate the blast radius.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import json


class UnknownToggleError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Switches:
    """The one declaration of the toggles: one field per toggle, named as
    the toggle with ``_`` for ``-``, and read by attribute wherever a
    service decides whether its control is on."""

    # network
    expose_dbnode: bool = False
    # database
    plaintext_dbnode: bool = False
    tls12_dbnode: bool = False
    string_concat_query: bool = False
    no_at_rest_encryption: bool = False
    at_rest_aes128: bool = False
    # authorization server
    no_client_cert_binding: bool = False
    over_scoped_profile: bool = False
    weak_secret: bool = False
    plaintext_secret_store: bool = False
    enable_password_grant: bool = False
    missing_csrf_state: bool = False
    # tokens
    long_expiry: bool = False
    accept_expired: bool = False
    weak_alg_hs256_default: bool = False
    expose_private_key: bool = False
    jwks_private_fields: bool = False
    skip_signature_check: bool = False
    accept_none_alg: bool = False
    accept_alg_confusion: bool = False
    no_scope_check: bool = False
    no_audience_check: bool = False
    insecure_cookie_flags: bool = False
    # logging
    coarse_logs: bool = False
    allow_log_overwrite: bool = False
    allow_log_delete: bool = False
    broken_hash_chain: bool = False
    public_log_read: bool = False

    @classmethod
    def named(cls, names) -> Switches:
        """The switches with exactly the named toggles on."""
        chosen = set(names)
        unknown = chosen.difference(TOGGLES)
        if unknown:
            raise UnknownToggleError(
                f"unknown toggles: {', '.join(sorted(unknown))}"
            )
        return cls(**{name.replace("-", "_"): True for name in chosen})


TOGGLES: tuple[str, ...] = tuple(
    field.name.replace("_", "-") for field in dataclasses.fields(Switches)
)

PROFILES: dict[str, tuple[str, ...]] = {
    "secure": (),
    "paper-poc": ("plaintext-dbnode", "enable-password-grant", "expose-private-key"),
    "all-vulnerable": TOGGLES,
}


def toggles_for_profile(profile: str) -> frozenset[str]:
    if profile not in PROFILES:
        raise UnknownToggleError(
            f"unknown profile {profile!r}; choose from {', '.join(sorted(PROFILES))}"
        )
    return frozenset(PROFILES[profile])


def load_matrix() -> dict[str, list[str]]:
    """toggle name -> check ids that must flip when it is enabled alone."""
    raw = (
        importlib.resources.files("utmaudit")
        .joinpath("testbed/toggle_matrix.json")
        .read_text(encoding="utf-8")
    )
    matrix = json.loads(raw)
    if set(matrix) != set(TOGGLES):
        missing = set(TOGGLES) - set(matrix)
        extra = set(matrix) - set(TOGGLES)
        raise RuntimeError(
            f"toggle matrix out of sync (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    return matrix
