"""Public status page and the operator console.

The public app is a static page and sets no cookies. The operator console
issues a session cookie on its landing page; in the secure profile that
cookie carries Secure, HttpOnly and SameSite=Strict, and the page keeps
tokens out of script-reachable storage.
"""

from __future__ import annotations

import secrets

from .httpbase import JsonHandler
from .toggles import Switches

_PUBLIC_PAGE = """\
<!doctype html>
<html>
<head><title>Airspace status</title></head>
<body>
<h1>Airspace status</h1>
<p>Current advisories are published through the gateway API.</p>
<p><a href="/about">About this service</a></p>
</body>
</html>
"""

_ABOUT_PAGE = """\
<!doctype html>
<html>
<head><title>About</title></head>
<body>
<h1>About</h1>
<p>This service mirrors public airspace advisories.</p>
</body>
</html>
"""

_ADMIN_PAGE = """\
<!doctype html>
<html>
<head><title>Operator console</title></head>
<body>
<h1>Operator console</h1>
<p>Session established. Use the gateway API for record changes.</p>
</body>
</html>
"""

_ADMIN_PAGE_INSECURE = """\
<!doctype html>
<html>
<head><title>Operator console</title></head>
<body>
<h1>Operator console</h1>
<p>Session established. Use the gateway API for record changes.</p>
<script>
  localStorage.setItem("session_token", document.cookie.split("=")[1] || "");
</script>
</body>
</html>
"""


class PublicWebService:
    pass


class PublicWebHandler(JsonHandler):
    def do_GET(self):
        route = self.route()
        if route == "/":
            self.send_html(200, _PUBLIC_PAGE)
        elif route == "/about":
            self.send_html(200, _ABOUT_PAGE)
        else:
            self.send_html(404, "<h1>Not found</h1>")


class AdminWebService:
    def __init__(self, switches: Switches):
        self.switches = switches

    def session_cookie(self) -> str:
        value = secrets.token_hex(16)
        if self.switches.insecure_cookie_flags:
            return f"admin_session={value}; Path=/"
        return (
            f"admin_session={value}; Path=/; Secure; HttpOnly; SameSite=Strict"
        )

    def page(self) -> str:
        if self.switches.insecure_cookie_flags:
            return _ADMIN_PAGE_INSECURE
        return _ADMIN_PAGE


class AdminWebHandler(JsonHandler):
    def do_GET(self):
        service: AdminWebService = self.service
        if self.route() != "/":
            self.send_html(404, "<h1>Not found</h1>")
            return
        self.send_html(
            200,
            service.page(),
            extra_headers=(("Set-Cookie", service.session_cookie()),),
        )
