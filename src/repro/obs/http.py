"""The one hardened HTTP server behind every network surface.

``repro broker serve`` (the campaign broker), ``repro status --serve``
(the live campaign view) and ``repro stream serve --metrics-port`` (the
ingest server's Prometheus endpoint) each supply a route function,
``handle(method, path, body) -> (status, content_type, payload)``, and
:func:`serve` binds it to a stdlib ``ThreadingHTTPServer`` hardened the
same way for all three:

* daemon handler threads — ``ThreadingHTTPServer`` joins non-daemon
  handler threads on ``server_close()``, so one client that connects
  and goes silent would otherwise wedge shutdown (and Ctrl-C) forever;
* a per-request socket timeout, bounding how long such a client can
  hold its thread at all;
* a client that hangs up mid-response (its own timeout, a fault
  injector) is not an error: the connection is simply closed;
* no access log on stderr — requests are counted by the callers'
  metrics instead;
* a 503 answer carries ``Retry-After: 1`` (a draining broker).
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["PROMETHEUS_TYPE", "HardenedHTTPServer", "plain", "serve"]

#: Content type of the Prometheus text exposition (format 0.0.4).
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A route function: ``(method, path, body) -> (status, type, payload)``.
Handle = Callable[[str, str, bytes], tuple[int, str, bytes]]


class HardenedHTTPServer(ThreadingHTTPServer):
    """Threading server whose handler threads never block shutdown."""

    daemon_threads = True


def plain(status: int, message: str) -> tuple[int, str, bytes]:
    """A one-line plain-text answer (errors, hints)."""
    return status, "text/plain; charset=utf-8", (message + "\n").encode()


def serve(handle: Handle, port: int, host: str = "127.0.0.1",
          request_timeout_s: float = 30.0) -> HardenedHTTPServer:
    """Bind ``handle`` to a hardened server (``port=0`` picks a free one).

    The caller owns the returned server (``serve_forever()`` /
    ``shutdown()``): the CLI blocks on it, tests run it in a thread.
    """

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = request_timeout_s  # stalled sockets release the thread

        def _dispatch(self) -> None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length > 0 else b""
                status, content_type, payload = handle(
                    self.command, self.path, body)
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                if status == 503:
                    self.send_header("Retry-After", "1")
                self.end_headers()
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True

        do_GET = do_POST = do_PUT = _dispatch

        def log_message(self, format: str, *args: object) -> None:
            pass

    return HardenedHTTPServer((host, port), _Handler)
