"""A tiny local chat-completions stub for exercising the llm policy offline.

The server binds an ephemeral loopback port and answers POSTs according to
a configurable behavior:

    reply      -> a well-formed completion envelope wrapping `content`
    garbage    -> a 200 response whose body is not JSON
    http_error -> a bare 500
    sleep      -> hold the response long enough for the client to time out

Every request increments `hits` on arrival and records its headers and
body, so retry counts and request bytes can be asserted even when the
client has already given up on the connection.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        with server.lock:
            server.hits += 1
            length = int(self.headers.get("Content-Length", 0))
            server.request_headers.append(self.headers)
            server.request_bodies.append(self.rfile.read(length))
        behavior = server.behavior
        if behavior == "sleep":
            time.sleep(server.sleep_s)
            behavior = "reply"
        try:
            self._respond(behavior)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and hung up before the reply

    def _respond(self, behavior: str):
        server = self.server
        if behavior == "http_error":
            self.send_response(500)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if behavior == "garbage":
            body = b"certainly! here is some prose instead of json"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": server.reply_content}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class StubLLMServer:
    """Context manager running the stub on 127.0.0.1:<ephemeral>."""

    def __init__(self, behavior: str = "reply", reply_content: str = "{}", sleep_s: float = 1.0):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.behavior = behavior
        self._httpd.reply_content = reply_content
        self._httpd.sleep_s = sleep_s
        self._httpd.hits = 0
        self._httpd.request_headers = []
        self._httpd.request_bodies = []
        self._httpd.lock = threading.Lock()
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    @property
    def hits(self) -> int:
        return self._httpd.hits

    @property
    def request_headers(self) -> list:
        """Each request's headers (case-insensitive lookup by name)."""
        return list(self._httpd.request_headers)

    @property
    def request_bodies(self) -> list[bytes]:
        return list(self._httpd.request_bodies)

    def set_behavior(self, behavior: str, reply_content: str | None = None):
        self._httpd.behavior = behavior
        if reply_content is not None:
            self._httpd.reply_content = reply_content

    def __enter__(self) -> "StubLLMServer":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        return False
