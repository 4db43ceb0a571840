"""Local chat-completions stub for the simulate_llm workload.

Run as its own process, so its request handling does not compete with the
measured CLI for the interpreter lock:

    python3 bench/stub.py

It binds an ephemeral port on 127.0.0.1, prints the port on one line, and
serves until terminated. Every POST is answered after a fixed hold of
HOLD_MS with a valid decision derived only from the prompt (resource tier,
phase and previous approval), so reruns are byte-identical at any
concurrency.
GET /stats returns the chat requests and the TCP connections that carried
at least one of them; the stats request itself is not counted.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: How long each reply is held before it is sent, in milliseconds.
HOLD_MS = 10.0
TIER_INDEX = {"limited": 0, "medium": 1, "rich": 2}


def decision_for(tier: str, strict: bool, approved: bool) -> dict:
    """The reply the stub gives an agent of `tier` in a strict or lenient
    phase whose previous submission was or was not approved."""
    ti = TIER_INDEX[tier]
    r = 0.5 * (ti + 1)
    if strict:
        adjustments = {"alpha2": 0.02 * r, "beta2": -0.01 * r}
    else:
        adjustments = {"alpha3": 0.02 * r, "beta3": -0.01 * r}
    if not approved:
        adjustments["alpha2"] = adjustments.get("alpha2", 0.0) + 0.01 * r
    return {
        "comply": True,
        "adjustments": adjustments,
        "safety": 5 + ti,
        "effectiveness": 4 + ti + (1 if strict else 0),
        "compliance": 6 + ti,
        "adverse": 6 - ti,
        "rationale": f"stub: {tier} tier",
    }


_TIER = re.compile(r"^resource tier: (\w+)$", re.M)
_PHASE = re.compile(r"^## Active regulations \((strict|lenient)\)$", re.M)
_APPROVED = re.compile(r"^Previous submission approved: (yes|no)$", re.M)


def reply_to(prompt: str) -> dict:
    return decision_for(
        _TIER.search(prompt).group(1),
        _PHASE.search(prompt).group(1) == "strict",
        _APPROVED.search(prompt).group(1) == "yes",
    )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self._counted = False

    def _send(self, body: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        server = self.server
        with server.lock:
            body = json.dumps({"requests": server.requests, "connections": server.connections})
        self._send(body.encode())

    def do_POST(self):
        server = self.server
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.requests += 1
            if not self._counted:
                server.connections += 1
                self._counted = True
        content = json.dumps(reply_to(request["messages"][0]["content"]), sort_keys=True)
        time.sleep(HOLD_MS / 1000.0)
        envelope = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        self._send(json.dumps(envelope).encode())

    def log_message(self, *args):
        pass


def main() -> int:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    httpd.requests = 0
    httpd.connections = 0
    httpd.lock = threading.Lock()
    print(httpd.server_address[1], flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
