"""A chat-completions endpoint on 127.0.0.1, for the remote proposer's tests.

Standard library only. In a test, `ChatServer` records every request and
answers with its replies in turn, repeating the last one; `with` serves it
from a thread. It answers POST only: any other method gets 501. As a script it
answers every POST with one fixed completion, for a pipeline run against it:

    python tests/loopback.py REPLY_FILE PORT_FILE

It writes the port it listens on to PORT_FILE, then serves until it is
stopped; the endpoint is http://127.0.0.1:PORT/v1/chat/completions.
"""

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, NamedTuple, Sequence

PATH = "/v1/chat/completions"


class Reply(NamedTuple):
    status: int = 200
    body: bytes = b""
    delay: float = 0.0  # seconds before the status line is sent


class Request(NamedTuple):
    path: str
    headers: object  # http.client.HTTPMessage: case-insensitive get
    body: bytes


def completion(content) -> Reply:
    """A 200 reply whose first choice's message carries `content`."""
    return Reply(body=json.dumps({"choices": [{"message": {"content": content}}]}).encode())


class ChatServer:
    def __init__(self, replies: Sequence[Reply]):
        self.replies = list(replies)
        self.received: List[Request] = []
        # an event, not time.sleep, holds a slow reply: tests patch
        # time.sleep, and leaving the `with` block cuts a pending delay short
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self.port = self._httpd.server_address[1]
        self.url = "http://127.0.0.1:%d%s" % (self.port, PATH)
        # a short poll, so leaving the `with` block waits milliseconds, not 0.5 s
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.01,), daemon=True)

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with server._lock:
                    server.received.append(Request(self.path, self.headers, body))
                    reply = server.replies[min(len(server.received), len(server.replies)) - 1]
                server._stopping.wait(reply.delay)
                try:
                    self.send_response(reply.status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(reply.body)))
                    self.end_headers()
                    self.wfile.write(reply.body)
                except OSError:  # the client gave up waiting
                    pass

            def log_message(self, *args):
                pass

        return Handler

    def __enter__(self) -> "ChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()


def main(argv: List[str]) -> None:
    reply_file, port_file = argv
    with open(reply_file, encoding="utf-8") as fh:
        reply = completion(fh.read())
    server = ChatServer([reply])
    # written whole, so a reader never sees a partial port
    with open(port_file + ".tmp", "w") as fh:
        fh.write("%d\n" % server.port)
    os.replace(port_file + ".tmp", port_file)
    server._httpd.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
