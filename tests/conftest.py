import json
import threading
from http.server import ThreadingHTTPServer

import pytest

from bugreplay.exemplars import ExemplarCorpus

import helpers


@pytest.fixture(scope="session")
def corpus():
    return ExemplarCorpus.builtin()


@pytest.fixture(params=helpers.SCENARIO_BUILDERS, ids=lambda b: b.__name__)
def scenario(request):
    return request.param()


@pytest.fixture
def serve():
    """serve(handler) starts a stub server on 127.0.0.1 for the test and
    returns its port. A short poll interval keeps the shutdown at the
    test's end quick."""
    servers = []

    def start(handler):
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        servers.append(server)
        return server.server_port
    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def write_json(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path
    return write


# one line per acceptance criterion, echoed after the test run so the
# verdicts survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
