"""The newline-delimited membership-query wire protocol."""

import io
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from copysampler import (
    ConcentricCirclesOracle,
    ExternalOracle,
    HalfspaceOracle,
    ProtocolError,
    QueryTransportError,
    Spiral2DOracle,
    external_handshake,
    parse_handshake,
    serve_oracle,
)
from copysampler import oracles
from copysampler.core import RandomSource

SERVER_SNIPPET = (
    "from copysampler.oracles import HalfspaceOracle, serve_stdio; "
    "serve_stdio(HalfspaceOracle(w=(1.0, 0.0), c=0.5))"
)


SPIRAL_SNIPPET = (
    "from copysampler import Spiral2DOracle, serve_stdio; "
    "serve_stdio(Spiral2DOracle(turns=1.5))"
)


def spawn_server():
    return ExternalOracle.spawn([sys.executable, "-c", SERVER_SNIPPET])


class TestHandshake:
    def test_valid(self):
        assert parse_handshake("HELLO 2 3\n") == (2, 3)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ProtocolError):
            parse_handshake("HELLO 0 2\n")

    def test_arity_rejected(self):
        with pytest.raises(ProtocolError):
            parse_handshake("HELLO 2\n")

    def test_wrong_tag_rejected(self):
        with pytest.raises(ProtocolError):
            parse_handshake("HOWDY 2 2\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ProtocolError):
            parse_handshake("HELLO two 3\n")

    def test_reads_from_transport(self):
        assert external_handshake(io.StringIO("HELLO 4 2\n")) == (4, 2)

    def test_eof_before_handshake(self):
        with pytest.raises(ProtocolError):
            external_handshake(io.StringIO(""))


class TestInProcessServer:
    def _run(self, requests: str):
        inbound = io.StringIO(requests)
        outbound = io.StringIO()
        oracle = HalfspaceOracle(w=(1.0, 0.0), c=0.5)
        answered = serve_oracle(oracle, inbound, outbound)
        return answered, outbound.getvalue()

    def test_greeting_and_labels(self):
        answered, out = self._run("0.7 0.2\n0.3 0.9\nBYE\n")
        lines = out.splitlines()
        assert lines[0] == "HELLO 2 2"
        assert lines[1:] == ["1", "0"]
        assert answered == 2

    def test_eof_terminates(self):
        answered, out = self._run("0.7 0.2\n")
        assert answered == 1

    def test_malformed_request_raises(self):
        with pytest.raises(ProtocolError):
            self._run("0.7\n")

    def test_non_numeric_request_raises(self):
        with pytest.raises(ProtocolError):
            self._run("a b\n")

    def test_unterminated_last_request_is_answered_at_eof(self):
        answered, out = self._run("0.7 0.2\n0.3 0.9")
        assert (answered, out) == (2, "HELLO 2 2\n1\n0\n")

    @pytest.mark.parametrize("request_line", ["nan 0.5", "inf inf", "1e400 0", "0.5 -Infinity"])
    def test_non_finite_coordinate_raises_naming_the_line(self, request_line):
        out = io.StringIO()
        with pytest.raises(ProtocolError, match=re.escape(repr(request_line))):
            serve_oracle(Spiral2DOracle(1.5), io.StringIO(f"{request_line}\n0.5 0.5\nBYE\n"), out)
        assert out.getvalue() == "HELLO 2 2\n"


def _pipe_holding(text: str):
    """A reader whose pipe already holds `text`, then end of stream."""
    r_fd, w_fd = os.pipe()
    os.write(w_fd, text.encode())
    os.close(w_fd)
    return os.fdopen(r_fd, "r")


class TestBatchedServer:
    """One read brings every waiting request; they are answered in one write."""

    def test_window_of_100_rows_is_answered_in_one_write(self):
        X = RandomSource(46).uniform((100, 2))
        window = sum(len(" ".join(map(oracles._REQUEST_FIELD, z.tolist()))) + 1 for z in X)
        assert window <= oracles._WINDOW_BYTES  # the client sends one window
        oracle = Spiral2DOracle(1.5)
        c2s_r, c2s_w = _pipe_pair()
        s2c_r, s2c_w = _pipe_pair()
        writer = RecordingWriter(s2c_w)
        server = threading.Thread(target=serve_oracle, args=(oracle, c2s_r, writer))
        server.start()
        with ExternalOracle(s2c_r, c2s_w) as client:
            labels = client.query_many(X)
        server.join(timeout=5)
        assert not server.is_alive()
        c2s_r.close()
        s2c_w.close()
        np.testing.assert_array_equal(labels, Spiral2DOracle(1.5).query_many(X))
        assert writer.writes[1:] == ["".join(f"{label}\n" for label in labels.tolist())]
        assert oracle.query_count == 100

    def test_bye_inside_a_read_answers_the_requests_before_it(self):
        out = io.StringIO()
        with _pipe_holding("0.7 0.2\n0.3 0.9\nBYE\n0.9 0.9\n") as reader:
            assert serve_oracle(HalfspaceOracle(w=(1.0, 0.0), c=0.5), reader, out) == 2
        assert out.getvalue() == "HELLO 2 2\n1\n0\n"

    @pytest.mark.parametrize("bad, match", [
        ("0.5", "expected 2 coordinates, got 1: '0.5'"),
        ("a b", "non-numeric coordinate in request: 'a b'"),
        ("1e400 0", "non-finite coordinate in request: '1e400 0'"),
    ])
    def test_bad_line_in_a_read_raises_after_the_requests_before_it(self, bad, match):
        out = io.StringIO()
        with _pipe_holding(f"0.7 0.2\n0.3 0.9\n{bad}\n0.9 0.9\n") as reader:
            with pytest.raises(ProtocolError, match=re.escape(match)):
                serve_oracle(HalfspaceOracle(w=(1.0, 0.0), c=0.5), reader, out)
        assert out.getvalue() == "HELLO 2 2\n1\n0\n"

    def test_partial_line_waits_and_holds_back_no_whole_line(self, monkeypatch):
        monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 5.0)
        c2s_r, c2s_w = _pipe_pair()
        s2c_r, s2c_w = _pipe_pair()
        replies = oracles._LineReader(s2c_r)
        oracle = HalfspaceOracle(w=(1.0, 0.0), c=0.5)
        server = threading.Thread(target=serve_oracle, args=(oracle, c2s_r, s2c_w))
        server.start()
        try:
            assert replies.readline() == "HELLO 2 2\n"
            os.write(c2s_w.fileno(), b"0.7 0.2\n0.3")
            assert replies.readline() == "1\n"  # answered before the next line ends
            os.write(c2s_w.fileno(), b" 0.9\nBYE\n")
            assert replies.readline() == "0\n"
        finally:
            c2s_w.close()
            server.join(timeout=5)
        assert not server.is_alive()
        assert oracle.query_count == 2
        for stream in (c2s_r, s2c_r, s2c_w):
            stream.close()


class TestChildProcess:
    def test_end_to_end_matches_direct(self):
        direct = HalfspaceOracle(w=(1.0, 0.0), c=0.5)
        with spawn_server() as remote:
            assert (remote.d, remote.k) == (2, 2)
            rng = RandomSource(31)
            X = rng.uniform((50, 2))
            np.testing.assert_array_equal(remote.query_many(X), direct.query_many(X))
            assert remote.query_count == 50

    def test_transport_failure_raises(self):
        remote = spawn_server()
        remote._proc.kill()
        remote._proc.wait()
        with pytest.raises((QueryTransportError, ProtocolError)):
            for _ in range(3):  # first write may land in a dying pipe buffer
                remote.query(np.array([0.1, 0.2]))

    def test_bye_shuts_down_cleanly(self):
        remote = spawn_server()
        remote.query(np.array([0.9, 0.9]))
        remote.close()
        assert remote._proc.returncode == 0

    def test_close_kills_a_child_that_ignores_bye(self, monkeypatch):
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        snippet = "import time; print('HELLO 2 2', flush=True); time.sleep(60)"
        remote = ExternalOracle.spawn([sys.executable, "-c", snippet])
        start = time.monotonic()
        remote.close()
        assert time.monotonic() - start < 30
        assert remote._proc.poll() is not None

    def test_silent_child_times_out_mid_query(self, monkeypatch):
        monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 0.3)
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        snippet = "import time; print('HELLO 2 2', flush=True); time.sleep(60)"
        remote = ExternalOracle.spawn([sys.executable, "-c", snippet])
        start = time.monotonic()
        with pytest.raises(QueryTransportError, match="no reply"):
            remote.query(np.array([0.1, 0.2]))
        assert time.monotonic() - start < 30
        remote.close()
        assert remote._proc.poll() is not None

    @pytest.mark.parametrize("snippet", [
        "import sys, time; print('HELLO 2 2', flush=True); sys.stdin.readline();"
        " sys.stdout.write('1'); sys.stdout.flush(); time.sleep(60)",
        "import sys, time; sys.stdout.write('HELLO 2'); sys.stdout.flush(); time.sleep(60)",
    ], ids=["label", "greeting"])
    def test_child_that_stalls_mid_line_times_out(self, monkeypatch, snippet):
        monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 0.3)
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        start = time.monotonic()
        with pytest.raises(QueryTransportError, match="no reply"):
            with ExternalOracle.spawn([sys.executable, "-c", snippet]) as remote:
                remote.query(np.array([0.1, 0.2]))
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("snippet", [
        "import sys; print('HELLO 2 12', flush=True); sys.stdin.readline(); sys.stdout.write('1')",
        "import sys; sys.stdout.write('HELLO 2 2')",
    ], ids=["label", "greeting"])
    def test_child_that_exits_mid_line_fails(self, snippet):
        with pytest.raises(QueryTransportError, match="part-way through the line"):
            with ExternalOracle.spawn([sys.executable, "-c", snippet]) as remote:
                remote.query(np.array([0.1, 0.2]))

    def test_command_that_cannot_start_raises_transport_error(self, tmp_path):
        missing = str(tmp_path / "no-such-server")
        with pytest.raises(QueryTransportError, match=re.escape(f"'{missing} --flag'")):
            ExternalOracle.spawn([missing, "--flag"])
        not_executable = tmp_path / "server.txt"
        not_executable.write_text("HELLO 2 2\n")
        not_executable.chmod(0o644)
        with pytest.raises(QueryTransportError, match="cannot start the oracle command"):
            ExternalOracle.spawn([str(not_executable)])

    def test_close_kills_a_child_that_ends_its_output_but_runs_on(self, monkeypatch):
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        snippet = ("import os, time; print('HELLO 2 2', flush=True); os.close(1); "
                   "time.sleep(60)")
        remote = ExternalOracle.spawn([sys.executable, "-c", snippet])
        start = time.monotonic()
        remote.close()
        assert time.monotonic() - start < 30
        assert remote._proc.poll() is not None

    def test_close_kills_a_child_that_writes_on_after_bye(self, monkeypatch):
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        real_readable = oracles._readable

        def slow_readable(*args):  # the child refills the pipe before each poll
            time.sleep(0.005)
            return real_readable(*args)

        monkeypatch.setattr(oracles, "_readable", slow_readable)
        snippet = ("import sys\nprint('HELLO 2 2', flush=True)\n"
                   "while True:\n    sys.stdout.write('1\\n' * 1000); sys.stdout.flush()")
        remote = ExternalOracle.spawn([sys.executable, "-c", snippet])
        closer = threading.Thread(target=remote.close, daemon=True)
        closer.start()
        closer.join(10)
        assert not closer.is_alive()
        assert remote._proc.returncode == -signal.SIGKILL

    def test_close_reaps_a_child_whose_stdout_a_grandchild_holds(self, monkeypatch, tmp_path):
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 5.0)
        pid_file = tmp_path / "grandchild.pid"
        snippet = ("import subprocess, sys; print('HELLO 2 2', flush=True); "
                   "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
                   "open(sys.argv[1], 'w').write(str(p.pid)); sys.stdin.readline()")
        remote = ExternalOracle.spawn([sys.executable, "-c", snippet, str(pid_file)])
        try:
            while not pid_file.exists() or not pid_file.read_text():
                time.sleep(0.01)
            start = time.monotonic()
            remote.close()
            assert time.monotonic() - start < 2
            assert remote._proc.returncode == 0
        finally:
            remote.close()
            if pid_file.exists() and pid_file.read_text():
                os.kill(int(pid_file.read_text()), signal.SIGKILL)

    def test_spawn_with_descriptors_past_1024(self):
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < 1200:
            pytest.skip(f"the open-file limit {soft} is below 1200")
        held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
        try:
            with ExternalOracle.spawn([sys.executable, "-c", SPIRAL_SNIPPET]) as remote:
                assert remote._lines._fd >= 1024
                X = RandomSource(8).uniform((30, 2))
                direct = Spiral2DOracle(turns=1.5)
                assert remote.query(X[0]) == direct.query(X[0])
                np.testing.assert_array_equal(remote.query_many(X), direct.query_many(X))
            assert remote._proc.returncode == 0
        finally:
            for fd in held:
                os.close(fd)

    def test_second_close_is_a_no_op(self):
        remote = spawn_server()
        remote.close()
        remote.close()
        assert remote._proc.returncode == 0

    def test_child_that_never_greets_times_out(self, monkeypatch):
        monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 0.3)
        started = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            started.append(real_popen(*args, **kwargs))
            return started[-1]

        # the subprocess module `spawn` imports when it runs
        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        start = time.monotonic()
        with pytest.raises(QueryTransportError, match="no reply"):
            ExternalOracle.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
        assert time.monotonic() - start < 30
        assert started[0].poll() is not None  # the failed spawn reaped its child


# Servers for the pipelining tests.  They never import copysampler: each
# reads a line at a time from stdin and prints one label per request.
RINGS_SERVER = """
import math, sys
print("HELLO 2 3", flush=True)
for line in sys.stdin:
    if line.strip() == "BYE":
        break
    x, y = map(float, line.split())
    r = math.sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5))
    print(int(r >= 0.2) + int(r >= 0.4), flush=True)
"""

WIDE_SERVER = """
import sys
print("HELLO 300 2", flush=True)
for line in sys.stdin:
    if line.strip() == "BYE":
        break
    print(int(float(line.split()[0]) >= 0.5), flush=True)
"""

# Answers `good` requests, then does `then`; `good` comes as argv[1].
FAILING_SERVER = """
import sys, time
print("HELLO 2 2", flush=True)
good = int(sys.argv[1])
for _ in range(good):
    sys.stdin.readline()
    print(1, flush=True)
{then}
"""


class RecordingWriter:
    """A transport writer that keeps the text of every write it passes on."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


def spawn_recorded(source, *args):
    remote = ExternalOracle.spawn([sys.executable, "-c", source, *map(str, args)])
    remote._writer = RecordingWriter(remote._writer)
    return remote


class TestPipelinedQueries:
    def test_third_party_server_labels_a_large_block_exactly(self):
        direct = ConcentricCirclesOracle((0.5, 0.5), [0.2, 0.4])
        X = RandomSource(41).uniform((10_000, 2))
        with spawn_recorded(RINGS_SERVER) as remote:
            labels = remote.query_many(X)
            assert remote.query_count == 10_000
            writes = list(remote._writer.writes)  # BYE comes after
        np.testing.assert_array_equal(labels, direct.query_many(X))
        assert set(labels.tolist()) == {0, 1, 2}
        # requests went out in windows of whole lines, each within one page
        assert len(writes) < 10_000 / 50
        assert all(w.endswith("\n") and len(w) <= 4096 for w in writes)
        assert "".join(writes).count("\n") == 10_000

    def test_request_wider_than_a_page_goes_alone(self):
        X = RandomSource(42).uniform((20, 300))
        with spawn_recorded(WIDE_SERVER) as remote:
            labels = remote.query_many(X)
            writes = list(remote._writer.writes)  # BYE comes after
        np.testing.assert_array_equal(labels, (X[:, 0] >= 0.5).astype(np.int64))
        assert len(writes) == 20
        assert all(len(w) > 4096 and w.count("\n") == 1 for w in writes)

    def test_malformed_label_mid_window_fails_every_later_query(self, monkeypatch):
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        then = "sys.stdin.readline(); print('oops', flush=True); time.sleep(60)"
        with spawn_recorded(FAILING_SERVER.format(then=then), 3) as remote:
            with pytest.raises(ProtocolError, match="oops"):
                remote.query_many(RandomSource(43).uniform((6, 2)))
            sent = len(remote._writer.writes)
            assert sent == 1  # all six requests went out in one window
            with pytest.raises(QueryTransportError, match="failed earlier"):
                remote.query(np.array([0.1, 0.2]))
            with pytest.raises(QueryTransportError, match="failed earlier"):
                remote.query_many(RandomSource(44).uniform((2, 2)))
            assert len(remote._writer.writes) == sent

    def test_server_silent_mid_window_times_out(self, monkeypatch):
        monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 0.3)
        monkeypatch.setattr(oracles, "CLOSE_GRACE_S", 0.2)
        start = time.monotonic()
        with spawn_recorded(FAILING_SERVER.format(then="time.sleep(60)"), 2) as remote:
            with pytest.raises(QueryTransportError, match="no reply"):
                remote.query_many(RandomSource(45).uniform((5, 2)))
            with pytest.raises(QueryTransportError, match="failed earlier"):
                remote.query(np.array([0.1, 0.2]))
            assert len(remote._writer.writes) == 1
        assert time.monotonic() - start < 10


class TestStreamPairTransport:
    def test_duplex_pipe(self):
        # exercise the protocol over plain in-process pipes, no subprocess
        c2s_r, c2s_w = _pipe_pair()
        s2c_r, s2c_w = _pipe_pair()
        oracle = HalfspaceOracle(w=(0.0, 1.0), c=0.25)
        server = threading.Thread(target=serve_oracle, args=(oracle, c2s_r, s2c_w))
        server.start()
        client = ExternalOracle(s2c_r, c2s_w)
        assert client.query(np.array([0.0, 0.9])) == 1
        assert client.query(np.array([0.0, 0.1])) == 0
        client.close()
        server.join(timeout=5)
        assert not server.is_alive()

    def test_stringio_reader_has_no_timeout(self, monkeypatch):
        monkeypatch.setattr(oracles, "QUERY_TIMEOUT_S", 0.0)
        client = ExternalOracle(io.StringIO("HELLO 1 2\n1\n"), io.StringIO())
        assert client.query(np.array([0.5])) == 1

    def test_label_out_of_range_rejected(self):
        reader = io.StringIO("HELLO 1 2\n7\n")
        writer = io.StringIO()
        client = ExternalOracle(reader, writer)
        with pytest.raises(ProtocolError):
            client.query(np.array([0.5]))

    def test_label_cut_off_by_eof_rejected(self):
        client = ExternalOracle(io.StringIO("HELLO 1 12\n1"), io.StringIO())
        with pytest.raises(QueryTransportError, match="part-way through the line '1'"):
            client.query(np.array([0.5]))

    def test_greeting_cut_off_by_eof_rejected(self):
        with pytest.raises(QueryTransportError, match="part-way through the line 'HELLO 1 2'"):
            ExternalOracle(io.StringIO("HELLO 1 2"), io.StringIO())

    def test_label_beyond_int64_rejected(self):
        client = ExternalOracle(io.StringIO("HELLO 1 2\n99999999999999999999\n"),
                                io.StringIO())
        with pytest.raises(ProtocolError):
            client.query(np.array([0.5]))

    def test_query_many_sends_one_request_per_row(self):
        writer = io.StringIO()
        client = ExternalOracle(io.StringIO("HELLO 2 3\n0\n2\n1\n"), writer)
        labels = client.query_many(np.array([[0.25, 0.5], [1.0, 0.0], [0.1, 0.9]]))
        assert labels.tolist() == [0, 2, 1]
        assert writer.getvalue() == "0.25 0.5\n1 0\n0.10000000000000001 0.90000000000000002\n"
        assert client.query_count == 3


def _pipe_pair():
    import os

    r_fd, w_fd = os.pipe()
    return os.fdopen(r_fd, "r"), os.fdopen(w_fd, "w")
