"""Launch, probe and stop the real ``repro serve`` / ``repro fleet`` processes.

Readiness is a raw connect plus a binary ``ping`` polled every
:data:`POLL_S`, not :class:`repro.client.ServiceClient`'s connect
backoff: that backoff would round the set-up time to its 50 ms x 2^k
steps and gives up after about a second.  ``repro serve`` prints its
``serving ... links`` line before it binds, so the line is no ready
signal; the fleet's ``fleet: N workers behind HOST:PORT`` line is, and
carries the front's address.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from repro import wire

POLL_S = 0.002
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_FLEET_LINE = re.compile(r"fleet: \d+ workers behind (\S+):(\d+)")
_PING = wire.HEADER.pack(wire.MAGIC, wire.FRAME_VERSION, wire.OP_PING, 1) + b"\x01"


def _connect(address):
    if isinstance(address, tuple):
        return socket.create_connection(address, timeout=2.0)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(2.0)
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def ping_once(address) -> bool:
    """One raw connect + binary ping; True when a pong frame came back."""
    try:
        sock = _connect(address)
    except OSError:
        return False
    try:
        sock.sendall(_PING)
        with sock.makefile("rb") as stream:
            frame = wire.read_frame(stream)
        return frame is not None and frame[0] == wire.OP_PING
    except (OSError, wire.FrameError):
        return False
    finally:
        sock.close()


class Server:
    """One launched server process tree (a ``serve`` or a ``fleet``)."""

    def __init__(self, argv: List[str], root: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # A fixed string-hash seed: dict and set layouts, and with them the
        # servers' speed, then repeat from run to run.
        env["PYTHONHASHSEED"] = "0"
        self.log = log
        self._log_handle = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log_handle, stderr=subprocess.STDOUT,
        )
        self.address = None
        self.worker_pids: List[int] = []

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            tail = self.log.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"server exited with {self.proc.returncode}:\n{tail}")

    def wait_unix(self, path: str) -> None:
        """Poll a Unix socket until it answers a ping."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not ping_once(path):
            self._check_alive()
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no ping answer on {path}")
            time.sleep(POLL_S)
        self.address = path

    def wait_fleet(self) -> None:
        """Read the front's address off its ready line, then ping it."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            match = _FLEET_LINE.search(self.log.read_text(errors="replace"))
            if match:
                break
            self._check_alive()
            if time.perf_counter() > deadline:
                raise TimeoutError("fleet never printed its ready line")
            time.sleep(POLL_S)
        address = (match.group(1), int(match.group(2)))
        while not ping_once(address):
            self._check_alive()
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no ping answer on {address}")
            time.sleep(POLL_S)
        self.address = f"{address[0]}:{address[1]}"

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid, *self.worker_pids]

    def cpu_seconds(self) -> List[float]:
        """user+sys CPU of each process in :attr:`pids`, from /proc."""
        out = []
        for pid in self.pids:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            out.append((int(fields[11]) + int(fields[12])) / _CLK_TCK)
        return out

    def rss_mb(self) -> float:
        total = 0
        for pid in self.pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
        return total / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful: checkpoints, rolling shutdown), then wait;
        SIGKILL the tree if it does not finish in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in self.worker_pids:
            _reap(pid)
        self._log_handle.close()


def _reap(pid: int) -> None:
    """Make sure a worker the fleet should have stopped is gone."""
    deadline = time.perf_counter() + STOP_TIMEOUT_S
    while time.perf_counter() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def host_steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests (/proc/stat "steal"),
    summed over this machine's CPUs: how much a run was disturbed."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / _CLK_TCK
