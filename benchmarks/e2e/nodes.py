"""Lifecycle of the ``vidb.cli`` subprocesses a benchmark run drives.

Every node runs in its own session (process group), so teardown can
kill the whole group; a :class:`Fleet` owns all nodes of one run plus
its scratch directory and is torn down from ``finally`` and, as a
backstop for a crashed run, from ``atexit`` — an orphan ``vidb.cli
serve`` holding a port would otherwise let the next run silently
measure the wrong server.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

HOST = "127.0.0.1"
READY_DEADLINE_S = 60.0
_POLL_S = 0.004


class NodeError(RuntimeError):
    """A node failed to start, died early, or outlived its fleet."""


def free_port() -> int:
    """An ephemeral port nobody is listening on right now.  Binding it
    first means a leftover server on that port makes selection fail
    here rather than be mistaken for the node started next."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{SRC_DIR}{os.pathsep}{inherited}" if inherited
                         else str(SRC_DIR))
    return env


class Node:
    """One ``python -m vidb.cli <args>`` subprocess listening on ``port``."""

    def __init__(self, role: str, cli_args: List[str], port: int,
                 log_path: Path):
        self.role = role
        self.port = port
        self.cli_args = list(cli_args)
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "vidb.cli", *cli_args],
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT, env=child_env(),
            cwd=str(log_path.parent), start_new_session=True)

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def request(self, payload: Dict[str, Any],
                timeout: float = 5.0) -> Optional[Dict[str, Any]]:
        """One request on a throwaway connection; ``None`` when the node
        is not (yet) accepting or answering."""
        try:
            with socket.create_connection((HOST, self.port),
                                          timeout=timeout) as sock:
                sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
                line = sock.makefile("rb").readline()
        except OSError:
            return None
        if not line:
            return None
        try:
            reply = json.loads(line)
        except ValueError:
            return None
        return reply if isinstance(reply, dict) else None

    def wait_ready(self, probe: Optional[Dict[str, Any]] = None,
                   deadline_s: float = READY_DEADLINE_S) -> float:
        """Poll until ``probe`` (default ``ping``) gets an ``ok`` reply;
        returns seconds since the node was spawned."""
        probe = probe or {"op": "ping"}
        give_up = time.perf_counter() + deadline_s
        while True:
            if not self.alive():
                raise NodeError(
                    f"{self.role} exited with code "
                    f"{self.process.returncode} before answering on port "
                    f"{self.port}:\n{self.log_tail()}")
            reply = self.request(probe)
            if reply is not None and reply.get("ok"):
                return time.perf_counter() - self.spawned_at
            if time.perf_counter() > give_up:
                raise NodeError(
                    f"{self.role} on port {self.port} not ready after "
                    f"{deadline_s:.0f}s:\n{self.log_tail()}")
            time.sleep(_POLL_S)

    def rss_mb(self) -> float:
        """Resident set size from ``/proc`` (0.0 once the node is gone)."""
        try:
            with open(f"/proc/{self.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def kill(self) -> None:
        """SIGKILL the node's whole process group and reap it."""
        if self.process.poll() is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                self.process.kill()
        self.process.wait(timeout=30)
        if not self._log.closed:
            self._log.close()


_live_fleets: List["Fleet"] = []
_run_counter = 0


def _close_live_fleets() -> None:
    for fleet in list(_live_fleets):
        fleet.close()


atexit.register(_close_live_fleets)


class Fleet:
    """The nodes and the scratch directory of one set-up."""

    def __init__(self, label: str):
        global _run_counter
        _run_counter += 1
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.workdir = OUT_DIR / f"run-{os.getpid()}-{_run_counter}-{label}"
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.nodes: List[Node] = []
        self._closed = False
        _live_fleets.append(self)

    def spawn(self, role: str, *cli_args: str,
              port: Optional[int] = None) -> Node:
        """Start a node; ``{port}`` inside an argument is replaced by the
        port chosen for it.  Does not wait for readiness."""
        port = port if port is not None else free_port()
        args = [arg.replace("{port}", str(port)) for arg in cli_args]
        log = self.workdir / f"{role}-{port}.log"
        node = Node(role, args, port, log)
        self.nodes.append(node)
        return node

    def respawn(self, node: Node) -> Node:
        """Start a fresh process with a dead node's arguments on a new
        port (same data directory): the restart after a crash."""
        assert not node.alive()
        old, new = str(node.port), free_port()
        args = [str(new) if arg == old else arg for arg in node.cli_args]
        return self.spawn(node.role, *args, port=new)

    def rss_mb(self) -> float:
        return sum(node.rss_mb() for node in self.nodes if node.alive())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for node in self.nodes:
            node.kill()
        survivors = [node for node in self.nodes if node.alive()]
        if self in _live_fleets:
            _live_fleets.remove(self)
        shutil.rmtree(self.workdir, ignore_errors=True)
        if survivors:
            raise NodeError("nodes survived teardown: " + ", ".join(
                f"{n.role}(pid {n.pid})" for n in survivors))


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under *path*."""
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def surviving_vidb_processes() -> List[int]:
    """Pids of ``vidb.cli`` processes started from this checkout that
    are still running — the harness's exit check (expected: none)."""
    mine = str(SRC_DIR)
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue
        if b"vidb.cli" in cmdline and mine.encode() in environ:
            found.append(int(entry.name))
    return found
