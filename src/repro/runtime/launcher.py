"""Fork memory nodes from one interpreter that has imported the server.

Started as ``python -m repro.runtime.server``, every node would pay a
fresh interpreter and the import of every module the server runs.
Instead the first node a process launches starts one launcher,
``python -m repro.runtime.launcher``, which imports
:mod:`repro.runtime.server` once and then forks one child per node.  The
child runs :func:`repro.runtime.server.main` and leaves with ``os._exit``,
so no ``atexit`` hook runs in it: the node flushes its trace shard itself.

The launcher and its process share one ``AF_UNIX`` ``SOCK_SEQPACKET``
pair.  A spawn request carries the node's argv and the caller's
*current* environment, working directory and CPU affinity, plus the
write ends of the node's stdout and stderr pipes (``SCM_RIGHTS``,
:func:`socket.send_fds`); the answer is the node's pid.  A reap request
collects one exited node (``waitpid``) and answers its return code.  The
launcher reaps a node only when asked, as ``subprocess.Popen`` does, so a
pid cannot be reused while its :class:`NodeProcess` may still signal it.
When the socket closes, because its process exited, the launcher exits.

:class:`NodeProcess` is the caller's handle: the part of
``subprocess.Popen`` the harness uses (``pid``, ``poll``, ``wait``,
``send_signal``/``terminate``/``kill``, ``returncode``, ``stdout``,
``stderr``).  It learns that its node exited from a pidfd, without
asking the launcher, so polling a live node costs one ``select``.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import threading
import traceback
from typing import List, Optional

from . import server

#: Largest request a launcher accepts; a spawn request is its argv and
#: environment, a few KB.
_MAX_MESSAGE = 1 << 20


class NodeProcess:
    """One forked memory node, behind a ``subprocess.Popen``-shaped face."""

    def __init__(self, launcher: "Launcher", args: List[str], pid: int,
                 stdout, stderr):
        self.args = args
        self.pid = pid
        self.stdout = stdout
        self.stderr = stderr
        self.returncode: Optional[int] = None
        self._launcher = launcher
        #: Readable once the node has exited (the launcher has not reaped
        #: it yet, so the pid is still this node's).
        self._exited = os.pidfd_open(pid)
        self._lock = threading.Lock()

    def _wait(self, timeout: Optional[float]) -> Optional[int]:
        with self._lock:
            if self.returncode is None and select.select(
                [self._exited], [], [], timeout
            )[0]:
                self.returncode = self._launcher.reap(self.pid)
                os.close(self._exited)
        return self.returncode

    def poll(self) -> Optional[int]:
        return self._wait(0.0)

    def wait(self, timeout: Optional[float] = None) -> int:
        if self._wait(timeout) is None:
            raise subprocess.TimeoutExpired(self.args, timeout)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        if self.returncode is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Launcher:
    """This process's end of one running launcher."""

    def __init__(self):
        ours, theirs = socket.socketpair(socket.AF_UNIX,
                                         socket.SOCK_SEQPACKET)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-m", __name__, str(theirs.fileno())],
                pass_fds=[theirs.fileno()], env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            )
        self.owner = os.getpid()
        self._sock = ours
        self._lock = threading.Lock()
        atexit.register(self.close)

    def _call(self, request: tuple, fds: List[int] = ()):
        with self._lock:
            socket.send_fds(self._sock, [pickle.dumps(request)], fds)
            reply = self._sock.recv(_MAX_MESSAGE)
        if not reply:
            raise ConnectionError("the node launcher has exited")
        reply = pickle.loads(reply)
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def spawn(self, argv: List[str]) -> NodeProcess:
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            pid = self._call(
                ("spawn", argv, dict(os.environ), os.getcwd(),
                 os.sched_getaffinity(0)),
                [out_w, err_w],
            )
        except BaseException:
            os.close(out_r)
            os.close(err_r)
            raise
        finally:
            os.close(out_w)
            os.close(err_w)
        return NodeProcess(
            self, argv, pid, open(out_r, "rb", buffering=0),
            open(err_r, encoding="utf-8", errors="replace"),
        )

    def reap(self, pid: int) -> int:
        return self._call(("reap", pid))

    def close(self) -> None:
        """Close the socket, which ends the launcher, and wait for it."""
        self._sock.close()
        if os.getpid() == self.owner:
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


_launcher: Optional[Launcher] = None


def spawn(argv: List[str]) -> NodeProcess:
    """Start a memory node serving ``argv`` (:func:`server.main`'s flags).

    The first call in a process starts its launcher; so does the first
    call after a fork, or after the launcher died.
    """
    global _launcher
    if (_launcher is None or _launcher.owner != os.getpid()
            or _launcher.process.poll() is not None):
        _launcher = Launcher()
    return _launcher.spawn(argv)


# -- the launcher process ----------------------------------------------------


def _run_node(control: socket.socket, argv: List[str], env: dict,
              cwd: str, cpus, out_fd: int, err_fd: int) -> None:
    """The forked child: become the node ``argv`` describes, then exit."""
    code = 1
    try:
        control.close()
        os.dup2(out_fd, 1)
        os.dup2(err_fd, 2)
        os.close(out_fd)
        os.close(err_fd)
        os.environ.clear()
        os.environ.update(env)
        os.chdir(cwd)
        os.sched_setaffinity(0, cpus)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        sys.argv = [server.__file__, *argv]
        code = server.main(argv)
    except SystemExit as stop:
        code = stop.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
    except BaseException:
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def _spawn(control: socket.socket, fds: List[int], argv: List[str],
           env: dict, cwd: str, cpus) -> int:
    out_fd, err_fd = fds
    try:
        pid = os.fork()
        if pid == 0:
            _run_node(control, argv, env, cwd, cpus, out_fd, err_fd)
    finally:
        os.close(out_fd)
        os.close(err_fd)
    return pid


def _reap(_control: socket.socket, _fds: List[int], pid: int) -> int:
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


_REQUESTS = {"spawn": _spawn, "reap": _reap}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit("usage: python -m repro.runtime.launcher CONTROL_FD "
                 "(started by repro.runtime.launcher.spawn)")
    # A terminal's Ctrl-C reaches the nodes, which stop cleanly; the
    # launcher outlives them until its process closes the socket.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with socket.socket(fileno=int(argv[0])) as control:
        while True:
            message, fds, _flags, _addr = socket.recv_fds(
                control, _MAX_MESSAGE, 2
            )
            if not message:
                return 0
            kind, *args = pickle.loads(message)
            try:
                reply = _REQUESTS[kind](control, fds, *args)
            except OSError as err:
                reply = err
            control.send(pickle.dumps(reply))


if __name__ == "__main__":
    sys.exit(main())
