"""Launch and reap a real-substrate cluster: N memory-node processes.

:class:`RealClusterHarness` is the deployment counterpart of
:class:`~repro.core.cache.DittoCluster.__init__`: it sizes the cluster
with the shared geometry plan (:mod:`repro.core.geometry`), starts one
memory-node process per node (node 0 with the reserve for fixed
structures, and a ``MetadataState`` that also holds the global weights
and the membership table), each forked by :mod:`repro.runtime.launcher`
from one interpreter that has the server imported, collects each server's
ready line for its address and shared-memory name, and produces the
*descriptor* dict a :class:`~repro.runtime.cluster.RealCluster` (in this
or any other process) builds from.

Shutdown is part of the contract, not an afterthought: ``shutdown()``
sends every node a clean OP_SHUTDOWN, escalates to SIGTERM/SIGKILL on
stragglers, and :meth:`leak_report` verifies zero leftover child
processes and zero leftover shared-memory segments — the assertion the CI
smoke job runs.

Chaos additions: :meth:`kill_node` SIGKILLs one memory node mid-run (its
shared-memory heap survives on purpose), :meth:`restart_node` respawns it
with ``--adopt`` so it rebuilds grant state from the surviving journal
and existing clients reconnect transparently to the *same address*, and
:meth:`reap` reports children that died since the last call so the
cluster's health view can fail clients over immediately instead of every
op burning its full timeout.  :meth:`unlink_leaked` is the last-resort
sweep for segments a crashed-and-never-restarted node left behind — run
it *after* :meth:`leak_report`, which is the assertion.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import socket
import subprocess
import time
import uuid
from typing import Dict, List, Optional, Set, Tuple

from ..core.config import DittoConfig
from ..core.geometry import plan_cluster
from ..obs.observer import maybe_span
from . import launcher, wire
from .journal import SHM_DIR
from .server import shm_name

_READY_PREFIX = "DITTO-NODE "
_READY_TIMEOUT_S = 30.0


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = b""
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ConnectionResetError("peer closed during control RPC")
        chunks += chunk
    return chunks


def _exchange(address: str, request: bytes, timeout_s: float):
    """One request frame on a throwaway connection to the node at
    ``address`` (an entry's ``unix``); the answer's status and body."""
    with socket.socket(socket.AF_UNIX) as sock:
        sock.settimeout(timeout_s)
        sock.connect(wire.sockaddr(address))
        sock.sendall(request)
        (length,) = wire.HEADER.unpack(_recv_exact(sock, wire.HEADER.size))
        frame = _recv_exact(sock, length)
    _req_id, status = wire.RESP.unpack_from(frame)
    return status, frame[wire.RESP.size:]


def control_rpc(address: str, op: str, payload=None,
                timeout_s: float = 5.0):
    """One synchronous control RPC to the node at ``address``.

    The out-of-band channel for anything that must not ride the async
    client stack: harness chaos arm/stop and ``__stats__`` polling.
    """
    request = wire.request_frame(wire.OP_RPC, 1, wire.pack_rpc(op, payload))
    status, body = _exchange(address, request, timeout_s)
    if status != wire.ST_OK:
        raise RuntimeError(
            f"control RPC {op!r} failed with status {status}: "
            f"{pickle.loads(body)}"
        )
    return pickle.loads(body)


class RealClusterHarness:
    """Owns the server processes of one real-substrate deployment."""

    def __init__(
        self,
        capacity_objects: int = 4096,
        object_bytes: int = 256,
        num_clients: int = 16,
        num_memory_nodes: int = 1,
        segment_bytes: int = 256 * 1024,
        max_capacity_objects: Optional[int] = None,
        seed: int = 0,
        run_id: Optional[str] = None,
        **config_kwargs,
    ):
        self.config = DittoConfig(**config_kwargs)
        self.plan = plan_cluster(
            capacity_objects, object_bytes, num_clients,
            config=self.config, num_memory_nodes=num_memory_nodes,
            segment_bytes=segment_bytes,
            max_capacity_objects=max_capacity_objects,
        )
        self.seed = seed
        self.run_id = run_id or uuid.uuid4().hex[:8]
        self.num_clients = num_clients
        #: Every child ever spawned (restarts append); dead entries stay
        #: for leak accounting.
        self.procs: List[launcher.NodeProcess] = []
        self.node_entries: List[Dict] = []
        self._proc_by_node: Dict[int, launcher.NodeProcess] = {}
        self._reaped: Set[int] = set()
        self._config_kwargs = dict(config_kwargs)
        self._shut_down = False

    # -- launch ------------------------------------------------------------

    def _spawn(self, node_id: int, base: int, size: int,
               extra_argv: List[str]) -> launcher.NodeProcess:
        proc = launcher.spawn([
            "--node-id", str(node_id),
            "--base", str(base),
            "--size", str(size),
            "--run-id", self.run_id,
            *extra_argv,
        ])
        self.procs.append(proc)
        self._proc_by_node[node_id] = proc
        return proc

    def _node0_argv(self) -> List[str]:
        membership = ",".join(
            str(node_id) for node_id, _b, _s in self.plan.node_ranges
        )
        return [
            "--reserve", str(self.plan.reserve),
            "--experts", str(len(self.config.policies)),
            "--learning-rate", str(self.config.learning_rate),
            "--membership", membership,
        ]

    def launch(self, timeout_s: float = _READY_TIMEOUT_S) -> Dict:
        """Spawn the node servers; returns the cluster descriptor."""
        if self.procs:
            raise RuntimeError("harness already launched")
        with maybe_span("harness.launch", "runtime", lane="harness",
                        args={"nodes": len(self.plan.node_ranges)}):
            try:
                spawned = []
                for node_id, base, size in self.plan.node_ranges:
                    extra = self._node0_argv() if node_id == 0 else []
                    spawned.append(self._spawn(node_id, base, size, extra))
                for proc, (node_id, base, size) in zip(
                    spawned, self.plan.node_ranges
                ):
                    entry = self._await_ready(proc, node_id, timeout_s)
                    self.node_entries.append(entry)
            except Exception:
                self.shutdown()
                raise
        return self.descriptor()

    def _await_ready(self, proc, node_id: int, timeout_s: float) -> Dict:
        """Read the child's stdout up to its ready line, never past the
        deadline: the pipe is waited on with ``select``, so a child that
        prints nothing cannot hold the launch in a blocking read."""
        deadline = time.monotonic() + timeout_s
        fd = proc.stdout.fileno()
        pending = b""
        while True:
            raw, newline, rest = pending.partition(b"\n")
            if newline:
                pending = rest
                line = raw.decode("utf-8", "replace")
                if line.startswith(_READY_PREFIX):
                    break
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                proc.kill()
                proc.wait()
                raise TimeoutError(
                    f"memory-node {node_id} never became ready "
                    f"within {timeout_s:g} s"
                )
            chunk = os.read(fd, 4096)
            if not chunk:  # EOF: the child closed stdout by exiting
                proc.wait()
                stderr = proc.stderr.read()
                raise RuntimeError(
                    f"memory-node {node_id} exited with "
                    f"{proc.returncode} before readiness:\n{stderr}"
                )
            pending += chunk
        fields = dict(
            part.split("=", 1) for part in line[len(_READY_PREFIX):].split()
        )
        return {
            "node_id": int(fields["node_id"]),
            "base": int(fields["base"]),
            "size": int(fields["size"]),
            "unix": fields["unix"],
            "shm": fields["shm"],
            "host": "127.0.0.1",  # the TCP port only the probes dial
            "port": int(fields["port"]),
        }

    def descriptor(self) -> Dict:
        """Everything a client process needs to join this cluster."""
        return {
            "run_id": self.run_id,
            "capacity_objects": self.plan.capacity_objects,
            "max_capacity_objects": self.plan.max_capacity_objects,
            "object_bytes": self.plan.object_bytes,
            "segment_bytes": self.plan.segment_bytes,
            "num_clients": self.num_clients,
            "seed": self.seed,
            "config": {
                "policies": list(self.config.policies),
                **self._config_kwargs,
            },
            "nodes": list(self.node_entries),
        }

    def write_descriptor(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.descriptor(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- chaos: kill, reap, restart-and-adopt ------------------------------

    def entry_for(self, node_id: int) -> Dict:
        for entry in self.node_entries:
            if entry["node_id"] == node_id:
                return entry
        raise KeyError(f"no launched node {node_id}")

    def kill_node(self, node_id: int) -> bool:
        """SIGKILL one memory node — no drain, no unlink; the shared-
        memory heap (data + grant journal) survives for adoption.
        Returns False if the child was already gone."""
        proc = self._proc_by_node.get(node_id)
        if proc is None or proc.poll() is not None:
            return False
        with maybe_span("harness.kill", "chaos", lane="harness",
                        args={"node_id": node_id}):
            proc.kill()
            proc.wait()
        return True

    def reap(self) -> List[int]:
        """Node ids whose child died since the last call (intentional
        kills included).  Poll this to feed the cluster's health view so
        clients fail over immediately instead of burning timeouts."""
        dead = []
        for node_id, proc in self._proc_by_node.items():
            if proc.poll() is not None and node_id not in self._reaped:
                self._reaped.add(node_id)
                dead.append(node_id)
        return dead

    def restart_node(
        self,
        node_id: int,
        timeout_s: float = _READY_TIMEOUT_S,
        chaos: Optional[Tuple[Dict, float]] = None,
    ) -> Dict:
        """Respawn a dead node against its surviving heap.

        The replacement runs ``--adopt``: it attaches the surviving
        shared-memory segment, rebuilds segment-grant state from the
        journal instead of formatting a fresh heap, and binds the *same
        address* (existing clients simply reconnect).  Its TCP probe port
        is a fresh one, refreshed in the node's entry.  ``chaos`` re-arms
        the node's fault gate with ``(wall-plan dict, t0 epoch)`` so a
        mid-plan restart keeps injecting on the common schedule.
        """
        old = self._proc_by_node.get(node_id)
        if old is not None and old.poll() is None:
            raise RuntimeError(f"node {node_id} is still running")
        entry = self.entry_for(node_id)
        _nid, base, size = next(
            r for r in self.plan.node_ranges if r[0] == node_id
        )
        extra = ["--adopt"]
        if node_id == 0:
            extra += self._node0_argv()
        with maybe_span("harness.restart_adopt", "chaos", lane="harness",
                        args={"node_id": node_id}):
            proc = self._spawn(node_id, base, size, extra)
            reborn = self._await_ready(proc, node_id, timeout_s)
            if (reborn["unix"], reborn["shm"]) != (
                entry["unix"], entry["shm"]
            ):
                raise RuntimeError(
                    f"restarted node {node_id} came back as {reborn}, "
                    f"expected endpoint {entry}"
                )
            entry["port"] = reborn["port"]
            self._reaped.discard(node_id)
            if chaos is not None:
                plan_dict, t0 = chaos
                self.raw_rpc(entry, "__chaos_load__", (plan_dict, t0))
        return reborn

    def raw_rpc(self, entry: Dict, op: str, payload,
                timeout_s: float = 5.0):
        """One synchronous control RPC against a launched node."""
        return control_rpc(entry["unix"], op, payload, timeout_s)

    # -- shutdown and leak accounting --------------------------------------

    def _send_shutdown(self, entry: Dict, timeout_s: float = 5.0) -> None:
        try:
            _exchange(entry["unix"], wire.request_frame(wire.OP_SHUTDOWN, 1),
                      timeout_s)
        except OSError:
            pass  # gone already, or wedged: shutdown() signals it

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop every node: clean request first, signals for stragglers."""
        if self._shut_down:
            return
        self._shut_down = True
        with maybe_span("harness.shutdown", "runtime", lane="harness",
                        args={"nodes": len(self.node_entries)}):
            for entry in self.node_entries:
                self._send_shutdown(entry)
            deadline = time.monotonic() + timeout_s
            for proc in self.procs:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            for proc in self.procs:
                # Release the pipe fds now rather than at GC time.
                if proc.stdout:
                    proc.stdout.close()
                if proc.stderr:
                    proc.stderr.close()

    def leak_report(self) -> Dict:
        """Post-shutdown accounting: processes and shm segments left over."""
        live = [proc.pid for proc in self.procs if proc.poll() is None]
        leaked_shm = []
        for node_id, _base, _size in self.plan.node_ranges:
            name = shm_name(self.run_id, node_id)
            if os.path.exists(os.path.join(SHM_DIR, name)):
                leaked_shm.append(name)
        return {
            "live_processes": live,
            "leaked_shm": leaked_shm,
            "clean": not live and not leaked_shm,
        }

    def unlink_leaked(self) -> List[str]:
        """Remove any surviving ``ditto-*`` segments of this run.

        Cleanup of last resort for a node that was SIGKILLed and never
        restarted (its heap is intentionally left behind for adoption).
        Call *after* :meth:`leak_report` — this is the mop, that is the
        assertion."""
        removed = []
        for node_id, _base, _size in self.plan.node_ranges:
            path = os.path.join(SHM_DIR, shm_name(self.run_id, node_id))
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue
            removed.append(os.path.basename(path))
        return removed

    def __enter__(self) -> "RealClusterHarness":
        self.launch()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
