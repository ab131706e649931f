"""Multi-hop paths and the three testbed topologies from Table I."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Sequence

from repro.network.link import Link
from repro.sim.events import AllOf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Path", "DuplexPath", "back_to_back", "lan_switched", "wan_path"]


class Path:
    """An ordered sequence of links from one host's NIC to another's.

    A transfer unit serialises through each link in order (store-and-
    forward at block granularity) and then waits the summed propagation
    delay.  Small control messages use :meth:`deliver_latency` — pure
    latency plus a negligible serialisation on the bottleneck.
    """

    def __init__(self, engine: "Engine", links: Sequence[Link], name: str = "path") -> None:
        if not links:
            raise ValueError("a path needs at least one link")
        self.engine = engine
        self.links: List[Link] = list(links)
        self.name = name
        for link in self.links:
            link._path_uses += 1
        reg = engine.metrics
        labels = {"path": name, "i": reg.sequence("path")}
        self._m_bytes = reg.counter("path.bytes_total", **labels)
        #: Control datagrams delivered (:meth:`deliver_latency`, ACKs).
        self.ctrl_datagrams = reg.counter("path.ctrl_datagrams", **labels)
        # Links never change rate, delay or MTU after construction, so
        # the path constants are computed once, hop order preserved.
        #: Rate of the slowest link on the path.
        self.bottleneck_gbps: float = min(link.gbps for link in self.links)
        self.bottleneck_bytes_per_second: float = self.bottleneck_gbps * 1e9 / 8.0
        #: One-way propagation delay (sum over hops), seconds.
        self.latency: float = sum(link.delay for link in self.links)
        self.mtu: int = min(link.mtu for link in self.links)

    # -- fluid booking ------------------------------------------------------------
    def book(self, nbytes: int, count: int = 1) -> Optional[float]:
        """Fluid mode: book ``count`` back-to-back units of ``nbytes``
        through the whole hop chain and return the arrival instant of the
        last one.

        Each hop starts at ``max(end_{i-1}, free_i)`` and the summed
        propagation is added once: the same float expressions hop-by-hop
        execution evaluates, so the instant is bit-identical.  Returns
        ``None`` — nothing booked — when the engine runs discrete,
        ``nbytes`` is not positive, or any link is ineligible (fluid
        disabled on it, a fault hook armed, ever flapped, or shared with
        another path); the caller then serialises hop by hop.  The caller
        sleeps until the instant and then calls :meth:`record_arrival`.
        """
        engine = self.engine
        if not engine.use_fluid or nbytes <= 0:
            return None
        links = self.links
        for link in links:
            if (
                link.use_fluid is False
                or link.fault_hook is not None
                or link._flap_seen
                or link._path_uses != 1
            ):
                return None
        now = engine._now
        t = now
        for _ in range(count):
            t = now
            for link in links:
                free = link._fluid_free
                start = t if t > free else free
                t = start + nbytes / link.bytes_per_second
                link._fluid_free = t
        delay = self.latency
        if delay > 0:
            t = t + delay
        return t

    def record_arrival(self, nbytes: int) -> None:
        """Count ``nbytes`` delivered by a :meth:`book` chain on every
        link and on the path."""
        for link in self.links:
            link.bytes_sent.add(nbytes)
        self._m_bytes.add(nbytes)

    def control_wait(self, nbytes: int = 64) -> float:
        """Seconds a small control datagram takes: serialisation on the
        bottleneck (the rest is negligible at this granularity) plus
        propagation."""
        return self.latency + nbytes / self.bottleneck_bytes_per_second

    # -- process generators -------------------------------------------------------
    def transmit(self, nbytes: int) -> Generator:
        """Process generator: move ``nbytes`` along the path.

        Completes when the last byte arrives at the far end.  Consecutive
        transfers pipeline across hops because each link is an independent
        FIFO resource.  Under fluid mode an eligible path books the whole
        hop chain as one timer (:meth:`book`); otherwise each link
        serialises in turn.
        """
        engine = self.engine
        arrival = self.book(nbytes)
        if arrival is not None:
            if arrival > engine._now:
                yield engine.timeout_at(arrival)
            self.record_arrival(nbytes)
            return
        for link in self.links:
            yield from link.serialize(nbytes)
        delay = self.latency
        if delay > 0:
            yield engine.timeout(delay)
        self._m_bytes.add(nbytes)

    def transmit_burst(self, nbytes: int, count: int) -> Generator:
        """Process generator: move ``count`` back-to-back units of
        ``nbytes`` down the path, completing when the *last* unit arrives.

        Models a packetized window (a cwnd of MTU-sized segments): units
        pipeline across hops exactly as ``count`` concurrent
        :meth:`transmit` calls issued in order would — unit *j*'s first
        hop starts as soon as the wire frees, not after unit *j-1*
        arrives.  Under fluid mode an eligible path books the entire
        burst analytically as a single timer (this is the fast-forward
        that replaces per-packet events); otherwise the units run as
        real concurrent transfers joined by ``AllOf``.
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if count < 0:
            raise ValueError("burst count must be non-negative")
        if count == 0:
            return
        if count == 1 or nbytes == 0:
            yield from self.transmit(nbytes)
            return
        engine = self.engine
        now = engine._now
        arrival = self.book(nbytes, count)
        if arrival is not None:
            if arrival > now:
                yield engine.timeout_at(arrival)
            self.record_arrival(nbytes * count)
            return
        procs = [engine.process(self.transmit(nbytes)) for _ in range(count)]
        yield AllOf(engine, procs)

    def deliver_latency(self, nbytes: int = 64) -> Generator:
        """Process generator: deliver a small control datagram
        (:meth:`control_wait`)."""
        wait = self.control_wait(nbytes)
        if wait > 0:
            yield self.engine.timeout(wait)
        self.ctrl_datagrams.add()

    def __repr__(self) -> str:  # pragma: no cover
        hops = " -> ".join(link.name for link in self.links)
        return f"<Path {self.name}: {hops}>"


class DuplexPath:
    """A pair of directed paths between two endpoints (full duplex)."""

    def __init__(self, forward: Path, backward: Path) -> None:
        self.forward = forward
        self.backward = backward

    @property
    def rtt(self) -> float:
        """Round-trip propagation delay in seconds."""
        return self.forward.latency + self.backward.latency

    def reversed(self) -> "DuplexPath":
        """The same channel viewed from the other endpoint."""
        return DuplexPath(self.backward, self.forward)


def back_to_back(
    engine: "Engine",
    gbps: float,
    rtt: float,
    mtu: int = 9000,
    name: str = "b2b",
) -> DuplexPath:
    """Two hosts joined by one cable (the RoCE LAN testbed).

    ``rtt`` is the measured round-trip time; each direction gets half.
    """
    half = rtt / 2.0
    fwd = Link(engine, gbps, half, mtu, f"{name}.fwd")
    bwd = Link(engine, gbps, half, mtu, f"{name}.bwd")
    return DuplexPath(
        Path(engine, [fwd], f"{name}.fwd"),
        Path(engine, [bwd], f"{name}.bwd"),
    )


def lan_switched(
    engine: "Engine",
    gbps: float,
    rtt: float,
    mtu: int = 65520,
    name: str = "lan",
) -> DuplexPath:
    """Two hosts through one switch (the InfiniBand QDR LAN testbed)."""
    quarter = rtt / 4.0
    fwd = [
        Link(engine, gbps, quarter, mtu, f"{name}.a-sw"),
        Link(engine, gbps, quarter, mtu, f"{name}.sw-b"),
    ]
    bwd = [
        Link(engine, gbps, quarter, mtu, f"{name}.b-sw"),
        Link(engine, gbps, quarter, mtu, f"{name}.sw-a"),
    ]
    return DuplexPath(
        Path(engine, fwd, f"{name}.fwd"),
        Path(engine, bwd, f"{name}.bwd"),
    )


def wan_path(
    engine: "Engine",
    nic_gbps: float,
    rtt: float,
    backbone_gbps: float = 100.0,
    mtu: int = 9000,
    name: str = "wan",
) -> DuplexPath:
    """A long-haul circuit: 10G host links into a 100G backbone (ANI).

    The backbone carries essentially all the propagation delay; the edge
    links are local.
    """
    half = rtt / 2.0

    def one_way(tag: str) -> Path:
        links = [
            Link(engine, nic_gbps, 1e-6, mtu, f"{name}.{tag}.edge-in"),
            Link(engine, backbone_gbps, max(half - 2e-6, 0.0), mtu, f"{name}.{tag}.core"),
            Link(engine, nic_gbps, 1e-6, mtu, f"{name}.{tag}.edge-out"),
        ]
        return Path(engine, links, f"{name}.{tag}")

    return DuplexPath(one_way("fwd"), one_way("bwd"))
