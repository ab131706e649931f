"""PCIe bus model.

Every DMA between a NIC and host memory crosses the host's PCIe bus, a
FIFO resource with finite effective bandwidth.  On the paper's InfiniBand
testbed the eight-lane PCIe 2.0 slot — not the 40 Gbps link — is the
bare-metal ceiling (~25 Gbps), and this model is what reproduces that
ceiling in Figure 9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.monitor import Counter
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["PcieBus"]


class PcieBus:
    """A shared, FIFO-serialised DMA path between NICs and memory."""

    def __init__(self, engine: "Engine", gbps: float) -> None:
        if gbps <= 0:
            raise ValueError("PCIe bandwidth must be positive")
        self.engine = engine
        self.gbps = gbps
        self.bytes_per_second = gbps * 1e9 / 8.0
        self._bus = Resource(engine, capacity=1)
        #: Fluid busy-until horizon: absolute time the bus frees up.
        #: ``start = max(now, free); end = start + service`` reproduces
        #: the exact floats of the discrete request/timeout/release
        #: chain, so DMA completions are bit-identical in both modes.
        self._fluid_free = 0.0
        self.bytes_moved = Counter("pcie_bytes")

    def book(self, nbytes: int) -> float:
        """Fluid mode: book a DMA of ``nbytes`` (> 0) on the bus.

        Returns the absolute instant the transfer completes.  The caller
        sleeps until then and adds to :attr:`bytes_moved` afterwards.
        """
        free = self._fluid_free
        now = self.engine._now
        start = now if now > free else free
        end = start + nbytes / self.bytes_per_second
        self._fluid_free = end
        return end

    def dma(self, nbytes: int) -> Generator:
        """Process generator: move ``nbytes`` across the bus (FIFO)."""
        if nbytes < 0:
            raise ValueError("DMA size must be non-negative")
        if nbytes == 0:
            return
        engine = self.engine
        if engine.use_fluid:
            yield engine.timeout_at(self.book(nbytes))
            self.bytes_moved.add(nbytes)
            return
        yield self._bus.request()
        try:
            yield engine.timeout(nbytes / self.bytes_per_second)
        finally:
            self._bus.release()
        self.bytes_moved.add(nbytes)

    @property
    def queued(self) -> int:
        """Number of DMA requests waiting for the bus."""
        return self._bus.queued
