"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

from repro.hardware import Host, HostSpec, NicProfile
from repro.network import DuplexPath, back_to_back
from repro.sim import Engine
from repro.verbs import (
    AccessFlags,
    ConnectionManager,
    Device,
    QueuePair,
    RdmaArch,
    RdmaFabric,
    connect_pair,
)


def make_host(
    engine: Engine,
    name: str = "h",
    cores: int = 8,
    pcie_gbps: float = 64.0,
    nic_gbps: float = 40.0,
    **spec_overrides,
) -> Host:
    """A host with one NIC, generous defaults, tweakable per test."""
    spec = HostSpec(
        name=name,
        cores=cores,
        mem_bytes=spec_overrides.pop("mem_bytes", 16 << 30),
        pcie_gbps=pcie_gbps,
        **spec_overrides,
    )
    host = Host(engine, spec)
    host.add_nic(NicProfile(gbps=nic_gbps))
    return host


@dataclass
class MiniFabric:
    """Two connected hosts with devices, CM, and a duplex path."""

    engine: Engine
    a: Host
    b: Host
    dev_a: Device
    dev_b: Device
    duplex: DuplexPath
    fabric: RdmaFabric
    cm: ConnectionManager

    def qp_pair(
        self,
        **qp_kwargs,
    ) -> Tuple[QueuePair, QueuePair]:
        """A connected RC QP pair (PDs cached — rkeys are PD-scoped, so
        ``remote_mr`` registers in the same PD as host b's QPs)."""
        if not hasattr(self, "pd_a"):
            self.pd_a = self.dev_a.alloc_pd()
            self.pd_b = self.dev_b.alloc_pd()
        qa = self.dev_a.create_qp(
            self.pd_a, self.dev_a.create_cq(), self.dev_a.create_cq(), **qp_kwargs
        )
        qb = self.dev_b.create_qp(
            self.pd_b, self.dev_b.create_cq(), self.dev_b.create_cq(), **qp_kwargs
        )
        connect_pair(qa, qb, self.duplex)
        return qa, qb

    def remote_mr(self, size: int = 1 << 20, write=True, read=True):
        """A remote-accessible MR on host b, in the same PD as b's QPs.
        Returns (pd, buffer, mr)."""
        if not hasattr(self, "pd_b"):
            self.pd_a = self.dev_a.alloc_pd()
            self.pd_b = self.dev_b.alloc_pd()
        buf = self.b.memory.alloc(size)
        access = AccessFlags.LOCAL_WRITE
        if write:
            access |= AccessFlags.REMOTE_WRITE
        if read:
            access |= AccessFlags.REMOTE_READ
        return self.pd_b, buf, self.pd_b.reg_mr_sync(buf, access)


def make_fabric(
    gbps: float = 40.0,
    rtt: float = 25e-6,
    arch: RdmaArch = RdmaArch.ROCE,
    cores: int = 8,
    pcie_gbps: float = 64.0,
    use_fluid: bool = True,
    topology: Callable[..., DuplexPath] = back_to_back,
) -> MiniFabric:
    """Two hosts joined by ``topology(engine, gbps, rtt=rtt)``."""
    engine = Engine(use_fluid=use_fluid)
    a = make_host(engine, "a", cores=cores, pcie_gbps=pcie_gbps, nic_gbps=gbps)
    b = make_host(engine, "b", cores=cores, pcie_gbps=pcie_gbps, nic_gbps=gbps)
    dev_a, dev_b = Device(a.nic, arch), Device(b.nic, arch)
    duplex = topology(engine, gbps, rtt=rtt)
    fabric = RdmaFabric(engine)
    fabric.wire(dev_a, dev_b, duplex)
    cm = ConnectionManager(fabric)
    return MiniFabric(engine, a, b, dev_a, dev_b, duplex, fabric, cm)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def fabric() -> MiniFabric:
    return make_fabric()


def run_to_end(engine: Engine, until: float = None) -> None:
    """Run the engine; small alias to keep intent clear in tests."""
    engine.run(until)
