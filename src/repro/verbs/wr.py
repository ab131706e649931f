"""Work requests and work completions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Opcode", "WcStatus", "SendWR", "RecvWR", "WorkCompletion"]


class Opcode(enum.Enum):
    """Work-request / completion opcodes (subset used by the middleware)."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_WITH_IMM = "rdma_write_with_imm"
    RDMA_READ = "rdma_read"


class WcStatus(enum.Enum):
    """Completion status codes (subset of ibv_wc_status)."""

    SUCCESS = "success"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    REM_ACCESS_ERR = "remote_access_error"
    WR_FLUSH_ERR = "flushed"
    LOC_LEN_ERR = "local_length_error"
    #: Injected transient fault (testing/fault-injection only): the
    #: operation is reported failed but the QP stays usable, so recovery
    #: paths (the middleware's WAITING → LOADED re-send transition) can
    #: be exercised without tearing the connection down.
    SIM_FAULT = "simulated_fault"


# Every WR and completion checks these.  Reading a member off its enum
# class runs the enum metaclass's ``__getattr__`` hook on Python < 3.12,
# several times the cost of a module global.
_REMOTE_OPS = (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM, Opcode.RDMA_READ)
_WRITE_IMM = Opcode.RDMA_WRITE_WITH_IMM
_SUCCESS = WcStatus.SUCCESS


@dataclass
class SendWR:
    """A send-queue work request.

    For SEND, ``payload`` rides to the remote receive completion.  For
    RDMA WRITE/READ, ``remote_addr``/``rkey`` select the target region;
    WRITE deposits ``payload`` into the remote region's simulated
    contents, READ returns whatever the remote region holds at the
    address.
    """

    opcode: Opcode
    length: int
    wr_id: int = 0
    #: Local memory region's lkey (validated against the QP's PD).
    lkey: Optional[int] = None
    local_addr: int = 0
    remote_addr: int = 0
    rkey: Optional[int] = None
    #: Immediate data for RDMA_WRITE_WITH_IMM (consumes a remote recv WR).
    imm_data: Optional[int] = None
    #: Simulated payload object transported with the data.
    payload: Any = None
    #: Request a completion (unsignalled sends skip the CQE).
    signaled: bool = True

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.opcode in _REMOTE_OPS:
            if self.rkey is None:
                raise ValueError(f"{self.opcode.value} requires an rkey")
        if self.opcode is _WRITE_IMM and self.imm_data is None:
            raise ValueError("RDMA_WRITE_WITH_IMM requires imm_data")


@dataclass
class RecvWR:
    """A receive-queue work request (a registered landing buffer)."""

    length: int
    wr_id: int = 0
    lkey: Optional[int] = None
    local_addr: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")


@dataclass
class WorkCompletion:
    """A completion-queue entry."""

    wr_id: int
    opcode: Opcode
    status: WcStatus
    byte_len: int = 0
    #: For receive completions: the payload object the sender attached.
    payload: Any = None
    #: For RDMA_WRITE_WITH_IMM receive completions.
    imm_data: Optional[int] = None
    #: QP number the completion arrived on (for shared CQs).
    qp_num: int = -1
    #: Simulated completion timestamp (engine time), for latency stats.
    timestamp: float = field(default=0.0, repr=False)

    @property
    def ok(self) -> bool:
        return self.status is _SUCCESS
