"""NoC packets and message kinds.

ESP's NoC moves multi-flit packets between tiles; accelerators use two
dedicated DMA planes (requests and responses on decoupled planes to
prevent deadlock, paper Sec. II), and the p2p service reuses exactly
those planes (Sec. IV).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional, Tuple

Coord = Tuple[int, int]

_packet_ids = itertools.count()


class MessageKind(Enum):
    """Message classes carried by the NoC."""

    DMA_REQ = "dma_req"        # DMA load/store request (to memory tile)
    DMA_RSP = "dma_rsp"        # DMA load response (data from memory)
    P2P_REQ = "p2p_req"        # p2p load request (receiver -> sender tile)
    P2P_RSP = "p2p_rsp"        # p2p data (sender tile -> receiver)
    REG_ACCESS = "reg_access"  # memory-mapped register read/write
    IRQ = "irq"                # interrupt toward the processor tile
    COHERENCE = "coherence"    # processor cache traffic (background)
    COH_REQ = "coh_req"        # fully-coherent request (tile -> directory)
    COH_INV = "coh_inv"        # invalidation/recall (directory -> tile)
    COH_ACK = "coh_ack"        # invalidation ack (+ dirty data) back
    COH_RSP = "coh_rsp"        # directory grant/data to the requester
    COH_WB = "coh_wb"          # dirty-eviction writeback (fire-and-forget)

    # Members are singletons, so identity hashing is exact, and it runs
    # in C: Enum's own __hash__ is a Python function, and the mesh
    # hashes a kind for every delivered packet (delivered_by_kind).
    __hash__ = object.__hash__


@dataclass
class Packet:
    """One NoC packet: header flit + payload flits.

    ``payload`` is opaque to the network (the functional data rides
    along with the timing model). ``payload_flits`` determines the
    serialization time on every link of the route.
    """

    src: Coord
    dst: Coord
    plane: str
    kind: MessageKind
    payload_flits: int
    payload: Any = None
    tag: Optional[str] = None
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    injected_at: Optional[int] = None
    delivered_at: Optional[int] = None
    #: Optional callback the mesh fires if the packet is lost (dropped
    #: or discarded at ejection with a bad CRC) — lets posted-store
    #: accounting reconcile stores that will never arrive.
    on_lost: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.payload_flits < 0:
            raise ValueError(
                f"payload_flits must be >= 0, got {self.payload_flits}")

    @property
    def size_flits(self) -> int:
        """Total flits on the wire (1 header flit + payload)."""
        return 1 + self.payload_flits

    @property
    def latency(self) -> Optional[int]:
        if self.injected_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at
