"""NoC links: one exclusive channel per (hop, plane) with statistics."""

from __future__ import annotations

from typing import Optional, Tuple

from ..sim import Environment, Resource

Coord = Tuple[int, int]


class Link:
    """A directed link between two adjacent tiles on one NoC plane.

    One packet at a time occupies the link (wormhole channel); the
    occupancy time is the packet's serialization time, so contention
    and head-of-line blocking emerge from the resource queue.
    """

    def __init__(self, env: Environment, src: Coord, dst: Coord,
                 plane: str, flit_bits: int,
                 record_history: bool = False) -> None:
        if abs(src[0] - dst[0]) + abs(src[1] - dst[1]) != 1:
            raise ValueError(f"link endpoints {src}->{dst} are not adjacent")
        self.env = env
        self.src = src
        self.dst = dst
        self.plane = plane
        #: Trace track name of this link's hold spans, built once.
        self.track = f"{plane} {src}->{dst}"
        self.flit_bits = flit_bits
        self.channel = Resource(env, slots=1,
                                name=f"link{src}->{dst}@{plane}",
                                record_history=record_history)
        self.flits_carried = 0
        self.packets_carried = 0

    def record(self, flits: int) -> None:
        self.flits_carried += flits
        self.packets_carried += 1

    def utilization(self, elapsed: Optional[int] = None) -> float:
        return self.channel.utilization(elapsed)

    def __repr__(self) -> str:
        return (f"<Link {self.src}->{self.dst} plane={self.plane} "
                f"flits={self.flits_carried}>")
