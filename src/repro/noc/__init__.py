"""Multi-plane 2D-mesh packet-switched NoC (the ESP interconnect)."""

from .packet import Coord, MessageKind, Packet
from .routing import (
    build_routing_table,
    hop_count,
    route_hops,
    routes_are_minimal_and_deadlock_free,
    xy_route,
)
from .link import Link
from .mesh import (
    COH_FORWARD_PLANE,
    COH_REQUEST_PLANE,
    COH_RESPONSE_PLANE,
    DEFAULT_PLANES,
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    IO_PLANE,
    Mesh2D,
    NocPlane,
    PacketTransfer,
)
from .stats import NocReport, collect_report
from .analysis import (
    LinkUtilization,
    average_distance,
    bisection_bandwidth_flits,
    bisection_links,
    link_utilizations,
    mesh_diameter,
    saturation_injection_rate,
    utilization_heatmap,
    zero_load_latency,
)

__all__ = [
    "COH_FORWARD_PLANE",
    "COH_REQUEST_PLANE",
    "COH_RESPONSE_PLANE",
    "Coord",
    "DEFAULT_PLANES",
    "DMA_REQUEST_PLANE",
    "DMA_RESPONSE_PLANE",
    "IO_PLANE",
    "Link",
    "LinkUtilization",
    "Mesh2D",
    "MessageKind",
    "NocPlane",
    "NocReport",
    "Packet",
    "PacketTransfer",
    "average_distance",
    "bisection_bandwidth_flits",
    "bisection_links",
    "build_routing_table",
    "collect_report",
    "hop_count",
    "link_utilizations",
    "mesh_diameter",
    "route_hops",
    "routes_are_minimal_and_deadlock_free",
    "saturation_injection_rate",
    "utilization_heatmap",
    "xy_route",
    "zero_load_latency",
]
