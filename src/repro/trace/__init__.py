"""Unified cycle-level tracing & profiling for the ESP4ML reproduction.

One :class:`Tracer` attached to the simulation environment collects
spans, instants and counters from every layer — sim kernel, NoC, DMA,
accelerator wrappers, runtime executor, serving layer — and the
exporters turn the single store into a Chrome/Perfetto trace, a flame
summary, VCD/Gantt views and a critical-path attribution of any
latency window.

The distributed-tracing layer rides on the same store: a
:class:`TraceContext` minted per request (serve layer or fleet
router) is propagated through every span as args, fleet tracers merge
into one namespaced Chrome trace (:func:`merge_chrome_traces`), one
ID's waterfall is reconstructed with :func:`query_trace`, and the
:class:`FlightRecorder` keeps a bounded always-on window and dumps
postmortem artifacts when health alerts fire.
"""

from .tracer import (
    CounterSample,
    Instant,
    PacketSpans,
    Span,
    Tracer,
    attach_tracer,
    detach_tracer,
)
from .context import (
    TraceContext,
    TraceIdAllocator,
    batch_trace_ids,
    primary_trace_id,
)
from .store import DeviceSpan, device_spans, device_spans_from_tracer
from .export import (
    ASYNC_CATEGORIES,
    flame_summary,
    merge_chrome_traces,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .critical_path import (
    AttributionReport,
    AttributionSegment,
    GROUP_PRECEDENCE,
    analyze_request,
    analyze_run,
    analyze_span,
    attribute_interval,
    group_of,
)
from .flight import (
    DEFAULT_WINDOW_CYCLES,
    FlightRecorder,
    POSTMORTEM_SCHEMA,
)
from .query import (
    QUERY_GROUPS,
    RequestTimeline,
    TimelineEvent,
    load_trace,
    query_trace,
    trace_ids_in,
)

__all__ = [
    "ASYNC_CATEGORIES",
    "AttributionReport",
    "AttributionSegment",
    "CounterSample",
    "DEFAULT_WINDOW_CYCLES",
    "DeviceSpan",
    "FlightRecorder",
    "GROUP_PRECEDENCE",
    "Instant",
    "POSTMORTEM_SCHEMA",
    "PacketSpans",
    "QUERY_GROUPS",
    "RequestTimeline",
    "Span",
    "TimelineEvent",
    "TraceContext",
    "TraceIdAllocator",
    "Tracer",
    "analyze_request",
    "analyze_run",
    "analyze_span",
    "attach_tracer",
    "attribute_interval",
    "batch_trace_ids",
    "detach_tracer",
    "device_spans",
    "device_spans_from_tracer",
    "flame_summary",
    "group_of",
    "load_trace",
    "merge_chrome_traces",
    "primary_trace_id",
    "query_trace",
    "to_chrome_trace",
    "trace_ids_in",
    "validate_chrome_trace",
    "write_chrome_trace",
]
