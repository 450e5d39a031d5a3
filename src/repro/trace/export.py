"""Chrome ``trace_event`` export — loadable in Perfetto / about:tracing.

The exported document follows the JSON Object Format of the Trace Event
spec: ``{"traceEvents": [...], "displayTimeUnit": ..., "otherData": ...}``.
Simulated nanoseconds become Chrome microseconds (the spec's unit); the
exact ``ts_ns``/``dur_ns`` are additionally kept inside ``args`` so a
parsed trace round-trips bit-exactly (property-tested with Hypothesis).

Mapping:

- events with a duration export as complete events (``ph: "X"``);
- instantaneous events export as thread-scoped instants (``ph: "i"``);
- one ``process_name`` metadata record labels the simulated machine;
- ``pid`` is always 0 (one simulated machine), ``tid`` is the simulated
  core (events without a core land on a synthetic lane).
"""

import json
import os
import tempfile
from typing import Any, Dict, Iterable, List, Optional

from repro.trace.events import (
    CATEGORIES,
    SCHEMA_VERSION,
    TraceEvent,
    validate_event,
)

#: ``tid`` lane for events with no owning core (truncation, recovery).
MACHINE_LANE = 255


def to_chrome_events(events: Iterable[TraceEvent], process: str = "repro") -> List[Dict[str, Any]]:
    """Convert bus events to Chrome trace_event dicts (plus metadata)."""
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process},
        }
    ]
    for event in events:
        args = dict(event.args)
        if event.txid is not None:
            args["txid"] = event.txid
        if event.addr is not None:
            args["addr"] = "0x%x" % event.addr
        args["ts_ns"] = event.ts_ns
        args["dur_ns"] = event.dur_ns
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "ts": event.ts_ns / 1000.0,
            "pid": 0,
            "tid": event.core if event.core is not None else MACHINE_LANE,
            "args": args,
        }
        if event.dur_ns > 0:
            record["ph"] = "X"
            record["dur"] = event.dur_ns / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    return out


def chrome_document(
    events: Iterable[TraceEvent],
    design: str = "",
    workload: str = "",
    extra: Optional[Dict[str, Any]] = None,
    dropped: int = 0,
) -> Dict[str, Any]:
    """Build the full Chrome JSON Object Format document.

    ``dropped`` is the bus's drop counter: when the bounded ring
    overflowed, the exported stream is missing that many events, and the
    document says so in ``otherData`` instead of posing as complete.
    """
    process = "%s/%s" % (design, workload) if design or workload else "repro"
    other: Dict[str, Any] = {
        "tool": "repro.trace",
        "schema_version": SCHEMA_VERSION,
        "design": design,
        "workload": workload,
        "dropped_events": dropped,
        "truncated": dropped > 0,
    }
    if extra:
        other.update(extra)
    return {
        "traceEvents": to_chrome_events(events, process=process),
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def write_chrome_trace(
    path: str,
    events: Iterable[TraceEvent],
    design: str = "",
    workload: str = "",
    extra: Optional[Dict[str, Any]] = None,
    dropped: int = 0,
) -> int:
    """Validate and atomically write a Chrome trace file.

    Returns the number of (non-metadata) events written.  The write goes
    through a temp file + ``os.replace`` so a crashed exporter never
    leaves a torn artifact (the grid runner checks artifact existence).
    """
    document = chrome_document(
        events, design=design, workload=workload, extra=extra, dropped=dropped)
    count = validate_chrome_trace(document)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-trace-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(document, fh, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return count


def validate_chrome_trace(document: Dict[str, Any]) -> int:
    """Validate an exported document against the event schema.

    Returns the number of schema events checked; raises ValueError on the
    first violation.  Used by the CLI (before writing), the tests, and
    the CI trace-smoke job (after reading the artifact back).
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    records = document.get("traceEvents")
    if not isinstance(records, list):
        raise ValueError("trace document lacks a traceEvents list")
    checked = 0
    for record in records:
        if not isinstance(record, dict):
            raise ValueError("traceEvents entries must be objects")
        ph = record.get("ph")
        if ph == "M":
            continue
        if ph not in ("X", "i"):
            raise ValueError("unsupported phase %r" % ph)
        if record.get("cat") not in CATEGORIES:
            raise ValueError("unknown category %r" % record.get("cat"))
        if not isinstance(record.get("ts"), (int, float)) or record["ts"] < 0:
            raise ValueError("event %r has a bad ts" % record.get("name"))
        args = record.get("args")
        if not isinstance(args, dict):
            raise ValueError("event %r has no args object" % record.get("name"))
        validate_event(_event_from_record(record))
        checked += 1
    return checked


def _event_from_record(record: Dict[str, Any]) -> TraceEvent:
    args = dict(record["args"])
    txid = args.pop("txid", None)
    addr = args.pop("addr", None)
    if isinstance(addr, str):
        addr = int(addr, 16)
    ts_ns = args.pop("ts_ns", record["ts"] * 1000.0)
    dur_ns = args.pop("dur_ns", record.get("dur", 0.0) * 1000.0)
    tid = record.get("tid", MACHINE_LANE)
    return TraceEvent(
        name=record["name"],
        category=record["cat"],
        ts_ns=ts_ns,
        core=None if tid == MACHINE_LANE else tid,
        txid=txid,
        addr=addr,
        dur_ns=dur_ns,
        args=args,
    )


def parse_chrome_trace(document: Dict[str, Any]) -> List[TraceEvent]:
    """Inverse of :func:`chrome_document` (metadata records are skipped).

    The exact simulated timestamps are recovered from ``args.ts_ns`` /
    ``args.dur_ns``, so ``parse(export(events)) == events``.
    """
    events: List[TraceEvent] = []
    for record in document.get("traceEvents", ()):
        if record.get("ph") == "M":
            continue
        events.append(_event_from_record(record))
    return events


def write_event_lines(path: str, events: Iterable[TraceEvent]) -> int:
    """Write raw events as JSON lines (one schema-checked event each)."""
    count = 0
    with open(path, "w") as fh:
        for event in events:
            validate_event(event)
            fh.write(
                json.dumps(
                    {
                        "name": event.name,
                        "cat": event.category,
                        "ts_ns": event.ts_ns,
                        "core": event.core,
                        "txid": event.txid,
                        "addr": event.addr,
                        "dur_ns": event.dur_ns,
                        "args": dict(event.args),
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")
            count += 1
    return count


def read_event_lines(path: str) -> List[TraceEvent]:
    """Inverse of :func:`write_event_lines`."""
    events: List[TraceEvent] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            events.append(
                TraceEvent(
                    name=data["name"],
                    category=data["cat"],
                    ts_ns=data["ts_ns"],
                    core=data["core"],
                    txid=data["txid"],
                    addr=data["addr"],
                    dur_ns=data["dur_ns"],
                    args=data["args"],
                )
            )
    return events
