#!/usr/bin/env python3
"""Smoke-parse bdprintd observability artifacts.

Usage: smoke_observability.py [--flight DUMP.jsonl [--reason R]]
                               [--metrics FILE.json --stages a,b,...]
                               [TRACE.json...]

Validates that a flight-recorder dump is well-formed JSONL whose header
names the expected dump reason and whose crash/wedge event identifies
the poisoned request; that each trace file is Chrome trace-event JSON
(the format chrome://tracing and Perfetto load) with at least one
complete span; and that a --metrics JSON snapshot has observations in
the bdprint_stage_duration_ns series of every named stage.  Exits
nonzero with a diagnostic on the first violation; CI runs it against
the artifacts of the daemon smoke and seeded-chaos jobs, and it works
the same on a local run.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"smoke_observability: {msg}", file=sys.stderr)
    sys.exit(1)


def check_flight(path, reason):
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not lines:
        fail(f"{path}: empty dump")
    header = lines[0]
    if not header.get("flight_dump"):
        fail(f"{path}: first line is not a dump header: {header}")
    if reason is not None and header.get("reason") != reason:
        fail(f"{path}: dump reason {header.get('reason')!r}, wanted {reason!r}")
    events = lines[1:]
    for ev in events:
        for key in ("seq", "t_us", "dom", "req", "kind", "detail"):
            if key not in ev:
                fail(f"{path}: event missing {key!r}: {ev}")
    fatal = [ev for ev in events if ev["kind"] in ("crash", "wedge")]
    if not fatal:
        fail(f"{path}: no crash/wedge event in {len(events)} events")
    poisoned = fatal[-1]
    if "input=" not in poisoned["detail"]:
        fail(f"{path}: {poisoned['kind']} event does not name its input: {poisoned}")
    print(
        f"{path}: ok — {len(events)} events, reason={header.get('reason')!r}, "
        f"poisoned request: {poisoned['detail']}"
    )


def check_trace(path):
    try:
        with open(path) as fh:
            trace = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    for ev in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in ev:
                fail(f"{path}: span missing {key!r}: {ev}")
        if ev["ph"] != "X":
            fail(f"{path}: unexpected phase {ev['ph']!r} (complete spans only)")
    tids = {ev["tid"] for ev in events}
    print(f"{path}: ok — {len(events)} spans across {len(tids)} traced requests")


def check_stages(path, stages):
    try:
        with open(path) as fh:
            snapshot = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    counts = {
        m.get("labels", {}).get("stage"): m.get("count", 0)
        for m in snapshot.get("metrics", [])
        if m.get("name") == "bdprint_stage_duration_ns"
    }
    for stage in stages:
        if counts.get(stage, 0) <= 0:
            fail(f"{path}: stage {stage!r} has no observations")
    listed = ", ".join(f"{stage}={counts[stage]}" for stage in stages)
    print(f"{path}: ok — stage histogram counts {listed}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flight", help="flight-recorder JSONL dump to validate")
    ap.add_argument(
        "--reason", default=None, help="required dump reason (e.g. worker-crash)"
    )
    ap.add_argument("--metrics", help="--metrics JSON snapshot to validate")
    ap.add_argument(
        "--stages",
        default=None,
        help="comma-separated stages whose histograms must be non-empty",
    )
    ap.add_argument("traces", nargs="*", help="Chrome trace-event JSON files")
    opts = ap.parse_args()
    if not opts.flight and not opts.traces and not opts.metrics:
        ap.error("nothing to check")
    if bool(opts.metrics) != bool(opts.stages):
        ap.error("--metrics and --stages go together")
    if opts.flight:
        check_flight(opts.flight, opts.reason)
    if opts.metrics:
        check_stages(opts.metrics, [s for s in opts.stages.split(",") if s])
    for path in opts.traces:
        check_trace(path)


if __name__ == "__main__":
    main()
