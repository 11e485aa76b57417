#!/usr/bin/env python3
"""Turns one perfbench trace into the per-layer self-time table.

    python3 perfbench/trace_report.py .bench_build/run/trace-checkpoint-1.json

A trace is the chrome://tracing JSON a traced perfbench run writes: one
complete ("X") event per span, with the span's id, the id of the span that
caused it (`parent`), its request/chunk `group` and exact `dur_ns` in args.
A replay names the measured call it replays one layer lower as its parent.

A span's self time is its duration minus the durations of its nested
children. Spans recorded beside a parent rather than inside it (`nested` 0:
LzExpand next to the fused deflate decoder, or on daemon_hot the direct
codec call next to a service call the memo or cache answered) are listed
as references and left out of the sums. The end-to-end time is the sum of the
root spans (the benchmark's phases, or one loop per client thread); the
roots' own self time is the unattributed remainder. Layer self times plus
the remainder add up to the end-to-end time by construction, and the
reader checks that they do.
"""
import json
import sys

# Layer order of the table: outermost first. A span's layer is the part of
# its name before the first dot.
LAYERS = ["transport", "service", "store", "cache", "core", "kernels",
          "deflate", "lz77", "isobar", "util"]


def load_spans(path):
    with open(path) as f:
        trace = json.load(f)
    spans = []
    for event in trace["traceEvents"]:
        args = event["args"]
        spans.append({
            "name": event["name"],
            "id": args["id"],
            "parent": args["parent"],
            "dur_ns": args["dur_ns"],
            "nested": args.get("nested", 1) == 1,
        })
    return trace.get("metadata", {}), spans


def self_times(spans):
    """Returns (layer -> self ns, unattributed ns, end-to-end ns, refs)."""
    child_ns = {}
    for s in spans:
        if s["nested"] and s["parent"]:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["dur_ns"]
    layers = {layer: 0 for layer in LAYERS}
    unattributed = 0
    e2e = 0
    refs = {}
    for s in spans:
        if not s["nested"]:
            refs[s["name"]] = refs.get(s["name"], 0) + s["dur_ns"]
            continue
        own = s["dur_ns"] - child_ns.get(s["id"], 0)
        if s["parent"] == 0:
            e2e += s["dur_ns"]
            unattributed += own
            continue
        layer = s["name"].split(".", 1)[0]
        if layer not in layers:
            raise ValueError("span %s has no known layer" % s["name"])
        layers[layer] += own
    return layers, unattributed, e2e, refs


def metrics(spans):
    """The self-time metrics a traced run reports, in seconds."""
    layers, unattributed, e2e, _ = self_times(spans)
    total = sum(layers.values()) + unattributed
    if abs(total - e2e) > max(1, e2e // 1000000):
        raise ValueError("self times %d ns do not add up to %d ns" % (total, e2e))
    out = {"trace.e2e_s": e2e * 1e-9}
    for layer in LAYERS:
        out["self.%s_s" % layer] = layers[layer] * 1e-9
    out["self.unattributed_s"] = unattributed * 1e-9
    return out


def table(meta, spans):
    layers, unattributed, e2e, refs = self_times(spans)
    lines = ["trace %s seed=%s: end-to-end %.6f s over %d spans" % (
        meta.get("workload", "?"), meta.get("seed", "?"), e2e * 1e-9, len(spans))]
    lines.append("  %-14s %12s %8s" % ("layer", "self_s", "share"))
    for layer in LAYERS + ["unattributed"]:
        ns = unattributed if layer == "unattributed" else layers[layer]
        share = ns / e2e if e2e else 0.0
        lines.append("  %-14s %12.6f %7.1f%%" % (layer, ns * 1e-9, 100 * share))
    total = sum(layers.values()) + unattributed
    lines.append("  %-14s %12.6f (end-to-end %.6f)" % ("sum", total * 1e-9, e2e * 1e-9))
    for name, ns in sorted(refs.items()):
        lines.append("  reference %s %.6f s (not nested)" % (name, ns * 1e-9))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: trace_report.py TRACE.json\n")
        return 2
    meta, spans = load_spans(argv[1])
    print(table(meta, spans))
    metrics(spans)  # raises when the sums do not close
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
