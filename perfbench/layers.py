"""Per-layer figures from the Chrome trace a traced driver run writes.

The driver wraps each measured call in a span of its own:
`perfbench.serve` around StreamService::serve and `perfbench.replay`
around the event-by-event replay. Everything below those comes from the
spans lbmem already emits (`online.<Kind>`, `online.repair`, `online.balance_stage`,
`lb.*`). Nesting is recovered per thread from the span intervals.

The trace holds one span per line, each thread's spans in begin order
(obs/trace.hpp), so the file is read as a stream with one stack of open
spans per thread: a churn trace has close to a million spans.
"""

import math
import re

KINDS = {
    "online.WcetChange": "wcet",
    "online.TaskArrival": "arrival",
    "online.TaskRemoval": "removal",
    "online.ProcessorFailure": "failure",
}
OUTCOMES = ("applied", "full_replace", "rejected")
LB_SPANS = ("lb.balance", "lb.evaluate_candidates", "lb.commit")
LINE = re.compile(r'"name": "([^"]+)".*"ts": (\d+)\.(\d{3}), '
                  r'"dur": (\d+)\.(\d{3}), .*"tid": (\d+)')


class Span:
    __slots__ = ("name", "ts", "end", "segment", "children")

    def __init__(self, name, ts, dur, parent):
        self.name = name
        self.ts = ts
        self.end = ts + dur
        self.segment = parent.segment if parent else name
        self.children = {}  # child name -> summed duration (ns)

    @property
    def dur(self):
        return self.end - self.ts

    def child_time(self, names):
        return sum(self.children.get(name, 0) for name in names)


class Tally:
    """Durations (ns) gathered as spans close."""

    def __init__(self):
        self.apply = {kind: [] for kind in KINDS.values()}
        self.self_time, self.repair, self.stage = [], [], []
        self.serve_self, self.replay = [], []
        self.lb = dict.fromkeys(LB_SPANS, 0)

    def close(self, span, parent):
        if parent:
            parent.children[span.name] = (
                parent.children.get(span.name, 0) + span.dur)
        measured = span.segment == "perfbench.serve"
        if span.name in KINDS:
            if span.segment == "perfbench.replay":
                self.replay.append((KINDS[span.name], span.dur))
            elif measured:
                self.apply[KINDS[span.name]].append(span.dur)
                self.self_time.append(span.dur - span.child_time(
                    ("online.repair", "online.balance_stage")))
        elif not measured:
            return
        elif span.name == "online.repair":
            self.repair.append(span.dur)
        elif span.name == "online.balance_stage":
            self.stage.append(span.dur)
        elif span.name in self.lb:
            self.lb[span.name] += span.dur
        elif span.name == "perfbench.serve":
            self.serve_self.append(span.dur - span.child_time(KINDS))


def read(spans_file):
    tally = Tally()
    stacks = {}
    with open(spans_file, encoding="utf-8") as handle:
        for line in handle:
            match = LINE.search(line)
            if not match:
                continue
            name, ts_us, ts_frac, dur_us, dur_frac, tid = match.groups()
            ts = int(ts_us) * 1000 + int(ts_frac)
            stack = stacks.setdefault(tid, [])
            while stack and ts >= stack[-1].end:
                span = stack.pop()
                tally.close(span, stack[-1] if stack else None)
            stack.append(Span(name, ts, int(dur_us) * 1000 + int(dur_frac),
                              stack[-1] if stack else None))
    for stack in stacks.values():
        while stack:
            span = stack.pop()
            tally.close(span, stack[-1] if stack else None)
    return tally


def percentile(values, pct):
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def analyse(spans_file, ops, replay):
    """Per-layer metrics {name: (value, unit)} plus the kind x outcome rows.

    `ops` is the number of events the traced serve pass drained; `replay` is the driver's per-event
    "kind outcome rebuilt" list for the replay pass, in trace order.
    """
    tally = read(spans_file)

    def us(values):
        return [v / 1e3 for v in values]

    metrics = {}
    for kind, values in tally.apply.items():
        for pct in (50, 90):
            metrics[f"online.apply_us.{kind}.p{pct}"] = (
                percentile(us(values), pct), "us")
    metrics["online.self_us.p50"] = (percentile(us(tally.self_time), 50), "us")
    metrics["online.repair_us.p50"] = (percentile(us(tally.repair), 50), "us")
    metrics["online.repair_us.p99"] = (percentile(us(tally.repair), 99), "us")
    metrics["online.balance_stage_us.p50"] = (
        percentile(us(tally.stage), 50), "us")
    metrics["stream.self_ms"] = (
        sum(tally.serve_self) / 1e6 / len(tally.serve_self)
        if tally.serve_self else 0.0, "ms")
    for name, total in tally.lb.items():
        metrics[name + "_ms"] = (total / 1e6 / ops if ops else 0.0, "ms")

    rows = outcome_rows(tally.replay, replay)
    for (kind, outcome), durations in rows.items():
        metrics[f"online.outcome.{kind}.{outcome}"] = (
            float(len(durations)), "count")
    rebuilt = sum(1 for line in replay if line.endswith(" 1"))
    full = sum(len(rows[(kind, "full_replace")]) for kind in KINDS.values())
    metrics["online.graph_rebuilt_ratio"] = (
        rebuilt / len(replay) if replay else 0.0, "ratio")
    metrics["online.full_replace_ratio"] = (
        full / len(replay) if replay else 0.0, "ratio")
    return metrics, rows


def outcome_rows(spans, replay):
    """{(kind, outcome): [apply durations in ms]} for the replay pass."""
    rows = {(k, o): [] for k in KINDS.values() for o in OUTCOMES}
    if len(spans) != len(replay):
        raise ValueError(f"replay recorded {len(spans)} event spans for "
                         f"{len(replay)} events")
    for (span_kind, dur), line in zip(spans, replay):
        kind, outcome, _ = line.split()
        if span_kind != kind:
            raise ValueError(f"replay span of kind {span_kind} paired with "
                             f"a {kind} event")
        rows[(kind, outcome)].append(dur / 1e6)
    return rows


def format_rows(rows):
    """The kind x outcome table: counts and p50 apply time per cell."""
    lines = ["kind      " + "".join(f"{o:>26}" for o in OUTCOMES)]
    for kind in KINDS.values():
        cells = []
        for outcome in OUTCOMES:
            durations = rows[(kind, outcome)]
            cells.append(f"{len(durations):>6} x p50 "
                         f"{percentile(durations, 50):9.3f} ms")
        lines.append(f"{kind:<10}" + "".join(f"{c:>26}" for c in cells))
    return lines
