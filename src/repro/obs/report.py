"""Self-contained HTML run reports from a trace.

``repro report trace.jsonl`` turns one run's trace into a single HTML file
with zero external dependencies — no scripts, no fonts, no CDN: every chart
is inline SVG, hover detail rides native SVG ``<title>`` tooltips, and the
file can be mailed, archived as a CI artifact, or opened from disk offline.

Sections, top to bottom:

* **SLO panel** — one card per objective (:mod:`repro.obs.slo`), verdict
  spelled out as text (PASS/FAIL) beside the status colour, never colour
  alone;
* **metric time series** — comfort in-band fraction, fleet availability and
  per-window edge deadline compliance as single-series line charts (one
  y-axis each; a dashed, labelled target line marks the objective);
* **span waterfalls** — the slowest end-to-end requests, their critical
  path rendered as timed segments with a per-segment duration table
  (``policy.decision`` spans ride the chain, so a waterfall shows *why* a
  clone existed);
* **recovery policy decisions** — counts of the policy engine's
  spawn/skip/cancel/switch decisions, when the trace carries any;
* **fleet utilisation heatmap** — district × time-of-run busy fraction on
  a single-hue sequential ramp with a labelled scale.

Colours are the repo's validated light-mode chart palette (see DESIGN.md,
"Observability v2"): series blue ``#2a78d6``, sequential ramp ``#cde2fb`` →
``#0d366b``, status green/red only ever next to a text verdict.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.slo import SLOEngine, SLOReport, SLOSpec
from repro.obs.span import Segment, SpanIndex
from repro.obs.trace import TraceRecord, read_jsonl

__all__ = ["render_live_dashboard", "render_report", "write_report",
           "report_from_jsonl"]

# validated light-mode palette (scripts/validate_palette.js, DESIGN.md)
_SURFACE = "#fcfcfb"
_INK = "#20201d"
_MUTED = "#6f6c66"
_GRID = "#e7e4df"
_BLUE = "#2a78d6"
_RAMP_LO = (0xCD, 0xE2, 0xFB)   # #cde2fb
_RAMP_HI = (0x0D, 0x36, 0x6B)   # #0d366b
_GOOD = "#008300"
_BAD = "#e34948"

_W = 860                        # chart width (px)


def _esc(s: object) -> str:
    return html.escape(str(s), quote=True)


def _ramp(frac: float) -> str:
    """Sequential blue ramp: 0 → lightest, 1 → darkest."""
    f = min(1.0, max(0.0, frac))
    rgb = [round(lo + (hi - lo) * f) for lo, hi in zip(_RAMP_LO, _RAMP_HI)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _fmt_s(seconds: float) -> str:
    """Compact duration: 0.42s / 12.3s / 4.2min / 1.8h."""
    s = abs(seconds)
    if s < 60:
        return f"{seconds:.2f}s" if s < 10 else f"{seconds:.1f}s"
    if s < 3600:
        return f"{seconds / 60:.1f}min"
    return f"{seconds / 3600:.1f}h"


# ---------------------------------------------------------------------- #
# chart primitives (inline SVG)
# ---------------------------------------------------------------------- #
def _line_chart(points: Sequence[Tuple[float, float]], title: str,
                target: Optional[float] = None,
                target_label: str = "", height: int = 190) -> str:
    """One single-series line chart; x = hours into the run, y = 0..100 %."""
    if not points:
        return ""
    pad_l, pad_r, pad_t, pad_b = 46, 14, 30, 26
    iw, ih = _W - pad_l - pad_r, height - pad_t - pad_b
    x_max = max(t for t, _ in points) or 1.0

    def sx(t: float) -> float:
        return pad_l + iw * t / x_max

    def sy(v: float) -> float:
        return pad_t + ih * (1.0 - min(1.0, max(0.0, v)))

    parts = [f'<svg viewBox="0 0 {_W} {height}" role="img" '
             f'aria-label="{_esc(title)}">',
             f'<text x="{pad_l}" y="18" class="ct">{_esc(title)}</text>']
    for frac in (0.0, 0.5, 1.0):                       # y grid + labels
        y = sy(frac)
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" x2="{_W - pad_r}" '
                     f'y2="{y:.1f}" class="grid"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{y + 4:.1f}" '
                     f'class="tick" text-anchor="end">{frac:.0%}</text>')
    n_ticks = min(8, max(2, int(x_max // 4) or 2))     # x ticks
    for i in range(n_ticks + 1):
        t = x_max * i / n_ticks
        parts.append(f'<text x="{sx(t):.1f}" y="{height - 8}" class="tick" '
                     f'text-anchor="middle">{t:.0f}h</text>')
    if target is not None:
        y = sy(target)
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" x2="{_W - pad_r}" '
                     f'y2="{y:.1f}" class="target"/>')
        parts.append(f'<text x="{_W - pad_r}" y="{y - 5:.1f}" class="tgt" '
                     f'text-anchor="end">{_esc(target_label)}</text>')
    pts = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in points)
    parts.append(f'<polyline points="{pts}" class="series"/>')
    for t, v in points:                                # hover markers
        parts.append(f'<circle cx="{sx(t):.1f}" cy="{sy(v):.1f}" r="2.6" '
                     f'class="dot"><title>{t:.1f}h — {v:.1%}</title></circle>')
    parts.append("</svg>")
    return "".join(parts)


def _waterfall(trace_id: str, segments: Sequence[Segment],
               outcome: str) -> str:
    """One request's critical path as a timed horizontal segment track."""
    if not segments:
        return ""
    t0 = segments[0].start_ts
    total = max(segments[-1].end_ts - t0, 1e-9)
    pad_l, pad_r, bar_y, bar_h, height = 10, 10, 26, 24, 64
    iw = _W - pad_l - pad_r
    parts = [f'<svg viewBox="0 0 {_W} {height}" role="img" '
             f'aria-label="critical path of {_esc(trace_id)}">',
             f'<text x="{pad_l}" y="16" class="ct">{_esc(trace_id)} — '
             f'{_fmt_s(total)} end to end — {_esc(outcome)}</text>']
    for seg in segments:
        x = pad_l + iw * (seg.start_ts - t0) / total
        w = max(iw * seg.dur / total, 1.5)
        shade = _ramp(0.35 + 0.5 * (seg.dur / total))
        parts.append(
            f'<rect x="{x:.1f}" y="{bar_y}" width="{w:.1f}" '
            f'height="{bar_h}" rx="3" fill="{shade}" class="seg">'
            f'<title>{_esc(seg.label)}: {_fmt_s(seg.dur)}</title></rect>')
    parts.append(f'<text x="{pad_l}" y="{height - 2}" class="tick">0</text>')
    parts.append(f'<text x="{_W - pad_r}" y="{height - 2}" class="tick" '
                 f'text-anchor="end">{_fmt_s(total)}</text>')
    parts.append("</svg>")
    rows = "".join(
        f"<tr><td>{_esc(s.label)}</td><td class='num'>{_fmt_s(s.dur)}</td>"
        f"<td class='num'>{s.dur / total:.1%}</td></tr>"
        for s in segments)
    table = (f"<table class='segs'><thead><tr><th>segment</th><th>time</th>"
             f"<th>share</th></tr></thead><tbody>{rows}</tbody></table>")
    return f"<div class='wf'>{''.join(parts)}{table}</div>"


def _heatmap(series: Dict[str, List[Tuple[float, float]]],
             x_max_h: float, buckets: int = 48) -> str:
    """District × time busy-fraction heatmap on the sequential ramp."""
    rows = sorted(series)
    if not rows or x_max_h <= 0:
        return ""
    cell_w = (_W - 140) / buckets
    cell_h, pad_t = 24, 30
    height = pad_t + len(rows) * (cell_h + 2) + 40
    parts = [f'<svg viewBox="0 0 {_W} {height}" role="img" '
             f'aria-label="fleet utilisation heatmap">',
             f'<text x="10" y="18" class="ct">Fleet utilisation '
             f'(busy core fraction)</text>']
    for ri, name in enumerate(rows):
        y = pad_t + ri * (cell_h + 2)
        parts.append(f'<text x="126" y="{y + cell_h / 2 + 4}" class="tick" '
                     f'text-anchor="end">{_esc(name)}</text>')
        cells: List[List[float]] = [[] for _ in range(buckets)]
        for t, v in series[name]:
            b = min(buckets - 1, int(buckets * t / x_max_h))
            cells[b].append(v)
        for b, vals in enumerate(cells):
            if not vals:
                continue
            v = sum(vals) / len(vals)
            x = 134 + b * cell_w
            lo, hi = x_max_h * b / buckets, x_max_h * (b + 1) / buckets
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{cell_w - 1:.1f}" '
                f'height="{cell_h}" rx="2" fill="{_ramp(v)}">'
                f'<title>{_esc(name)} {lo:.1f}–{hi:.1f}h: {v:.0%} busy'
                f'</title></rect>')
    ly = pad_t + len(rows) * (cell_h + 2) + 14      # labelled ramp legend
    for i in range(24):
        parts.append(f'<rect x="{134 + i * 6}" y="{ly}" width="6" height="10" '
                     f'fill="{_ramp(i / 23)}"/>')
    parts.append(f'<text x="128" y="{ly + 9}" class="tick" '
                 f'text-anchor="end">0%</text>')
    parts.append(f'<text x="{134 + 24 * 6 + 6}" y="{ly + 9}" '
                 f'class="tick">100% busy</text>')
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------- #
# sections
# ---------------------------------------------------------------------- #
def _slo_panel(report: SLOReport) -> str:
    cards = []
    for r in report:
        ok, color = ("PASS", _GOOD) if r.ok else ("FAIL", _BAD)
        obs = "no data" if r.samples == 0 else f"{r.compliance:.2%}"
        breaches = (f"{r.breaches} of {len(r.windows)} windows over budget"
                    if r.windows else "whole-run objective")
        cards.append(
            f"<div class='card'>"
            f"<div class='verdict' style='color:{color}'>"
            f"{'✔' if r.ok else '✘'} {ok}</div>"
            f"<div class='slo-name'>{_esc(r.spec.name)} "
            f"<span class='flow'>[{_esc(r.spec.flow)}]</span></div>"
            f"<div class='slo-desc'>{_esc(r.spec.description)}</div>"
            f"<div class='slo-num'>{obs} <span class='muted'>vs target "
            f"{r.spec.target:.0%}</span></div>"
            f"<div class='muted'>{_esc(breaches)}</div></div>")
    return f"<div class='cards'>{''.join(cards)}</div>"


def _sample_series(records: Sequence[TraceRecord], name: str, key: str,
                   t0: float) -> List[Tuple[float, float]]:
    return [((r.ts - t0) / 3600.0, float(r.args[key]))
            for r in records if r.name == name and key in r.args]


def _stat_cards(items: Sequence[Tuple[str, object]]) -> str:
    cells = "".join(
        f"<div class='card'><div class='slo-name'>{_esc(label)}</div>"
        f"<div class='slo-num'>{_esc(value)}</div></div>"
        for label, value in items)
    return f"<div class='cards'>{cells}</div>"


def _gantt_panel(run_report: Dict[str, object]) -> str:
    """Worker × node execution timeline from a run report's backend stats.

    Fed by ``repro run --report-json`` output (``RunReport.to_dict()``): the
    wall-clock node lifecycle rows the :class:`~repro.runner.backend`
    backends collect.  Each worker is one lane; a node's bar spans
    ``start_s → done_s`` with the queued span (``enqueue_s → start_s``)
    drawn as a pale lead-in.  Retried nodes (``attempts > 1``) are outlined
    in the failure colour.
    """
    stats = run_report.get("backend_stats") or {}
    timeline = stats.get("timeline") or [] if isinstance(stats, dict) else []
    cards = []
    if isinstance(stats, dict) and stats:
        cards = [
            ("nodes executed", stats.get("executed", 0)),
            ("chunks dispatched", stats.get("chunks_dispatched", 0)),
            ("chunk steals", stats.get("chunk_steals", 0)),
            ("queue depth peak", stats.get("queue_depth_peak", 0)),
            ("worker deaths", stats.get("worker_deaths", 0)),
            ("nodes retried", stats.get("retried_nodes", 0)),
            ("workers respawned", stats.get("respawned_workers", 0)),
            ("heartbeat staleness max",
             f"{float(stats.get('heartbeat_max_staleness_s', 0.0)):.2f}s"),
        ]
    parts: List[str] = []
    rows = [r for r in timeline
            if isinstance(r, dict) and r.get("done_s") is not None]
    if rows:
        t_end = max(float(r["done_s"]) for r in rows) or 1e-9
        workers = sorted({int(r.get("worker") or 0) for r in rows})
        lane = {w: i for i, w in enumerate(workers)}
        pad_l, pad_r, pad_t, lane_h = 70, 14, 30, 26
        iw = _W - pad_l - pad_r
        height = pad_t + len(workers) * (lane_h + 4) + 30
        parts.append(
            f'<svg viewBox="0 0 {_W} {height}" role="img" '
            f'aria-label="worker-node timeline">'
            f'<text x="10" y="18" class="ct">Worker × node timeline '
            f'({len(rows)} nodes, {_fmt_s(t_end)} wall)</text>')
        for w in workers:
            y = pad_t + lane[w] * (lane_h + 4)
            parts.append(f'<text x="{pad_l - 6}" y="{y + lane_h / 2 + 4}" '
                         f'class="tick" text-anchor="end">w{w}</text>')
        for i, r in enumerate(rows):
            w = int(r.get("worker") or 0)
            y = pad_t + lane[w] * (lane_h + 4)
            start = float(r.get("start_s", r.get("enqueue_s", 0.0)) or 0.0)
            done = float(r["done_s"])
            enq = float(r.get("enqueue_s", start) or start)
            x0 = pad_l + iw * enq / t_end
            xs = pad_l + iw * start / t_end
            xw = max(iw * (done - start) / t_end, 1.5)
            if xs - x0 > 0.5:   # queued lead-in
                parts.append(
                    f'<rect x="{x0:.1f}" y="{y + 7}" '
                    f'width="{xs - x0:.1f}" height="{lane_h - 14}" '
                    f'fill="{_GRID}"/>')
            retried = int(r.get("attempts", 1) or 1) > 1
            stroke = f' stroke="{_BAD}" stroke-width="1.5"' if retried else ""
            shade = _ramp(0.25 + 0.6 * ((done - start) / t_end))
            label = (f"{r.get('node', '?')} [{r.get('kind', '?')}] w{w}: "
                     f"{_fmt_s(done - start)}"
                     + (f" ({r.get('attempts')} attempts)" if retried else ""))
            parts.append(
                f'<rect x="{xs:.1f}" y="{y + 3}" width="{xw:.1f}" '
                f'height="{lane_h - 6}" rx="3" fill="{shade}"{stroke}>'
                f'<title>{_esc(label)}</title></rect>')
        parts.append(f'<text x="{pad_l}" y="{height - 6}" class="tick">0'
                     f'</text><text x="{_W - pad_r}" y="{height - 6}" '
                     f'class="tick" text-anchor="end">{_fmt_s(t_end)}</text>')
        parts.append("</svg>")
    if not cards and not parts:
        return ""
    header = ""
    if run_report.get("experiment"):
        header = (f"<p class='muted'>{_esc(run_report['experiment'])} · "
                  f"jobs {_esc(run_report.get('jobs', '?'))} · "
                  f"{_esc(run_report.get('computed', 0))} computed / "
                  f"{_esc(run_report.get('cached', 0))} cached points</p>")
    return header + (_stat_cards(cards) if cards else "") + "".join(parts)


def _surrogate_panel(records: Sequence[TraceRecord], t0: float) -> str:
    """The surrogate tier's error-budget panel from its trace records.

    ``surrogate.drift`` records carry the worst sample-vs-aggregate district
    drift against the declared budget (``repro.thermal.budget``); the chart
    plots drift as a share of that budget, with 100% as the break line.
    Both ``surrogate.materialize`` and the historical ``…materialise``
    spelling are counted.
    """
    sur = [r for r in records if r.kind == "surrogate"]
    if not sur:
        return ""
    drifts = [r for r in sur if r.name == "surrogate.drift"]
    n_mat = sum(1 for r in sur
                if r.name in ("surrogate.materialize",
                              "surrogate.materialise"))
    n_zoom = sum(1 for r in sur if r.name == "surrogate.zoom")
    switch = next((r for r in sur if r.name == "surrogate.switch"), None)
    cards: List[Tuple[str, object]] = []
    if switch is not None:
        cards.append(("aggregated at switch",
                      switch.args.get("aggregated",
                                      switch.args.get("districts", "?"))))
    if drifts:
        last = drifts[-1]
        budget_c = float(last.args.get("budget_c", 0.0)) or 1.0
        worst = max(float(r.args.get("max_drift_c", 0.0)) for r in drifts)
        cards.append(("worst drift",
                      f"{worst:.3f}°C / {budget_c:.2f}°C budget"))
        cards.append(("live districts", last.args.get("live", "?")))
    cards.append(("materializations", n_mat))
    cards.append(("zoom-ins", n_zoom))
    parts = [_stat_cards(cards)]
    if drifts:
        budget_c = float(drifts[-1].args.get("budget_c", 0.0)) or 1.0
        pts = [((r.ts - t0) / 3600.0,
                float(r.args.get("max_drift_c", 0.0)) / budget_c)
               for r in drifts]
        parts.append(_line_chart(
            pts, "Surrogate drift as share of declared budget",
            target=1.0, target_label="error budget"))
    return "".join(parts)


def render_report(records: Iterable[TraceRecord],
                  title: str = "DF3 run report",
                  slos: Optional[Sequence[SLOSpec]] = None,
                  slowest_n: int = 5,
                  run_report: Optional[Dict[str, object]] = None) -> str:
    """The whole report as one self-contained HTML string.

    ``run_report`` (a ``RunReport.to_dict()`` payload, e.g. loaded from
    ``repro run --report-json``) adds the orchestration panel: backend
    counters and the worker × node Gantt timeline.
    """
    recs = list(records)
    report = SLOEngine(slos).evaluate(recs)
    idx = SpanIndex(recs)
    t0 = recs[0].ts if recs else 0.0
    t_max = max((r.ts for r in recs), default=t0)
    span_h = max((t_max - t0) / 3600.0, 1e-9)

    comfort = _sample_series(recs, "comfort.sample", "in_band", t0)
    fleet = _sample_series(recs, "fleet.sample", "up", t0)
    util: Dict[str, List[Tuple[float, float]]] = {}
    for r in recs:
        if r.name == "fleet.sample":
            for district, busy in r.args.get("util", {}).items():
                util.setdefault(district, []).append(
                    ((r.ts - t0) / 3600.0, float(busy)))

    edge_windows: List[Tuple[float, float]] = []
    for res in report:
        if res.spec.name == "edge-deadline":
            edge_windows = [((w.end_ts - t0) / 3600.0, w.compliance)
                            for w in res.windows]

    charts = []
    if edge_windows:
        charts.append(_line_chart(
            edge_windows, "Edge deadline compliance per window",
            target=0.90, target_label="target 90%"))
    if comfort:
        charts.append(_line_chart(
            comfort, "Comfort: rooms inside the band",
            target=0.90, target_label="target 90%"))
    if fleet:
        charts.append(_line_chart(
            fleet, "Fleet availability: servers up",
            target=0.95, target_label="target 95%"))

    policy_counts: Dict[str, int] = {}
    for r in recs:
        if r.kind == "policy":
            action = str(r.args.get("action", "?"))
            policy_counts[action] = policy_counts.get(action, 0) + 1

    waterfalls = []
    for tid in idx.slowest(slowest_n):
        term = idx.terminal(tid)
        outcome = term.name if term is not None else "?"
        waterfalls.append(_waterfall(tid, idx.critical_path(tid), outcome))

    n_traces = len(idx.trace_ids())
    complete, total = idx.completeness("edge.")
    stats = (f"{len(recs):,} records · {n_traces:,} traces · "
             f"{span_h:.1f}h simulated")
    if total:
        stats += f" · {complete / total:.1%} of edge stories causally complete"

    sections = [
        f"<h1>{_esc(title)}</h1>",
        f"<p class='muted'>{_esc(stats)}</p>",
        "<h2>Service-level objectives</h2>", _slo_panel(report),
    ]
    if charts:
        sections.append("<h2>Time series</h2>")
        sections.extend(charts)
    if waterfalls:
        sections.append(f"<h2>Slowest requests (top {len(waterfalls)})</h2>")
        sections.extend(waterfalls)
    if policy_counts:
        cells = "".join(
            f"<div class='card'><div class='slo-name'>{_esc(a)}</div>"
            f"<div class='slo-num'>{n:,}</div></div>"
            for a, n in sorted(policy_counts.items()))
        sections.append("<h2>Recovery policy decisions</h2>"
                        f"<div class='cards'>{cells}</div>")
    surrogate = _surrogate_panel(recs, t0)
    if surrogate:
        sections.append("<h2>Surrogate error budget</h2>")
        sections.append(surrogate)
    if run_report:
        gantt = _gantt_panel(run_report)
        if gantt:
            sections.append("<h2>Orchestration</h2>")
            sections.append(gantt)
    hm = _heatmap(util, span_h)
    if hm:
        sections.append("<h2>Fleet utilisation</h2>")
        sections.append(hm)

    css = f"""
 body {{ background:{_SURFACE}; color:{_INK}; margin:2rem auto; max-width:{_W + 40}px;
        font:15px/1.45 system-ui, sans-serif; padding:0 1rem; }}
 h1 {{ font-size:1.5rem; margin-bottom:.2rem; }}
 h2 {{ font-size:1.1rem; margin:1.6rem 0 .6rem; }}
 svg {{ display:block; width:100%; height:auto; margin:.4rem 0 1rem; }}
 .muted {{ color:{_MUTED}; }}
 .ct {{ font-size:14px; fill:{_INK}; font-weight:600; }}
 .tick {{ font-size:11px; fill:{_MUTED}; }}
 .tgt {{ font-size:11px; fill:{_MUTED}; font-style:italic; }}
 .grid {{ stroke:{_GRID}; stroke-width:1; }}
 .target {{ stroke:{_MUTED}; stroke-width:1; stroke-dasharray:5 4; }}
 .series {{ fill:none; stroke:{_BLUE}; stroke-width:2; }}
 .dot {{ fill:{_BLUE}; stroke:{_SURFACE}; stroke-width:1.5; }}
 .seg {{ stroke:{_SURFACE}; stroke-width:2; }}
 .cards {{ display:grid; grid-template-columns:repeat(auto-fit,minmax(190px,1fr));
          gap:12px; }}
 .card {{ border:1px solid {_GRID}; border-radius:8px; padding:12px 14px; }}
 .verdict {{ font-weight:700; font-size:1rem; }}
 .slo-name {{ font-weight:600; margin-top:.2rem; }}
 .flow {{ color:{_MUTED}; font-weight:400; }}
 .slo-desc {{ color:{_MUTED}; font-size:.85rem; margin:.15rem 0; }}
 .slo-num {{ font-size:1.25rem; font-weight:600; margin:.2rem 0; }}
 .slo-num .muted {{ font-size:.8rem; font-weight:400; }}
 .wf {{ margin-bottom:1.2rem; }}
 table.segs {{ border-collapse:collapse; font-size:.85rem; margin:-.4rem 0 .8rem; }}
 table.segs th, table.segs td {{ text-align:left; padding:2px 14px 2px 0;
   border-bottom:1px solid {_GRID}; }}
 table.segs td.num {{ font-variant-numeric:tabular-nums; }}
"""
    return ("<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
            f"<title>{_esc(title)}</title><style>{css}</style></head>"
            f"<body>{''.join(sections)}</body></html>")


def render_live_dashboard(title: str = "DF3 live twin") -> str:
    """The served dashboard: the report's look, fed by SSE instead of files.

    Where :func:`render_report` renders a finished run from its trace, this
    page subscribes to the service's ``/events`` stream with ``EventSource``
    and repaints its panels as ``state`` / ``metrics`` / ``slo.burn_rate`` /
    ``trace`` events arrive — same palette, zero dependencies, one file.
    """
    css = f"""
 body {{ background:{_SURFACE}; color:{_INK}; margin:2rem auto; max-width:{_W + 40}px;
        font:15px/1.45 system-ui, sans-serif; padding:0 1rem; }}
 h1 {{ font-size:1.5rem; margin-bottom:.2rem; }}
 h2 {{ font-size:1.1rem; margin:1.6rem 0 .6rem; }}
 .muted {{ color:{_MUTED}; }}
 .cards {{ display:grid; grid-template-columns:repeat(auto-fit,minmax(190px,1fr));
          gap:12px; }}
 .card {{ border:1px solid {_GRID}; border-radius:8px; padding:12px 14px; }}
 .num {{ font-size:1.25rem; font-weight:600; margin:.2rem 0;
         font-variant-numeric:tabular-nums; }}
 .lab {{ color:{_MUTED}; font-size:.85rem; }}
 .bar {{ height:8px; background:{_GRID}; border-radius:4px; overflow:hidden;
         margin:.6rem 0; }}
 .bar > div {{ height:100%; background:{_BLUE}; width:0%; }}
 .ok {{ color:{_GOOD}; }} .bad {{ color:{_BAD}; }}
 table {{ border-collapse:collapse; font-size:.85rem; width:100%; }}
 th, td {{ text-align:left; padding:3px 14px 3px 0;
           border-bottom:1px solid {_GRID}; }}
 td.n {{ font-variant-numeric:tabular-nums; }}
 #log {{ font:12px/1.5 ui-monospace, monospace; white-space:pre-wrap;
         border:1px solid {_GRID}; border-radius:8px; padding:10px 12px;
         max-height:16rem; overflow-y:auto; }}
"""
    js = """
var $ = function (id) { return document.getElementById(id); };
var sloRows = {}, traceLines = [], evCount = 0;
function fmtH(s) { return (s / 3600).toFixed(2) + ' h'; }
function paint(st) {
  $('now').textContent = fmtH(st.now - st.t_start);
  $('progress').textContent = (100 * st.progress).toFixed(1) + '%';
  $('fill').style.width = (100 * st.progress) + '%';
  $('events').textContent = st.events_executed.toLocaleString();
  $('phase').textContent = st.finished ? 'finished'
                         : (st.paused ? 'paused' : 'running');
  $('phase').className = 'num ' + (st.finished ? 'ok' : '');
}
function paintSlo() {
  var keys = Object.keys(sloRows).sort();
  var html = '<tr><th>SLO</th><th>window end</th><th>compliance</th>' +
             '<th>burn rate</th><th></th></tr>';
  keys.forEach(function (k) {
    var w = sloRows[k];
    html += '<tr><td>' + k + '</td><td class=n>' + fmtH(w.end) +
            '</td><td class=n>' + (100 * w.compliance).toFixed(1) +
            '%</td><td class=n>' + w.burn_rate.toFixed(2) + '</td><td>' +
            (w.breached ? '<span class=bad>breach</span>'
                        : '<span class=ok>ok</span>') + '</td></tr>';
  });
  $('slo').innerHTML = html;
}
var es = new EventSource('/events');
['run.started', 'run.paused', 'run.finished', 'run.error', 'state', 'metrics',
 'slo.burn_rate', 'slo.breach', 'trace', 'command.applied', 'command.failed'
].forEach(function (kind) {
  es.addEventListener(kind, function (e) {
    evCount += 1;
    $('evcount').textContent = evCount;
    var d = JSON.parse(e.data);
    if (kind === 'state' || kind === 'run.finished') { if (d.t_start !== undefined) paint(d); }
    if (kind === 'slo.burn_rate') { sloRows[d.slo] = d; paintSlo(); }
    if (kind === 'trace') {
      d.records.forEach(function (r) {
        traceLines.push(fmtH(r.ts) + '  ' + r.name);
      });
      traceLines = traceLines.slice(-60);
      $('log').textContent = traceLines.join('\\n');
    }
    if (kind === 'command.applied') {
      traceLines.push('command applied: ' + d.label);
      $('log').textContent = traceLines.join('\\n');
    }
  });
});
es.onerror = function () { $('phase').textContent = 'disconnected'; };
fetch('/api/state').then(function (r) { return r.json(); }).then(paint);
"""
    body = (
        f"<h1>{_esc(title)}</h1>"
        "<p class='muted'>Live digital twin — this page updates from the "
        "<code>/events</code> SSE stream.</p>"
        "<div class='bar'><div id='fill'></div></div>"
        "<div class='cards'>"
        "<div class='card'><div class='lab'>sim time into run</div>"
        "<div class='num' id='now'>–</div></div>"
        "<div class='card'><div class='lab'>progress</div>"
        "<div class='num' id='progress'>–</div></div>"
        "<div class='card'><div class='lab'>status</div>"
        "<div class='num' id='phase'>connecting…</div></div>"
        "<div class='card'><div class='lab'>engine events</div>"
        "<div class='num' id='events'>–</div></div>"
        "<div class='card'><div class='lab'>SSE events received</div>"
        "<div class='num' id='evcount'>0</div></div>"
        "</div>"
        "<h2>SLO burn rates</h2><table id='slo'>"
        "<tr><td class='muted'>waiting for the first closed window…</td></tr>"
        "</table>"
        "<h2>Trace tail</h2><div id='log'>waiting for events…</div>"
    )
    return ("<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
            f"<title>{_esc(title)}</title><style>{css}</style></head>"
            f"<body>{body}<script>{js}</script></body></html>")


def write_report(records: Iterable[TraceRecord], path: str | Path,
                 **kwargs) -> Path:
    """Render and write the report; returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_report(records, **kwargs), encoding="utf-8")
    return p


def report_from_jsonl(trace_path: str | Path, out_path: str | Path,
                      **kwargs) -> Path:
    """``repro report``'s body: JSONL trace in, HTML file out."""
    return write_report(read_jsonl(trace_path), out_path, **kwargs)
