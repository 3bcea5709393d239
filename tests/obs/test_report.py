"""HTML run report: self-contained output, sections, CLI round trip."""

import xml.etree.ElementTree as ET
import re

import pytest

from repro.cli import main
from repro.obs import Observability, Tracer
from repro.obs.report import render_report, report_from_jsonl, write_report


class _Carrier:
    def __init__(self, request_id):
        self.request_id = request_id


def _story(obs, rid, t0, span, ok=True):
    c = _Carrier(rid)
    obs.emit_span("request", "edge.received", t0, ctx=c, id=rid)
    obs.emit_span("request", "edge.admitted", t0 + 0.1 * span, ctx=c, id=rid)
    obs.emit_span("request", "edge.scheduled", t0 + 0.3 * span, ctx=c, id=rid)
    obs.emit_span("request", "edge.completed", t0 + span, ctx=c,
                  dur=0.7 * span, id=rid, ok=ok, resp_s=span)


@pytest.fixture()
def records():
    tr = Tracer()
    obs = Observability(tracer=tr)
    for i in range(8):
        _story(obs, f"edge-{i}", 100.0 * i, 2.0 + i, ok=(i != 7))
    for k in range(6):
        ts = 700.0 * k
        tr.emit("sample", "comfort.sample", ts, in_band=0.9 + 0.01 * k,
                rooms=48)
        tr.emit("sample", "fleet.sample", ts, up=0.95, free_cores=10,
                total_cores=64,
                util={"district-0": 0.2 + 0.1 * k, "district-1": 0.5})
    return list(tr.iter_records())


def test_report_has_all_sections(records):
    html = render_report(records, title="unit report")
    assert html.lstrip().startswith("<!DOCTYPE html>")
    assert "unit report" in html
    for section in ("Service-level objectives", "Time series",
                    "Slowest requests", "Fleet utilisation"):
        assert section in html, f"missing section {section!r}"
    # SLO verdicts never rely on color alone
    assert "PASS" in html or "FAIL" in html


def test_report_is_self_contained(records):
    html = render_report(records, title="t")
    assert "<script" not in html
    assert not re.search(r"https?://", html)
    assert "@import" not in html and "url(" not in html


def test_report_svgs_are_well_formed(records):
    html = render_report(records, title="t")
    svgs = re.findall(r"<svg.*?</svg>", html, flags=re.S)
    assert len(svgs) >= 3                     # charts + waterfalls + heatmap
    for svg in svgs:
        ET.fromstring(svg)                    # raises on malformed XML
    # native tooltips present so hover works without JS
    assert "<title>" in html


def test_report_waterfalls_show_slowest_requests(records):
    html = render_report(records, title="t", slowest_n=2)
    assert "edge-7" in html and "edge-6" in html   # the two longest stories
    assert "edge-0" not in html
    assert "scheduled→completed" in html


def test_write_report_and_jsonl_round_trip(tmp_path, records):
    out = write_report(records, tmp_path / "r.html", title="t")
    assert out.read_text(encoding="utf-8") == render_report(records, title="t")

    tr = Tracer()
    tr.absorb(records)
    trace = tr.write_jsonl(tmp_path / "t.jsonl")
    out2 = report_from_jsonl(trace, tmp_path / "r2.html", title="t")
    assert out2.read_text(encoding="utf-8") == out.read_text(encoding="utf-8")


def test_empty_trace_still_renders(tmp_path):
    html = render_report([], title="empty")
    assert "<!DOCTYPE html>" in html and "empty" in html


def test_cli_report_subcommand(tmp_path, records, capsys):
    tr = Tracer()
    tr.absorb(records)
    trace = tr.write_jsonl(tmp_path / "t.jsonl")
    out = tmp_path / "report.html"
    assert main(["report", str(trace), "-o", str(out), "--title", "cli t",
                 "--slowest", "3"]) == 0
    assert "report →" in capsys.readouterr().out
    assert "cli t" in out.read_text(encoding="utf-8")


def test_cli_report_missing_trace_errors(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such trace" in capsys.readouterr().err.lower()


# --------------------------------------------------------------------------- #
# orchestration-plane panels: surrogate error budget + worker Gantt
# --------------------------------------------------------------------------- #
def _surrogate_records():
    tr = Tracer()
    for k in range(5):
        tr.emit("surrogate", "surrogate.drift", 3600.0 * k,
                max_drift_c=0.05 * k, budget_c=0.35, aggregated=3, live=1)
    tr.emit("surrogate", "surrogate.materialize", 7200.0, district=2,
            reason="churn", live=2, aggregated=2)
    tr.emit("surrogate", "surrogate.zoom", 9000.0, district=1, zooms=1)
    return list(tr.iter_records())


def _run_report_payload():
    return {
        "experiment": "E14", "jobs": 2,
        "computed": 3, "cached": 0,
        "backend_stats": {
            "executed": 4, "chunks_dispatched": 4, "chunk_steals": 4,
            "queue_depth_peak": 2, "worker_deaths": 1, "retried_nodes": 1,
            "respawned_workers": 1, "duplicate_results": 0,
            "heartbeat_max_staleness_s": 0.31,
            "nodes_per_worker": {"0": 2, "1": 2},
            "last_heartbeat": {"0": 1.0, "1": 2.0},
            "timeline": [
                {"node": "prefix-a", "kind": "prefix", "worker": 0,
                 "attempts": 1, "enqueue_s": 0.0, "claim_s": 0.01,
                 "start_s": 0.02, "done_s": 0.5, "wall_s": 0.48},
                {"node": "pt-1", "kind": "point", "worker": 1, "attempts": 2,
                 "enqueue_s": 0.5, "claim_s": 0.55, "start_s": 0.6,
                 "done_s": 1.4, "wall_s": 0.8},
            ],
        },
    }


def test_surrogate_budget_panel_renders(records):
    html = render_report(records + _surrogate_records(), title="t")
    assert "Surrogate error budget" in html
    assert "worst drift" in html
    assert "0.200°C / 0.35°C budget" in html      # max over the drift series
    assert "materializations" in html and "zoom-ins" in html
    assert "error budget" in html                 # the 100% break line
    for svg in re.findall(r"<svg.*?</svg>", html, flags=re.S):
        ET.fromstring(svg)


def test_surrogate_panel_absent_without_records(records):
    assert "Surrogate error budget" not in render_report(records, title="t")


def test_gantt_panel_renders_from_run_report(records):
    html = render_report(records, title="t", run_report=_run_report_payload())
    assert "Orchestration" in html
    assert "Worker × node timeline" in html
    assert "nodes executed" in html and "chunk steals" in html
    assert "E14" in html and "jobs 2" in html
    assert "pt-1" in html and "2 attempts" in html   # retried node flagged
    for svg in re.findall(r"<svg.*?</svg>", html, flags=re.S):
        ET.fromstring(svg)


def test_gantt_panel_absent_without_run_report(records):
    assert "Orchestration" not in render_report(records, title="t")
    # a run report with no backend stats contributes nothing either
    html = render_report(records, title="t",
                         run_report={"experiment": "E2",
                                     "backend_stats": None})
    assert "Worker × node timeline" not in html


def test_cli_report_with_run_report(tmp_path, records, capsys):
    import json

    tr = Tracer()
    tr.absorb(records + _surrogate_records())
    trace = tr.write_jsonl(tmp_path / "t.jsonl")
    rr = tmp_path / "run.json"
    rr.write_text(json.dumps(_run_report_payload()), encoding="utf-8")
    out = tmp_path / "report.html"
    assert main(["report", str(trace), "--run-report", str(rr),
                 "-o", str(out)]) == 0
    capsys.readouterr()
    html = out.read_text(encoding="utf-8")
    assert "Orchestration" in html
    assert "Surrogate error budget" in html


def test_cli_report_missing_run_report_errors(tmp_path, records, capsys):
    tr = Tracer()
    tr.absorb(records)
    trace = tr.write_jsonl(tmp_path / "t.jsonl")
    assert main(["report", str(trace),
                 "--run-report", str(tmp_path / "nope.json")]) == 2
    assert "run report" in capsys.readouterr().err.lower()
